"""Golden digests: fixed-seed outputs must stay byte-identical.

Every engine change is held to the reports, sweep CSVs, attacker records
and session records that the reference engine produced on a fixed grid.
Each case is rendered to text and reduced to its SHA-256; the expected
digests live in ``golden_digests.json`` beside this file.

Regenerate that file only when a change of output is intended (a new
variate layout, a new report field), and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from qkdsim.eavesdrop import InterceptResend, NoAttack, PassiveClassical, StuckFilter
from qkdsim.harness import (
    DEFAULT_FILTER_CHOICES,
    PROTOCOLS,
    SessionConfig,
    attack_sweep,
    attack_to_jsonable,
    report_document,
    run,
    sweep_to_csv,
    to_json,
)
from qkdsim.photons import Polarization, ResendPolicy, bit_map, inferred_index
from qkdsim.rng import RandomSource
from qkdsim.session import run_session
from qkdsim.three_state import tamper_report
from qkdsim.transcript import Transcript
from reference import TamperReport, eve_log, readings, states

GOLDEN = Path(__file__).with_name("golden_digests.json")
SEED = 2026
TRIALS = 3
BB84_M = 6
N_GRID = (1, 7, 54, 400, 5000)
BB84_MIN_N = 60

ATTACKS = (
    NoAttack(),
    PassiveClassical(),
    StuckFilter(Polarization.Z0),
    StuckFilter(Polarization.D45),
    StuckFilter(Polarization.Z90),
) + tuple(
    InterceptResend(filter_choice=choice, resend=policy, fraction=fraction)
    for choice in DEFAULT_FILTER_CHOICES
    for policy in ResendPolicy
    for fraction in (1.0, 0.5, 0.0)
)


def attack_label(attack) -> str:
    return ":".join(str(v) for v in attack_to_jsonable(attack).values())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_cases():
    for protocol in ("three_state", "bb84"):
        for attack in ATTACKS:
            for n in N_GRID:
                if protocol == "bb84" and n < BB84_MIN_N:
                    continue
                yield f"report/{protocol}/{attack_label(attack)}/n={n}", (protocol, attack, n, True)
    # Without transcripts the certifier runs without recording its traffic.
    for attack in (NoAttack(), StuckFilter(Polarization.Z0), InterceptResend(fraction=0.5)):
        yield f"report/bb84/{attack_label(attack)}/n=5000/bare", ("bb84", attack, 5000, False)


# Sifted keys of about 20,000 bits, longer than photons._BLOCK, that still
# hold errors when the rounds start: a few-error cell and a dense one, bare
# and without aborting, so that each trial reports its key agreement.
LONG_KEY_N, LONG_KEY_M = 40_000, 20
LONG_KEY_ATTACKS = (
    InterceptResend(resend=ResendPolicy.SEND_NOTHING, fraction=0.01),
    InterceptResend(fraction=1.0),
)


def long_key_cases():
    for attack in LONG_KEY_ATTACKS:
        key = f"report/bb84/{attack_label(attack)}/n={LONG_KEY_N}/m={LONG_KEY_M}/bare"
        yield key, ("bb84", attack, LONG_KEY_N, False, LONG_KEY_M, False)


def render_report(protocol, attack, n, transcripts, m=BB84_M, abort=True) -> str:
    config = SessionConfig(
        protocol=protocol,
        n=n,
        m=m if protocol == "bb84" else None,
        attack=attack,
        seed=SEED,
        trials=TRIALS,
        include_transcripts=transcripts,
        abort_on_tamper=abort,
    )
    return to_json(report_document(config, run(config)))


def render_sweep() -> str:
    base = SessionConfig(protocol="three_state", n=900, seed=11, trials=2)
    rows = attack_sweep(base, fractions=(1.0, 0.5, 0.0))
    return sweep_to_csv(rows) + to_json({"rows": [asdict(row) for row in rows]})


RECORD_ATTACKS = (
    NoAttack(),
    StuckFilter(Polarization.Z0),
    InterceptResend(resend=ResendPolicy.UNIFORM_RANDOM, fraction=0.5),
    InterceptResend(filter_choice=Polarization.D45, resend=ResendPolicy.SEND_NOTHING),
)


def render_session(protocol, attack, n, seed) -> str:
    """A direct session's per-photon records, rebuilt from its arrays, plus Eve's log."""
    r = run_session(PROTOCOLS[protocol], n, RandomSource(seed), attack)
    sent, filters = states(r.sent_index), states(r.filter_index)
    outcomes = readings(r.filter_index, r.detected)
    if protocol == "three_state":
        block = tamper_report(len(r.auth_index), r.auth_failures)
        fields = (
            sent,
            filters,
            outcomes,
            r.kept.tolist(),
            r.key_index.tolist(),
            r.bob_bits.tolist(),
            r.auth_index.tolist(),
            r.alice_bits.tolist(),
            TamperReport(**{k: v for k, v in block.items() if k != "method"}),
        )
    else:
        fields = (
            sent,
            [bit_map(p) for p in sent],
            filters,
            outcomes,
            states(inferred_index(r.filter_index, r.detected)),
            r.kept_index.tolist(),
            r.alice_bits.tolist(),
            r.bob_bits.tolist(),
        )
    lines = [repr(f) for f in fields]
    lines.append(json.dumps(r.transcript, sort_keys=True))
    lines.append(str(0 if r.interception is None else int(r.interception.intercepted.sum())))
    lines.extend(repr(record) for record in eve_log(r.interception, PROTOCOLS[protocol].alphabet))
    return "\n".join(lines) + "\n"


def session_cases():
    for protocol in ("three_state", "bb84"):
        for attack in RECORD_ATTACKS:
            for n in (1, 7, 400, 5000):
                yield f"session/{protocol}/{attack_label(attack)}/n={n}", (protocol, attack, n, SEED + n)


def all_digests() -> dict[str, str]:
    out = {key: digest(render_report(*args)) for key, args in report_cases()}
    out.update({key: digest(render_report(*args)) for key, args in long_key_cases()})
    out["sweep/three_state/n=900"] = digest(render_sweep())
    out.update({key: digest(render_session(*args)) for key, args in session_cases()})
    return out


def _expected() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("protocol", ["three_state", "bb84"])
def test_report_digests(protocol):
    expected = _expected()
    cases = [(k, a) for k, a in report_cases() if a[0] == protocol]
    changed = [k for k, args in cases if digest(render_report(*args)) != expected[k]]
    assert not changed, f"{len(changed)} of {len(cases)} reports changed, first: {changed[:3]}"


@pytest.mark.parametrize("protocol", ["three_state", "bb84"])
def test_report_documents_render_as_stdlib_with_valid_transcripts(protocol):
    for _, (case_protocol, attack, n, transcripts) in report_cases():
        if case_protocol != protocol:
            continue
        config = SessionConfig(
            protocol=protocol,
            n=n,
            m=BB84_M if protocol == "bb84" else None,
            attack=attack,
            seed=SEED,
            trials=TRIALS,
            include_transcripts=transcripts,
        )
        document = report_document(config, run(config))
        assert to_json(document) == json.dumps(document, indent=2, sort_keys=True) + "\n"
        for trial in document["trials"] if transcripts else ():
            transcript = Transcript.from_jsonable(trial["transcript"])
            transcript.check_wire_order()
            session = run_session(PROTOCOLS[protocol], n, RandomSource(trial["seed"]), attack)
            assert transcript.announced_filters() == states(session.filter_index)
            assert transcript.kept_positions() == session.kept_index.tolist()


# Who speaks each kind of entry, and the only payload keys it may carry.
PUBLISHED = {
    "filter_announcement": ("bob", {"filters"}),
    "confirmation_announcement": ("alice", {"kept"}),
    "parity_query": ("alice", {"round", "positions"}),
    "parity_response": ("bob", {"round", "parity"}),
}


def assert_hygienic(entries, protocol, n, rounds):
    """The hygiene rules on one published transcript of an n-photon session."""
    Transcript.from_jsonable(entries).check_wire_order()
    kept = None
    for entry in entries:
        assert set(entry) == {"sender", "kind", "payload"}
        kind, payload = entry["kind"], entry["payload"]
        assert (entry["sender"], set(payload)) == PUBLISHED[kind]
        if kind == "filter_announcement":
            assert len(payload["filters"]) == n
            assert set(payload["filters"]) <= {p.degrees for p in PROTOCOLS[protocol].filters}
        elif kind == "confirmation_announcement":
            kept = payload["kept"]
            assert all(a < b for a, b in zip(kept, kept[1:]))
            assert all(0 <= i < n for i in kept)
        elif kind == "parity_query":
            # Queried positions index the sifted key, which is as long as kept.
            positions = payload["positions"]
            assert positions and all(a < b for a, b in zip(positions, positions[1:]))
            assert all(0 <= i < len(kept) for i in positions)
        else:
            assert payload["parity"] in (0, 1)
    assert sum(e["kind"] == "parity_query" for e in entries) == rounds


@pytest.mark.parametrize("protocol", ["three_state", "bb84"])
def test_emitted_transcripts_keep_the_hygiene_rules(protocol):
    cases = [a for _, a in report_cases() if a[0] == protocol and a[3]]
    for _, attack, n, _ in cases:
        m = BB84_M if protocol == "bb84" else None
        config = SessionConfig(
            protocol, n, m, attack=attack, seed=SEED, trials=TRIALS, include_transcripts=True
        )
        for report in run(config):
            rounds = report["counts"]["auth"] if m else 0
            assert_hygienic(report["transcript"], protocol, n, rounds)


def test_long_key_report_digests():
    expected = _expected()
    changed = [k for k, args in long_key_cases() if digest(render_report(*args)) != expected[k]]
    assert not changed, f"long-key reports changed: {changed}"


def test_sweep_digest():
    assert digest(render_sweep()) == _expected()["sweep/three_state/n=900"]


def test_session_record_digests():
    expected = _expected()
    cases = list(session_cases())
    changed = [k for k, args in cases if digest(render_session(*args)) != expected[k]]
    assert not changed, f"{len(changed)} of {len(cases)} sessions changed, first: {changed[:3]}"


def test_golden_file_covers_the_grid():
    keys = {k for k, _ in report_cases()} | {k for k, _ in session_cases()}
    keys |= {k for k, _ in long_key_cases()}
    keys.add("sweep/three_state/n=900")
    assert set(_expected()) == keys


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(all_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
