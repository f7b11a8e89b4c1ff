"""Experiment harness: configured sessions, seeded trials, serialized reports.

A :class:`SessionConfig` fully determines a batch of sessions — protocol,
photon budget, attack, seed, trial count — and :func:`run` executes it
reproducibly: trial t draws everything from a child seed mixed from
(master seed, t), so reports are byte-identical across runs and trials can
be pooled in any order.  Serialization is deliberately boring: one JSON
document per invocation, schema-versioned, keys sorted, no timestamps.

:func:`to_json` writes every document.  Its output is byte-identical to
``json.dumps(document, indent=2, sort_keys=True) + "\\n"``, which formats
one integer per call once ``indent`` is set.  ``to_json`` is a small
recursive encoder that passes the text to one list in pieces and joins it
once, so no level copies the text of the levels inside it.  It renders the
exact types of a report itself: a report repeats a few dict shapes many
times, so a dict's sorted keys and its key lines (``{`` or ``,``, the
indent and ``"key": ``) are built once per shape (its line break plus
indent and its keys in insertion order) and read from a table that stops
storing at ``_SHAPE_LIMIT`` shapes.  A list of exact ``int`` items
(transcripts are mostly such lists, found by one pass over the item types)
is rendered in one ``join``: one ``operator.itemgetter`` call reads the
decimal text of 0-4095 off a dict, and a list with any other item takes
``int.__repr__``.  Every other value goes to ``json.dumps`` itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from operator import countOf, itemgetter
from typing import Any, Callable, Optional, Sequence, get_args

import numpy as np

from .analysis import model_auth_failure_rate, oracle_rates
from .bb84 import CertificationResult, KeyTooShort, SiftedKey, parity_certify
from .eavesdrop import (
    Attack,
    InterceptResend,
    NoAttack,
    PassiveClassical,
    StuckFilter,
)
from .photons import (
    BB84,
    OUTCOME_CLASSES,
    POLARIZATIONS,
    THREE_STATE,
    MeasurementOutcome,
    Polarization,
    ResendPolicy,
)
from .rng import RandomSource, derive_child_seed
from .session import outcome_rows, run_session
from .three_state import tamper_report

SCHEMA_VERSION = 1
PROTOCOLS = {p.name: p for p in (THREE_STATE, BB84)}
STATUS_KEY_TOO_SHORT = "key_too_short"


class InvalidConfig(ValueError):
    """A session configuration that fails validation, with the field named."""


@dataclass(frozen=True)
class SessionConfig:
    """Everything needed to reproduce a batch of sessions, checked when built
    (and by ``dataclasses.replace``): :meth:`validate` names a bad field."""

    protocol: str
    n: int
    m: Optional[int] = None
    attack: Attack = NoAttack()
    seed: int = 0
    trials: int = 1
    abort_on_tamper: bool = True
    include_transcripts: bool = False

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "SessionConfig":
        if not isinstance(self.protocol, str) or self.protocol not in PROTOCOLS:
            raise InvalidConfig(
                f"protocol: expected one of {tuple(PROTOCOLS)}, got {self.protocol!r}"
            )
        # Exact types: a bool is an int and "false" is truthy, so a looser
        # check would run a mistyped config rather than reject it.
        for name in ("n", "m", "seed", "trials"):
            value = getattr(self, name)
            if type(value) is not int and not (name == "m" and value is None):
                raise InvalidConfig(f"{name}: expected an integer, got {value!r}")
        for name in ("abort_on_tamper", "include_transcripts"):
            value = getattr(self, name)
            if type(value) is not bool:
                raise InvalidConfig(f"{name}: expected true or false, got {value!r}")
        if not isinstance(self.attack, Attack):
            kinds = ", ".join(kind.__name__ for kind in get_args(Attack))
            raise InvalidConfig(f"attack: expected one of {kinds}, got {self.attack!r}")
        if self.n < 1:
            raise InvalidConfig(f"n: need at least one photon, got {self.n}")
        if self.trials < 1:
            raise InvalidConfig(f"trials: need at least one trial, got {self.trials}")
        if PROTOCOLS[self.protocol].auth_filter is None:
            if self.m is None:
                raise InvalidConfig("m: parity round count is required for bb84")
            if self.m < 0:
                raise InvalidConfig(f"m: must be non-negative, got {self.m}")
        elif self.m is not None:
            raise InvalidConfig(
                "m: parity rounds belong to bb84; omit for three_state"
            )
        return self


def outcome_label(outcome: MeasurementOutcome) -> str:
    """Stable string form of a receiver outcome class, for report keys."""
    if outcome.is_erasure:
        return "erasure"
    return f"detected_{outcome.detected_as.degrees}"


def attack_to_jsonable(attack: Attack) -> dict[str, Any]:
    if isinstance(attack, NoAttack):
        return {"kind": "no_attack"}
    if isinstance(attack, PassiveClassical):
        return {"kind": "passive_classical"}
    if isinstance(attack, StuckFilter):
        return {"kind": "stuck_filter", "angle": attack.angle.name}
    if isinstance(attack, InterceptResend):
        choice = "uniform" if attack.filter_choice is None else attack.filter_choice.name
        return {
            "kind": "intercept_resend",
            "filter_choice": choice,
            "resend": attack.resend.value,
            "fraction": attack.fraction,
        }
    raise TypeError(f"unknown attack type {type(attack).__name__}")


def config_to_jsonable(config: SessionConfig) -> dict[str, Any]:
    """Every field of ``config``, the attack in its JSON form."""
    block = {field.name: getattr(config, field.name) for field in fields(config)}
    return {**block, "attack": attack_to_jsonable(config.attack)}


_OUTCOME_LABELS = tuple(outcome_label(o) for o in OUTCOME_CLASSES)


def _tally(cells: np.ndarray) -> tuple[dict[str, int], dict[str, dict[str, int]]]:
    """Count readings per outcome class and per (sent state, outcome class).

    Labels the fold of a session's cell histogram (see
    :func:`qkdsim.session.outcome_rows`); only non-zero cells appear.
    """
    outcome_counts: dict[str, int] = {}
    joint: dict[str, dict[str, int]] = {}
    for s, row in zip(POLARIZATIONS, outcome_rows(cells)):
        for label, count in zip(_OUTCOME_LABELS, row):
            if count:
                outcome_counts[label] = outcome_counts.get(label, 0) + count
                joint.setdefault(s.name, {})[label] = count
    return outcome_counts, joint


def _key_agreement(length: int, differing: int) -> dict[str, Any]:
    return {
        "length": length,
        "matching": length - differing,
        "differing": differing,
        "error_rate": differing / length if length else 0.0,
        "keys_match": differing == 0,
    }


# Stands in for the parity rounds of a trial whose key cannot pay for them.
_NOT_CERTIFIED = CertificationResult(
    rounds=0,
    mismatch_detected=False,
    final_key_length=0,
    detection_round=None,
    survivors=np.empty(0, dtype=np.intp),
    differing=0,
)


def run_trial(config: SessionConfig, trial: int) -> dict[str, Any]:
    """Execute one session with the trial's derived seed; its published report.

    The report holds ``protocol``, ``trial``, ``seed``, ``counts``,
    ``outcome_counts``, ``joint_counts``, ``tamper``, ``aborted`` and
    ``key_agreement``, then ``transcript`` if the config asks for one.  A
    BB84 trial whose sifted key is too short for ``m`` parity rounds runs
    no rounds and is reported with ``status`` set and no key agreement, so
    one short key does not lose the rest of a batch.
    """
    trial_seed = derive_child_seed(config.seed, trial)
    rng = RandomSource(trial_seed)
    session = run_session(PROTOCOLS[config.protocol], config.n, rng, config.attack)
    transcript = session.transcript if config.include_transcripts else None
    counts = {"sent": config.n, "confirmed": session.confirmed}
    status: Optional[str] = None
    if session.protocol.auth_filter is not None:
        tamper = tamper_report(session.auth_count, session.auth_failures)
        counts.update(key=session.key_count, auth=session.auth_count)
        agreement = (session.key_count, session.key_errors)
    else:
        try:
            # The rounds read the key length and the error ranks, and the
            # receiver's bits only for a transcript.
            bits = None if transcript is None else session.bob_bits
            key = SiftedKey(session.key_count, session.key_error_ranks, bits)
            cert = parity_certify(key, None, config.m, rng.child(3), transcript=transcript)
        except KeyTooShort:
            cert = _NOT_CERTIFIED
            status = STATUS_KEY_TOO_SHORT
        counts.update(key=cert.final_key_length, auth=cert.rounds)
        tamper = {
            "method": "parity_rounds",
            "rounds": cert.rounds,
            "mismatch_detected": cert.mismatch_detected,
            "detection_round": cert.detection_round,
            "tamper_detected": cert.mismatch_detected,
        }
        agreement = (cert.final_key_length, cert.differing)

    outcome_counts, joint_counts = _tally(session.cells)
    aborted = tamper["tamper_detected"] and config.abort_on_tamper
    report: dict[str, Any] = {
        "protocol": config.protocol,
        "trial": trial,
        "seed": trial_seed,
        "counts": counts,
        "outcome_counts": outcome_counts,
        "joint_counts": joint_counts,
        "tamper": tamper,
        "aborted": aborted,
        "key_agreement": None if aborted or status is not None else _key_agreement(*agreement),
    }
    if transcript is not None:
        report["transcript"] = transcript
    if status is not None:
        report["status"] = status
    return report


def run(config: SessionConfig) -> list[dict[str, Any]]:
    """Execute all configured trials sequentially and reproducibly."""
    return [run_trial(config, t) for t in range(config.trials)]


def aggregate(reports: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Pool per-trial counts into batch statistics.

    Pure sums and ratios of sums, so the result does not depend on the
    order the reports are supplied in.
    """
    if not reports:
        raise InvalidConfig("reports: nothing to aggregate")
    trials = len(reports)
    totals = {"sent": 0, "confirmed": 0, "key": 0, "auth": 0}
    for r in reports:
        for k in totals:
            totals[k] += r["counts"][k]
    agreements = [r["key_agreement"] for r in reports if r["key_agreement"]]
    tampered = sum(1 for r in reports if r["tamper"]["tamper_detected"])
    aborted = sum(1 for r in reports if r["aborted"])
    key_bits = sum(a["length"] for a in agreements)
    key_errors = sum(a["differing"] for a in agreements)
    auth_checked = sum(r["tamper"].get("auth_checked", 0) for r in reports)
    auth_failures = sum(r["tamper"].get("auth_failures", 0) for r in reports)
    too_short = sum(1 for r in reports if r.get("status") == STATUS_KEY_TOO_SHORT)
    out: dict[str, Any] = {
        "trials": trials,
        "totals": totals,
        "mean_key_count": totals["key"] / trials,
        "confirmed_fraction": totals["confirmed"] / totals["sent"],
        "key_fraction": totals["key"] / totals["sent"],
        "auth_fraction": totals["auth"] / totals["sent"],
        "detection_rate": tampered / trials,
        "aborted_trials": aborted,
        "key_error_rate": key_errors / key_bits if key_bits else 0.0,
        "compared_key_bits": key_bits,
    }
    if auth_checked:
        out["auth_failure_rate"] = auth_failures / auth_checked
    if too_short:
        out["key_too_short_trials"] = too_short
    return out


def report_document(
    config: SessionConfig, reports: Sequence[dict[str, Any]]
) -> dict[str, Any]:
    """The one-JSON-document-per-invocation shape the CLI emits."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "session_batch",
        "config": config_to_jsonable(config),
        "trials": list(reports),
        "aggregate": aggregate(reports),
    }


def to_json(document: dict[str, Any]) -> str:
    """Canonical serialization: sorted keys, two-space indent, one newline.

    Equals ``json.dumps(document, indent=2, sort_keys=True) + "\\n"`` wherever
    that renders, except that a plain dict with a non-``str`` key raises
    :class:`TypeError` and leaves nothing in the shape table.  Values that
    are not of a report's exact types are rendered, or refused, by
    ``json.dumps`` itself.  The table holds at most ``_SHAPE_LIMIT`` shapes;
    a shape past the bound renders the same, its key lines built again.
    """
    chunks: list[str] = []
    _write(document, "\n", chunks.append)
    chunks.append("\n")
    return "".join(chunks)


_ESCAPE = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}
# Decimal text of the small non-negative ints: transcript positions and degrees.
_DECIMAL = {i: int.__repr__(i) for i in range(4096)}
# Key lines per dict shape, keyed by (line break plus indent, keys in insertion
# order).  Reports repeat a few shapes many times; the table stops storing at
# this many, so an arbitrary document cannot grow it without limit.
_SHAPE_LIMIT = 1024
_SHAPES: dict[tuple, tuple] = {}


def _write(obj: Any, newline: str, out: Callable[[str], None]) -> None:
    """Pass ``obj`` as indented JSON to ``out``, in pieces; ``newline`` is a
    line break plus its indent.

    The exact types of a report have their own branches; any other value
    goes whole to ``json.dumps``, its line breaks (never inside a string,
    which is escaped) re-indented to ``newline``.
    """
    kind = type(obj)
    if kind is dict:
        _write_object(obj, newline, out)
    elif kind is list or kind is tuple:
        _write_array(obj, newline, out)
    elif kind is str:
        out(_ESCAPE(obj))
    elif kind is int:
        out(int.__repr__(obj))
    elif obj is None or obj is True or obj is False:
        out(_CONSTANTS[obj])
    elif kind is float and math.isfinite(obj):
        out(float.__repr__(obj))
    else:
        out(json.dumps(obj, indent=2, sort_keys=True).replace("\n", newline))


def _shape(newline: str, obj: dict) -> tuple:
    """A dict shape's (key, key line) pairs in key order, inner indent and closing line.

    A key line is ``{`` or ``,``, the inner indent and ``"key": ``.  A
    non-``str`` key raises :class:`TypeError`.
    """
    inner = newline + "  "
    keys = sorted(obj)
    leads = ["{" + inner] + ["," + inner] * (len(keys) - 1)
    lines = tuple((k, lead + _ESCAPE(k) + ": ") for k, lead in zip(keys, leads))
    return lines, inner, newline + "}"


def _write_object(obj: dict, newline: str, out: Callable[[str], None]) -> None:
    """A dict's ``"key": value`` lines in key order, each value through :func:`_write`."""
    if not obj:
        out("{}")
        return
    shape = (newline, *obj)
    entry = _SHAPES.get(shape)
    if entry is None:
        entry = _shape(newline, obj)
        if len(_SHAPES) < _SHAPE_LIMIT:
            _SHAPES[shape] = entry
    lines, inner, close = entry
    for k, line in lines:
        out(line)
        _write(obj[k], inner, out)
    out(close)


def _write_array(obj: Sequence, newline: str, out: Callable[[str], None]) -> None:
    """A list or tuple, one item per line; a list of exact ``int``s in one ``join``."""
    if not obj:
        out("[]")
        return
    inner = newline + "  "
    comma = "," + inner
    if countOf(map(type, obj), int) == len(obj):
        if len(obj) == 1:
            body = int.__repr__(obj[0])
        else:
            try:  # one lookup call for all the items; itemgetter returns a tuple
                body = comma.join(itemgetter(*obj)(_DECIMAL))
            except KeyError:  # an item outside the table
                body = comma.join(map(int.__repr__, obj))
        out("[" + inner)
        out(body)
        out(newline + "]")
        return
    lead = "[" + inner
    for item in obj:
        out(lead)
        _write(item, inner, out)
        lead = comma
    out(newline + "]")


# ---------------------------------------------------------------------------
# Attack sweeps
# ---------------------------------------------------------------------------

DEFAULT_FILTER_CHOICES: tuple[Optional[Polarization], ...] = (
    None,
    Polarization.Z0,
    Polarization.D45,
    Polarization.Z90,
)
DEFAULT_RESEND_POLICIES = tuple(ResendPolicy)


def filter_choice_label(choice: Optional[Polarization]) -> str:
    return "uniform" if choice is None else choice.name.lower()


@dataclass(frozen=True)
class SweepRow:
    """One (filter choice, resend policy, fraction) cell of a sweep."""

    policy: str
    fraction: float
    empirical_failure: float
    oracle_failure: float
    paper_model: float
    detection_rate: float
    key_error_rate: float
    auth_positions: int
    oracle_key_error: float

    def csv_fields(self) -> list[str]:
        return [
            self.policy,
            str(self.fraction),
            f"{self.empirical_failure:.6f}",
            f"{self.oracle_failure:.6f}",
            f"{self.paper_model:.6f}",
            f"{self.detection_rate:.6f}",
            f"{self.key_error_rate:.6f}",
        ]


# The CSV columns: the fields csv_fields renders.
SWEEP_HEADER = ", ".join(field.name for field in fields(SweepRow)[:7])


def attack_sweep(
    base: SessionConfig,
    filter_choices: Sequence[Optional[Polarization]] = DEFAULT_FILTER_CHOICES,
    policies: Sequence[ResendPolicy] = DEFAULT_RESEND_POLICIES,
    fractions: Sequence[float] = (1.0,),
) -> list[SweepRow]:
    """Run the interception grid and line results up against the oracles.

    Per cell the table shows the measured per-auth-position failure rate,
    the exact enumeration prediction, and the idealized 2/3-per-interception
    model curve — three numbers that the sweep exists to compare.  Sessions
    run with aborts disabled, since the point is to measure what tampering
    does to the key material.
    """
    if base.protocol != THREE_STATE.name:
        raise InvalidConfig("protocol: attack sweeps target the three_state protocol")
    # Every cell's attack is built, and so checked, before the first session runs.
    grid = [
        InterceptResend(filter_choice=choice, resend=policy, fraction=fraction)
        for choice in filter_choices
        for policy in policies
        for fraction in fractions
    ]
    rows = []
    for attack in grid:
        agg = aggregate(run(replace(base, attack=attack, abort_on_tamper=False)))
        oracle_failure, oracle_key_error = oracle_rates(attack)
        rows.append(
            SweepRow(
                policy=f"{filter_choice_label(attack.filter_choice)}/{attack.resend.value}",
                fraction=attack.fraction,
                empirical_failure=agg.get("auth_failure_rate", 0.0),
                oracle_failure=float(oracle_failure),
                paper_model=float(model_auth_failure_rate(attack.fraction)),
                detection_rate=agg["detection_rate"],
                key_error_rate=agg["key_error_rate"],
                auth_positions=agg["totals"]["auth"],
                oracle_key_error=float(oracle_key_error),
            )
        )
    return rows


def sweep_to_csv(rows: Sequence[SweepRow]) -> str:
    lines = [SWEEP_HEADER]
    lines.extend(", ".join(row.csv_fields()) for row in rows)
    return "\n".join(lines) + "\n"
