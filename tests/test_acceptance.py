"""End-to-end acceptance gate: one test per claim, one verdict line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the verdict lines
as they print; plain ``pytest -v`` shows one PASSED/FAILED row per criterion.
"""

import json
import time
from fractions import Fraction

import mpmath

from qkdsim.analysis import (
    entropy_report,
    compare,
    joint_distribution,
)
from qkdsim.bb84 import parity_certify
from qkdsim.cli import main
from qkdsim.harness import SessionConfig, attack_sweep, run
from qkdsim.photons import BB84, ERASURE, POLARIZATIONS, THREE_STATE, Polarization, detected
from qkdsim.rng import RandomSource, derive_child_seed
from qkdsim.session import run_session
from reference import passive_infer

mpmath.mp.dps = 50
_MP_LOG2_3 = mpmath.log(3) / mpmath.log(2)


def _verdict(criterion: int, ok: bool, detail: str = "") -> bool:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    return ok


def _mp(bits) -> float:
    c, r = bits.constant, bits.log3_coefficient
    return float(
        mpmath.mpf(c.numerator) / c.denominator
        + (mpmath.mpf(r.numerator) / r.denominator) * _MP_LOG2_3
    )


def test_criterion_1_exact_entropies():
    t0 = time.perf_counter()
    report = entropy_report()
    quantities = [report.h_a, report.h_b, report.h_ab, report.mutual_info]
    within = all(abs(float(q) - _mp(q)) < 1e-12 for q in quantities)
    decimals = [round(float(q), 3) for q in quantities] == [1.585, 1.864, 3.197, 0.252]
    elapsed = time.perf_counter() - t0
    ok = within and decimals and elapsed < 1.0
    assert _verdict(1, ok, f"runtime {elapsed * 1000:.0f} ms")


def test_criterion_2_receiver_marginal():
    joint = joint_distribution()
    marginal = joint.receiver_marginal()
    expected = {
        detected(Polarization.Z0): Fraction(1, 6),
        detected(Polarization.D45): Fraction(2, 9),
        detected(Polarization.Z90): Fraction(1, 6),
        ERASURE: Fraction(4, 9),
    }
    ok = marginal == expected and joint.total() == Fraction(1)
    assert _verdict(2, ok, "marginal (1/6, 2/9, 1/6, 4/9), mass 1")


def test_criterion_3_rate_convergence():
    t0 = time.perf_counter()
    n = 90_000
    session = run_session(THREE_STATE, n, RandomSource(2026))
    confirmed = len(session.kept_index) / n
    key = len(session.key_index) / n
    auth = len(session.auth_index) / n
    elapsed = time.perf_counter() - t0
    ok = (
        abs(confirmed - 5 / 9) < 0.01
        and abs(key - 4 / 9) < 0.01
        and abs(auth - 1 / 9) < 0.01
        and elapsed < 30.0
    )
    assert _verdict(
        3, ok, f"confirmed {confirmed:.4f}, key {key:.4f}, auth {auth:.4f}, {elapsed:.1f} s"
    )


def test_criterion_4_worked_example():
    result = compare(54, 6)
    exact_ok = (
        result.three_state_key == 24
        and result.bb84_key == 21
        and result.crossover_n == 108
    )

    trials = 1000
    three_counts = [
        len(run_session(THREE_STATE, 54, RandomSource(derive_child_seed(1, t))).key_index)
        for t in range(trials)
    ]
    three_mean = sum(three_counts) / trials

    bb84_mean = 0.0
    for t in range(trials):
        rng = RandomSource(derive_child_seed(2, t))
        session = run_session(BB84, 54, rng)
        cert = parity_certify(session.alice_bits, session.bob_bits, 6, rng.child(3))
        bb84_mean += cert.final_key_length / trials

    ok = exact_ok and abs(three_mean - 24) < 0.5 and abs(bb84_mean - 21) < 0.5
    assert _verdict(
        4, ok, f"exact 24/21/108, means {three_mean:.2f} vs 24 and {bb84_mean:.2f} vs 21"
    )


def test_criterion_5_parity_certification():
    trials = 10_000
    length = 32
    detail = []
    ok = True
    for m in (1, 6):
        hits = 0
        for t in range(trials):
            alice = [(t + j) % 2 for j in range(length)]
            bob = list(alice)
            bob[t % length] ^= 1  # exactly one differing bit
            rng = RandomSource(derive_child_seed(10 + m, t))
            hits += parity_certify(alice, bob, m, rng).mismatch_detected
        freq = hits / trials
        target = 1 - 2.0**-m
        ok = ok and abs(freq - target) < 0.02
        detail.append(f"m={m}: {freq:.4f} vs {target:.4f}")
    clean = sum(
        parity_certify([0, 1] * 16, [0, 1] * 16, 6, RandomSource(t)).mismatch_detected
        for t in range(trials)
    )
    ok = ok and clean == 0
    detail.append(f"identical keys: {clean} detections")
    assert _verdict(5, ok, "; ".join(detail))


def test_criterion_6_no_attack_correctness():
    ok = True
    for seed in range(100):
        three = run(SessionConfig(protocol="three_state", n=1000, seed=seed))[0]
        duo = run(SessionConfig(protocol="bb84", n=1000, m=6, seed=seed))[0]
        for report in (three, duo):
            ok = (
                ok
                and report["key_agreement"]["keys_match"]
                and not report["tamper"]["tamper_detected"]
                and not report["aborted"]
            )
    assert _verdict(6, ok, "100 seeds x 2 protocols, keys identical, no flags")


def test_criterion_7_attack_model_consistency():
    # Every (filter choice, resend policy) cell at full interception, with
    # at least 1e5 authentication positions pooled per cell.  The idealized
    # 2/3 model value is printed alongside, never asserted.
    base = SessionConfig(protocol="three_state", n=930_000, seed=77)
    rows = attack_sweep(base, fractions=[1.0])
    ok = len(rows) == 12
    for row in rows:
        cell_ok = (
            row.auth_positions >= 100_000
            and abs(row.empirical_failure - row.oracle_failure) <= 0.01
        )
        print(
            f"    cell {row.policy:22s} empirical {row.empirical_failure:.4f} "
            f"oracle {row.oracle_failure:.4f} model {row.paper_model:.4f} "
            f"auth {row.auth_positions}"
        )
        ok = ok and cell_ok
    assert _verdict(7, ok, "12 cells within ±0.01 of enumeration; model 2/3 shown")


def test_criterion_8_passive_eavesdropper_bound():
    sessions = 100
    n = 900
    known_total = 0
    ok = True
    for seed in range(sessions):
        session = run_session(THREE_STATE, n, RandomSource(derive_child_seed(500, seed)))
        kept = session.kept_index
        diagonal = session.filter_index[kept] == POLARIZATIONS.index(Polarization.D45)
        confirmed_k = set(kept[diagonal].tolist())
        for record in passive_infer(session.transcript, THREE_STATE):
            if record.known_bit is not None:
                known_total += 1
                ok = (
                    ok
                    and record.known_bit is POLARIZATIONS[session.sent_index[record.index]]
                    and record.index in confirmed_k
                )
    fraction = known_total / (sessions * n)
    ok = ok and abs(fraction - 1 / 9) < 0.01
    assert _verdict(8, ok, f"known fraction {fraction:.4f} vs 1/9, all claims correct")


def test_criterion_9_cli_determinism(tmp_path):
    invocations = {
        "three_state.json": [
            "simulate", "--protocol", "three-state", "--n", "400", "--trials", "3",
            "--seed", "11",
        ],
        "bb84.json": [
            "simulate", "--protocol", "bb84", "--n", "400", "--m", "4", "--trials",
            "3", "--seed", "11",
        ],
        "attacked.json": [
            "simulate", "--protocol", "three-state", "--n", "400", "--seed", "11",
            "--attack", "intercept", "--resend-policy", "nothing", "--fraction",
            "0.5", "--no-abort-on-tamper",
        ],
        "analysis.json": ["analyze"],
        "comparison.json": ["compare", "--n", "54", "--m", "6"],
        "sweep.csv": [
            "attack-sweep", "--n", "450", "--seed", "5", "--eve-filters",
            "uniform,z0", "--resend-policies", "orthogonal,nothing",
        ],
    }
    ok = True
    for name, argv in invocations.items():
        first = tmp_path / f"first_{name}"
        second = tmp_path / f"second_{name}"
        code_a = main(argv + ["--output", str(first)])
        code_b = main(argv + ["--output", str(second)])
        ok = ok and code_a == code_b and first.read_bytes() == second.read_bytes()
    assert _verdict(9, ok, f"{len(invocations)} invocations byte-identical on repeat")


def test_report_schema_sanity(tmp_path):
    # Not a numbered criterion: guard the serialized shape the criteria rely on.
    path = tmp_path / "report.json"
    code = main(
        ["simulate", "--protocol", "three-state", "--n", "60", "--seed", "1",
         "--include-transcripts", "--output", str(path)]
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 1
    trial = doc["trials"][0]
    assert set(trial["counts"]) == {"sent", "confirmed", "key", "auth"}
    assert "transcript" in trial
