"""Three-state protocol: keep rule, key/auth split, tamper evidence."""

from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsim.analysis import compare
from qkdsim.eavesdrop import StuckFilter
from qkdsim.photons import THREE_STATE, Polarization, has_deterministic_outcome
from qkdsim.rng import RandomSource
from qkdsim.session import run_session
from qkdsim.three_state import tamper_report
from reference import states, tamper_verdict

Z0, D45, Z90 = Polarization.Z0, Polarization.D45, Polarization.Z90


def test_run_session_names_n():
    with pytest.raises(ValueError, match="n: need at least one photon, got 0"):
        run_session(THREE_STATE, 0, RandomSource(0))


def test_confirm_truth_table():
    # All nine (sent, filter) cells; exactly five are kept, four of them key.
    cells = [(s, f) for s in THREE_STATE.alphabet for f in THREE_STATE.filters]
    kept_cells = {(s, f) for s, f in cells if has_deterministic_outcome(s, f)}
    assert kept_cells == {(Z0, Z0), (Z0, Z90), (Z90, Z0), (Z90, Z90), (D45, D45)}
    auth_cells = {(s, f) for s, f in kept_cells if f is THREE_STATE.auth_filter}
    assert auth_cells == {(D45, D45)}


def test_authenticate_clean():
    report = tamper_report(checked=8, failures=0)
    assert report["auth_checked"] == 8
    assert report["auth_failures"] == 0
    assert not report["tamper_detected"]
    assert report["model_certification"] == 1.0 - 3.0**-8


def test_authenticate_single_erasure_alarms():
    report = tamper_report(checked=3, failures=1)
    assert report["auth_failures"] == 1
    assert report["tamper_detected"]


def test_authenticate_empty():
    report = tamper_report(checked=0, failures=0)
    assert report["auth_checked"] == 0
    assert not report["tamper_detected"]
    assert report["model_certification"] == 0.0


@pytest.mark.parametrize("checked", [0, 1, 2, 3, 8, 40])
def test_tamper_block_is_the_reference_verdict(checked):
    for failures in sorted({0, min(1, checked), checked}):
        block = tamper_report(checked, failures)
        want = asdict(tamper_verdict(checked, failures))
        # The float curve may sit an ulp from the exactly rounded value.
        assert block.pop("model_certification") == pytest.approx(
            want.pop("model_certification"), rel=1e-15
        )
        assert block == {"method": "auth_positions", **want}


def test_key_count_examples():
    # The expected three-state key, 4n/9, exact (m plays no part in it).
    assert compare(54, 6).three_state_key == 24
    assert compare(9, 0).three_state_key == 4
    assert compare(18, 1).three_state_key == 8
    assert compare(1, 0).three_state_key == Fraction(4, 9)


def test_honest_run_agrees_and_stays_quiet():
    session = run_session(THREE_STATE, 5000, RandomSource(21))
    assert session.alice_bits.tolist() == session.bob_bits.tolist()
    assert session.auth_failures == 0
    assert session.interception is None


def test_honest_fractions_near_exact_rates():
    n = 30_000
    session = run_session(THREE_STATE, n, RandomSource(6))
    assert abs(len(session.kept_index) / n - 5 / 9) < 0.02
    assert abs(len(session.key_index) / n - 4 / 9) < 0.02
    assert abs(len(session.auth_index) / n - 1 / 9) < 0.02


def test_key_positions_use_rectilinear_filters_only():
    session = run_session(THREE_STATE, 600, RandomSource(2))
    sent, filters = session.sent_index, session.filter_index
    assert set(states(filters[session.key_index])) <= {Z0, Z90}
    assert set(states(filters[session.auth_index])) == {D45}
    assert set(states(sent[session.auth_index])) == {D45}


@given(n=st.integers(1, 400), seed=st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_key_plus_auth_is_confirmed(n, seed):
    session = run_session(THREE_STATE, n, RandomSource(seed))
    assert len(session.key_index) + len(session.auth_index) == len(session.kept_index)


def test_run_reproducible():
    a = run_session(THREE_STATE, 400, RandomSource(123))
    b = run_session(THREE_STATE, 400, RandomSource(123))
    assert np.array_equal(a.sent_index, b.sent_index)
    assert a.bob_bits.tolist() == b.bob_bits.tolist()
    assert a.transcript == b.transcript


def test_stuck_rectilinear_reader_corrupts_nothing_but_alarms():
    # A filter stuck at 0° reads every key position correctly (its resends
    # are never mistaken at rectilinear filters) yet alarms on roughly half
    # the authentication positions.  The key stays clean; the session burns.
    session = run_session(THREE_STATE, 20_000, RandomSource(14), attack=StuckFilter(angle=Z0))
    assert session.alice_bits.tolist() == session.bob_bits.tolist()
    alarm_rate = session.auth_failures / len(session.auth_index)
    assert abs(alarm_rate - 0.5) < 0.02
    assert session.auth_failures > 0
