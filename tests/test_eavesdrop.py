"""Attacker machinery: interception, passive transcript reading, stuck filters."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from qkdsim import eavesdrop
from qkdsim.eavesdrop import (
    InterceptResend,
    NoAttack,
    PassiveClassical,
    StuckFilter,
    intercept_session,
    station,
)
from qkdsim.photons import BB84, POLARIZATIONS, THREE_STATE, THREE_STATE_ALPHABET, Polarization
from qkdsim.photons import ERASURE, ResendPolicy, detected
from qkdsim.rng import RandomSource
from qkdsim.session import run_session
from reference import EveSource, choice, consistent_inputs, intercept_resend
from reference import passive_infer, uniforms

Z0, D45, Z90 = Polarization.Z0, Polarization.D45, Polarization.Z90
FILTER_CHOICES = (None,) + POLARIZATIONS  # uniform, then each fixed angle


def test_fraction_validation():
    with pytest.raises(ValueError):
        InterceptResend(fraction=-0.1)
    with pytest.raises(ValueError):
        InterceptResend(fraction=1.5)


def test_normalize_stuck_filter():
    # station reduces each of the four attack types to what it does to the photons.
    assert station(StuckFilter(angle=Z90)) == InterceptResend(
        filter_choice=Z90, resend=ResendPolicy.ORTHOGONAL_INFERENCE, fraction=1.0
    )
    attack = InterceptResend(filter_choice=None, resend=ResendPolicy.UNIFORM_RANDOM, fraction=0.25)
    assert station(attack) is attack
    assert station(NoAttack()) is None
    assert station(PassiveClassical()) is None


@pytest.mark.parametrize("attack", ["intercept", None], ids=repr)
def test_an_unknown_attack_raises_rather_than_running_honest(attack):
    with pytest.raises(TypeError, match="unknown attack type"):
        station(attack)
    with pytest.raises(TypeError, match="unknown attack type"):
        run_session(THREE_STATE, 100, RandomSource(0), attack)
    sent = np.zeros(10, dtype=np.int8)
    with pytest.raises(TypeError, match="unknown attack type"):
        intercept_session(attack, THREE_STATE.filters, THREE_STATE.alphabet, RandomSource(0), sent)


def test_zero_fraction_equals_no_attack_bit_for_bit(monkeypatch):
    # Fraction 0 runs the gate walks (pairs, jumps or the state loop) with
    # no gate open: the readings are NoAttack's, her stream is left where
    # skip(n) leaves it.  A chunk of 7 photons walks across chunk ends.
    for chunk in (eavesdrop._CHUNK, 7):
        monkeypatch.setattr(eavesdrop, "_CHUNK", chunk)
        for protocol, choice, policy in product((THREE_STATE, BB84), FILTER_CHOICES, ResendPolicy):
            idle = InterceptResend(filter_choice=choice, resend=policy, fraction=0.0)
            for seed in (0, 5, 99):
                a = run_session(protocol, 300, RandomSource(seed), attack=idle)
                b = run_session(protocol, 300, RandomSource(seed), attack=NoAttack())
                for name in ("sent_index", "filter_index", "reading"):
                    assert np.array_equal(getattr(a, name), getattr(b, name))
                assert not a.interception.intercepted.any()
                assert np.array_equal(a.interception.arrival, a.sent_index)
                eve, skipped = RandomSource(seed), RandomSource(seed)
                intercept_session(idle, protocol.filters, protocol.alphabet, eve, a.sent_index)
                skipped.skip(300)
                assert uniforms(eve, 5) == uniforms(skipped, 5)


def test_passive_attack_equals_no_attack_bit_for_bit():
    a = run_session(BB84, 300, RandomSource(4), attack=PassiveClassical())
    b = run_session(BB84, 300, RandomSource(4), attack=NoAttack())
    assert np.array_equal(a.cell_index, b.cell_index)


def test_stuck_filter_equals_normalized_intercept_bit_for_bit():
    stuck = StuckFilter(angle=Z0)
    a = run_session(THREE_STATE, 500, RandomSource(13), attack=stuck)
    literal = InterceptResend(
        filter_choice=Z0, resend=ResendPolicy.ORTHOGONAL_INFERENCE, fraction=1.0
    )
    b = run_session(THREE_STATE, 500, RandomSource(13), attack=literal)
    assert np.array_equal(a.cell_index, b.cell_index)
    assert a.interception.intercepted.sum() == b.interception.intercepted.sum() == 500


def test_no_attack_session_intercepts_nothing():
    for protocol in (THREE_STATE, BB84):
        session = run_session(protocol, 50, RandomSource(0))
        assert session.interception is None


def test_intercept_resend_gate_always_draws_once():
    # The pass/intercept gate consumes one variate even at fraction 0 or 1,
    # keeping downstream draws aligned across attack fractions.
    for fraction in (0.0, 1.0):
        strategy = InterceptResend(fraction=fraction)
        a = RandomSource(3)
        b = RandomSource(3)
        intercept_resend(Z0, strategy, a)
        b.uniform()  # the gate
        if fraction == 1.0:
            b.uniform()  # filter draw
            b.uniform()  # measurement draw
        assert uniforms(a, 3) == uniforms(b, 3)


def test_intercept_record_fields():
    strategy = InterceptResend(filter_choice=Z0, fraction=1.0)
    _, record = intercept_resend(D45, strategy, RandomSource(10), index=7)
    assert record.index == 7
    assert record.source is EveSource.PHOTON
    assert record.filter_used is Z0
    assert record.outcome is not None


def test_photon_level_interception_never_pins_the_state():
    # Every (three-state filter, outcome) pair stays consistent with at
    # least two alphabet members, so per-photon records carry no known_bit.
    strategy = InterceptResend()
    rng = RandomSource(44)
    for i in range(2000):
        _, record = intercept_resend(choice(rng, THREE_STATE_ALPHABET), strategy, rng, index=i)
        assert record.known_bit is None


def test_passive_infer_claims_exactly_the_confirmed_diagonal_positions():
    session = run_session(THREE_STATE, 3000, RandomSource(90))
    records = passive_infer(session.transcript, THREE_STATE)
    assert len(records) == 3000
    claimed = {r.index for r in records if r.known_bit is not None}
    kept = session.kept_index
    confirmed_diagonal = set(kept[session.filter_index[kept] == POLARIZATIONS.index(D45)].tolist())
    assert claimed == confirmed_diagonal
    for r in records:
        assert r.source is EveSource.TRANSCRIPT
        if r.known_bit is not None:
            assert r.known_bit is POLARIZATIONS[session.sent_index[r.index]] is D45


def test_passive_infer_never_claims_key_positions():
    session = run_session(THREE_STATE, 2000, RandomSource(91))
    records = {r.index: r for r in passive_infer(session.transcript, THREE_STATE)}
    for i in session.key_index.tolist():
        assert records[i].known_bit is None


def test_passive_infer_on_bb84_claims_only_true_states():
    # Every BB84 filter keeps two alphabet states, so no kept position is
    # pinned; the three-state alphabet would pin 45 degrees where 135 is as likely.
    session = run_session(BB84, 200, RandomSource(3))
    records = passive_infer(session.transcript, BB84)
    assert len(records) == 200
    for r in records:
        assert r.known_bit is None or r.known_bit is POLARIZATIONS[session.sent_index[r.index]]
    assert all(r.known_bit is None for r in records)


def test_stuck_filter_detects_half_and_pins_no_state():
    eve = run_session(THREE_STATE, 100_000, RandomSource(12), StuckFilter(Z0)).interception
    assert eve.intercepted.all() and (eve.filters == POLARIZATIONS.index(Z0)).all()
    assert abs(eve.detected.mean() - 0.5) < 0.01
    # Either reading behind a 0-degree filter leaves two three-state inputs open.
    for outcome in (detected(Z0), ERASURE):
        assert len(consistent_inputs(Z0, outcome, THREE_STATE_ALPHABET)) == 2


# Each ill-typed attack field, and the field its error must name.
BAD_ATTACK_FIELDS = {
    "filter_choice_a_name": (lambda: InterceptResend(filter_choice="Z0"), "filter_choice"),
    "resend_a_string": (lambda: InterceptResend(resend="nothing"), "resend"),
    "fraction_a_bool": (lambda: InterceptResend(fraction=True), "fraction"),
    "fraction_a_string": (lambda: InterceptResend(fraction="0.5"), "fraction"),
    "fraction_a_fraction": (lambda: InterceptResend(fraction=Fraction(1, 2)), "fraction"),
    "angle_a_name": (lambda: StuckFilter(angle="Z0"), "angle"),
}


@pytest.mark.parametrize("build, field", BAD_ATTACK_FIELDS.values(), ids=BAD_ATTACK_FIELDS)
def test_attack_fields_are_checked_when_built(build, field):
    with pytest.raises(ValueError, match=field):
        build()


def test_attack_accepts_an_int_or_float_fraction():
    assert InterceptResend(fraction=np.float64(0.5)).fraction == 0.5
    assert InterceptResend(fraction=1).fraction == 1
