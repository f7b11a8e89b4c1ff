"""Physical layer: exact transition table, sampling, collapse, consistency.

Sampling, collapse and the scalar inference and consistency rules are
checked on the photon-by-photon reference path (``tests/reference.py``),
which the array engine is held to draw for draw.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkdsim.photons import (
    BB84_ALPHABET,
    BB84_FILTERS,
    ERASURE,
    POLARIZATIONS,
    THREE_STATE_ALPHABET,
    THREE_STATE_FILTERS,
    MeasurementOutcome,
    Polarization,
    Protocol,
    ResendPolicy,
    bit_map,
    detected,
    detection_probability,
    has_deterministic_outcome,
    inferred_index,
)
from qkdsim.rng import RandomSource
from reference import collapse_and_resend, consistent_inputs, infer_polarization
from reference import measure, measure_arrival, uniforms

ALL = tuple(Polarization)
polarizations = st.sampled_from(ALL)

HALF = Fraction(1, 2)

# The full exact transmission table: rows are photons, columns filters.
EXPECTED_PROBABILITY = {
    (Polarization.Z0, Polarization.Z0): Fraction(1),
    (Polarization.Z0, Polarization.D45): HALF,
    (Polarization.Z0, Polarization.Z90): Fraction(0),
    (Polarization.Z0, Polarization.D135): HALF,
    (Polarization.D45, Polarization.Z0): HALF,
    (Polarization.D45, Polarization.D45): Fraction(1),
    (Polarization.D45, Polarization.Z90): HALF,
    (Polarization.D45, Polarization.D135): Fraction(0),
    (Polarization.Z90, Polarization.Z0): Fraction(0),
    (Polarization.Z90, Polarization.D45): HALF,
    (Polarization.Z90, Polarization.Z90): Fraction(1),
    (Polarization.Z90, Polarization.D135): HALF,
    (Polarization.D135, Polarization.Z0): HALF,
    (Polarization.D135, Polarization.D45): Fraction(0),
    (Polarization.D135, Polarization.Z90): HALF,
    (Polarization.D135, Polarization.D135): Fraction(1),
}


def test_detection_probability_full_table():
    for (photon, filt), expected in EXPECTED_PROBABILITY.items():
        assert detection_probability(photon, filt) == expected


def test_degrees_and_from_degrees_roundtrip():
    for p in ALL:
        assert Polarization.from_degrees(p.degrees) is p
    with pytest.raises(ValueError):
        Polarization.from_degrees(30)


@given(polarizations)
def test_orthogonal_is_an_involution(p):
    assert p.orthogonal.orthogonal is p
    assert p.orthogonal is not p


@given(polarizations)
def test_orthogonal_never_detects(p):
    assert detection_probability(p, p.orthogonal) == 0
    assert detection_probability(p, p) == 1


def test_basis_groups_the_alphabet():
    # A basis is a polarization and its orthogonal: one angle modulo 90 degrees.
    assert Polarization.Z0.orthogonal is Polarization.Z90
    assert Polarization.D45.orthogonal is Polarization.D135
    assert {p.degrees % 90 for p in Polarization} == {0, 45}


def test_deterministic_outcome_cells():
    # Exactly 5 of the 9 three-state cells are deterministic: the four
    # rectilinear pairings plus the diagonal/diagonal cell.
    kept = {
        (s, f)
        for s in THREE_STATE_ALPHABET
        for f in THREE_STATE_FILTERS
        if has_deterministic_outcome(s, f)
    }
    assert kept == {
        (Polarization.Z0, Polarization.Z0),
        (Polarization.Z0, Polarization.Z90),
        (Polarization.Z90, Polarization.Z0),
        (Polarization.Z90, Polarization.Z90),
        (Polarization.D45, Polarization.D45),
    }


@given(st.sampled_from(BB84_ALPHABET), st.sampled_from(BB84_FILTERS))
def test_deterministic_outcome_is_basis_match(photon, filt):
    assert has_deterministic_outcome(photon, filt) == (photon.degrees % 90 == filt.degrees % 90)


def test_bit_map_values():
    assert bit_map(Polarization.Z0) == 0
    assert bit_map(Polarization.D45) == 0
    assert bit_map(Polarization.Z90) == 1
    assert bit_map(Polarization.D135) == 1


@given(polarizations)
def test_infer_polarization_two_branches(filt):
    # The engine's array rule and the reference loop's scalar rule agree.
    inferred = inferred_index(np.array([POLARIZATIONS.index(filt)] * 2), np.array([True, False]))
    assert [POLARIZATIONS[i] for i in inferred.tolist()] == [filt, filt.orthogonal]
    assert infer_polarization(filt, detected(filt)) is filt
    assert infer_polarization(filt, ERASURE) is filt.orthogonal


def test_outcomes_are_interned():
    rng = RandomSource(0)
    for _ in range(100):
        out = measure(Polarization.D45, Polarization.Z0, rng)
        assert out is ERASURE or out is detected(Polarization.Z0)
    assert detected(Polarization.Z0) is detected(Polarization.Z0)
    assert MeasurementOutcome(None) == ERASURE


def test_detected_repr():
    assert repr(detected(Polarization.Z0)) == "Detected(Z0)"
    assert repr(ERASURE) == "Erasure"


@given(polarizations, polarizations)
def test_detection_probability_is_a_probability(photon, filt):
    # Detection and erasure then split each encounter's unit mass.
    assert 0 <= detection_probability(photon, filt) <= 1


@given(polarizations, polarizations, st.integers(0, 2**32))
def test_measure_consumes_exactly_one_variate(photon, filt, seed):
    a = RandomSource(seed)
    b = RandomSource(seed)
    measure(photon, filt, a)
    b.uniform()
    # After one draw each, the two twins must stay in lockstep.
    assert uniforms(a, 4) == uniforms(b, 4)


def test_measure_deterministic_cells():
    rng = RandomSource(1)
    for p in ALL:
        assert measure(p, p, rng) is detected(p)
        assert measure(p, p.orthogonal, rng) is ERASURE


def test_measure_half_probability_frequency():
    rng = RandomSource(2026)
    n = 100_000
    hits = sum(
        measure(Polarization.D45, Polarization.Z0, rng).is_detected for _ in range(n)
    )
    assert abs(hits / n - 0.5) < 0.01


def test_measure_arrival_absence_is_erasure_without_a_draw():
    a = RandomSource(8)
    b = RandomSource(8)
    assert measure_arrival(None, Polarization.Z0, a) is ERASURE
    assert uniforms(a, 4) == uniforms(b, 4)


def test_measure_arrival_present_equals_measure():
    a = RandomSource(9)
    b = RandomSource(9)
    for p in ALL:
        assert measure_arrival(p, Polarization.D45, a) == measure(
            p, Polarization.D45, b
        )


def test_collapse_and_resend_detection_echoes_filter():
    rng = RandomSource(0)
    for policy in ResendPolicy:
        out = collapse_and_resend(
            detected(Polarization.D45), Polarization.D45, policy, rng
        )
        assert out is Polarization.D45


def test_collapse_and_resend_erasure_branches():
    rng = RandomSource(0)
    assert (
        collapse_and_resend(
            ERASURE, Polarization.Z0, ResendPolicy.ORTHOGONAL_INFERENCE, rng
        )
        is Polarization.Z90
    )
    assert (
        collapse_and_resend(ERASURE, Polarization.Z0, ResendPolicy.SEND_NOTHING, rng)
        is None
    )
    draws = {
        collapse_and_resend(ERASURE, Polarization.Z0, ResendPolicy.UNIFORM_RANDOM, rng)
        for _ in range(200)
    }
    assert draws == set(THREE_STATE_ALPHABET)


def test_collapse_under_diagonal_filter_can_leave_the_honest_alphabet():
    # An erasure behind a diagonal filter reads "orthogonal to 45°", i.e.
    # 135° — a state the three-state source never emits.  The channel
    # carries it regardless; the receiver's physics handles it fine.
    rng = RandomSource(0)
    resent = collapse_and_resend(
        ERASURE, Polarization.D45, ResendPolicy.ORTHOGONAL_INFERENCE, rng
    )
    assert resent is Polarization.D135
    assert resent not in THREE_STATE_ALPHABET


def test_consistent_inputs_three_state_table():
    A = THREE_STATE_ALPHABET
    cases = {
        (Polarization.Z0, detected(Polarization.Z0)): {Polarization.Z0, Polarization.D45},
        (Polarization.Z0, ERASURE): {Polarization.D45, Polarization.Z90},
        (Polarization.Z90, detected(Polarization.Z90)): {Polarization.D45, Polarization.Z90},
        (Polarization.Z90, ERASURE): {Polarization.Z0, Polarization.D45},
        (Polarization.D45, detected(Polarization.D45)): set(A),
        (Polarization.D45, ERASURE): {Polarization.Z0, Polarization.Z90},
    }
    for (filt, outcome), expected in cases.items():
        assert set(consistent_inputs(filt, outcome, A)) == expected


def test_consistent_inputs_rejects_foreign_detection():
    with pytest.raises(ValueError):
        consistent_inputs(
            Polarization.Z0, detected(Polarization.D45), THREE_STATE_ALPHABET
        )


@given(polarizations, polarizations)
def test_consistent_inputs_contains_the_truth(photon, filt):
    # Whatever outcome the physics can produce, the true input is always in
    # the consistent set for that outcome.
    p = detection_probability(photon, filt)
    if p > 0:
        assert photon in consistent_inputs(filt, detected(filt), ALL)
    if p < 1:
        assert photon in consistent_inputs(filt, ERASURE, ALL)


@pytest.mark.parametrize(
    "alphabet, filters, field",
    [
        ((Polarization.D45, Polarization.Z0), (Polarization.Z0, Polarization.D45), "alphabet"),
        ((Polarization.Z0, Polarization.D45), (Polarization.D45,), "filters"),
    ],
    ids=["alphabet", "filters"],
)
def test_protocol_options_must_lead_polarizations(alphabet, filters, field):
    # A sampled slot is read as its polarization index, which holds only
    # for a leading run of POLARIZATIONS.
    with pytest.raises(ValueError, match=field):
        Protocol("x", alphabet, filters, None)
