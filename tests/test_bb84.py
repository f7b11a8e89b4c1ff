"""Baseline protocol: sifting, parity certification, usable-key arithmetic."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsim.bb84 import (
    KeyTooShort,
    NonPositiveKey,
    bb84_run,
    bb84_usable_key,
    parity_certify,
    sift_keeps,
)
from qkdsim.eavesdrop import InterceptResend
from qkdsim.photons import (
    BB84_ALPHABET,
    BB84_FILTERS,
    Polarization,
    ResendPolicy,
    has_deterministic_outcome,
)
from qkdsim.rng import RandomSource


class ScriptedRng:
    """Duck-typed stand-in whose variates come from a fixed script of flags.

    Each flag stands for one variate: True for one below 1/2 (the position
    joins the subset), False for one above it.  Bulk draws consume the
    script in order, one flag per variate, and the script must be used up.
    """

    def __init__(self, flags):
        self.flags = list(flags)

    def uniform_array(self, k):
        taken, self.flags = self.flags[:k], self.flags[k:]
        assert len(taken) == k, "script exhausted"
        return np.array([0.25 if flag else 0.75 for flag in taken])


def test_sift_keeps_is_the_deterministic_outcome_rule():
    for s in BB84_ALPHABET:
        for f in BB84_FILTERS:
            assert sift_keeps(s, f) == has_deterministic_outcome(s, f)


def test_honest_run_keys_agree():
    run = bb84_run(2000, RandomSource(17))
    assert run.sift.alice_key == run.sift.bob_key
    assert run.photons_intercepted == 0


def test_honest_sift_fraction_near_half():
    run = bb84_run(100_000, RandomSource(101))
    assert abs(len(run.sift.kept_indices) / 100_000 - 0.5) < 0.01


def test_kept_positions_are_the_matching_bases():
    run = bb84_run(500, RandomSource(3))
    expected = [
        i
        for i in range(500)
        if run.alice.sent[i].basis == run.bob.filters[i].basis
    ]
    assert run.sift.kept_indices == expected


def test_inferred_matches_sent_at_kept_positions():
    run = bb84_run(500, RandomSource(3))
    for i in run.sift.kept_indices:
        assert run.bob.inferred[i] is run.alice.sent[i]


def test_transcript_structure():
    run = bb84_run(100, RandomSource(9))
    run.transcript.check_wire_order()
    assert run.transcript.announced_filters() == run.bob.filters
    assert run.transcript.kept_positions() == run.sift.kept_indices


def test_run_reproducible():
    a = bb84_run(300, RandomSource(77))
    b = bb84_run(300, RandomSource(77))
    assert a.alice.sent == b.alice.sent
    assert a.sift.bob_key == b.sift.bob_key


def test_intercepted_sift_disagreement_quarter():
    # Uniform BB84-filter interception with inference resending flips a
    # sifted bit with probability exactly 1/4.
    attack = InterceptResend(resend=ResendPolicy.ORTHOGONAL_INFERENCE)
    run = bb84_run(100_000, RandomSource(55), attack=attack)
    pairs = list(zip(run.sift.alice_key, run.sift.bob_key))
    rate = sum(a != b for a, b in pairs) / len(pairs)
    assert abs(rate - 0.25) < 0.01
    assert abs(run.photons_intercepted - 100_000) == 0


# -- parity certification ---------------------------------------------------


def test_identical_keys_never_detect():
    key = [0, 1, 1, 0, 1, 0, 0, 1] * 4
    for seed in range(50):
        result = parity_certify(key, list(key), 6, RandomSource(seed))
        assert not result.mismatch_detected
        assert result.detection_round is None
        assert result.bits_discarded == 6
        assert result.final_key_length == len(key) - 6


def test_key_too_short():
    with pytest.raises(KeyTooShort):
        parity_certify([0, 1, 1], [0, 1, 1], 3, RandomSource(0))
    # strictly longer than m is enough
    parity_certify([0, 1, 1, 0], [0, 1, 1, 0], 3, RandomSource(0))


def test_zero_rounds_is_a_no_op():
    result = parity_certify([1, 0], [1, 1], 0, RandomSource(0))
    assert not result.mismatch_detected
    assert result.final_key_length == 2


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        parity_certify([0, 1], [0, 1, 1], 1, RandomSource(0))


def test_scripted_round_discards_lowest_queried_index():
    # Subset = positions 1 and 3; parities differ there; position 1 goes.
    alice = [0, 0, 0, 0]
    bob = [0, 1, 0, 0]
    rng = ScriptedRng([False, True, False, True])
    result = parity_certify(alice, bob, 1, rng)
    assert rng.flags == []
    assert result.mismatch_detected
    assert result.detection_round == 1
    assert result.surviving_positions == [0, 2, 3]
    assert result.surviving_bits(alice) == [0, 0, 0]


def test_scripted_empty_subset_is_resampled():
    alice = [1, 1]
    bob = [1, 1]
    # First pass over the 2 survivors selects nobody; second pass picks
    # position 0.  The round then proceeds normally.
    rng = ScriptedRng([False, False, True, False])
    result = parity_certify(alice, bob, 1, rng)
    assert rng.flags == []
    assert result.surviving_positions == [1]
    assert not result.mismatch_detected


def test_single_difference_detection_rate_m1():
    alice = [0] * 12
    bob = list(alice)
    bob[4] = 1
    hits = sum(
        parity_certify(alice, bob, 1, RandomSource(seed)).mismatch_detected
        for seed in range(4000)
    )
    assert abs(hits / 4000 - 0.5) < 0.03


def test_all_rounds_run_even_after_detection():
    alice = [0] * 10
    bob = list(alice)
    bob[0] = 1
    result = parity_certify(alice, bob, 5, RandomSource(12))
    assert result.bits_discarded == 5
    assert result.final_key_length == 5


def test_transcript_records_each_round():
    from qkdsim.transcript import Transcript

    t = Transcript()
    t.announce_filters([Polarization.Z0])
    t.announce_kept([0])
    key = [0, 1, 0, 1, 1, 0]
    parity_certify(key, key, 3, RandomSource(2), transcript=t)
    t.check_wire_order()
    assert [r for r, _, _ in t.parity_rounds()] == [1, 2, 3]


@given(
    bits=st.lists(st.integers(0, 1), min_size=8, max_size=24),
    m=st.integers(0, 6),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=60)
def test_property_equal_keys_survive_silently(bits, m, seed):
    result = parity_certify(bits, list(bits), m, RandomSource(seed))
    assert not result.mismatch_detected
    assert result.final_key_length == len(bits) - m
    assert len(result.surviving_positions) == len(bits) - m


# -- expected usable key ------------------------------------------------------


def test_usable_key_worked_values():
    assert bb84_usable_key(54, 6) == 21
    assert bb84_usable_key(108, 6) == 48
    assert bb84_usable_key(200, 6) == 94


@given(m=st.integers(1, 40))
def test_usable_key_at_the_crossover_grid(m):
    assert bb84_usable_key(18 * m, m) == 8 * m


def test_usable_key_errors():
    with pytest.raises(NonPositiveKey):
        bb84_usable_key(12, 6)
    with pytest.raises(NonPositiveKey):
        bb84_usable_key(10, 6)
    with pytest.raises(ValueError):
        bb84_usable_key(0, 1)
    assert bb84_usable_key(13, 6) == Fraction(1, 2)
