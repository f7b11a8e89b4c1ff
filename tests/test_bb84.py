"""Baseline protocol: sifting, parity certification, usable-key arithmetic."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsim import photons
from qkdsim.analysis import compare
from qkdsim.bb84 import _HEAD, KeyTooShort, SiftedKey, parity_certify
from qkdsim.eavesdrop import InterceptResend
from qkdsim.photons import BB84, ResendPolicy, inferred_index
from qkdsim.rng import RandomSource
from qkdsim.session import run_session
from qkdsim.transcript import Transcript
from reference import CountingSource, reference_parity_rounds, states


class ScriptedRng:
    """Duck-typed stand-in whose variates come from a fixed script of flags.

    Each flag stands for one variate: True for one below 1/2 (the position
    joins the subset), False for one above it.  Bulk draws consume the
    script in order, one flag per variate; a skip consumes its flags
    unread, a scalar ``uniform`` reads one, and ``unread(k)`` puts the last
    k flags consumed back in front, as :meth:`RandomSource.unread` moves the
    stream back.  The script must be used up.
    """

    def __init__(self, flags):
        self.flags = list(flags)
        self.spent = []

    def _take(self, k):
        taken, self.flags = self.flags[:k], self.flags[k:]
        assert len(taken) == k, "script exhausted"
        self.spent += taken
        return taken

    def uniform_array(self, k):
        return np.array([0.25 if flag else 0.75 for flag in self._take(k)])

    def skip(self, k):
        self._take(k)

    def uniform(self):
        return self.uniform_array(1)[0]

    def unread(self, k):
        if k < 0:
            raise ValueError(f"k: variate count must be >= 0, got {k}")
        assert k <= len(self.spent), "unread past the script's start"
        cut = len(self.spent) - k
        self.flags = self.spent[cut:] + self.flags
        del self.spent[cut:]


def test_honest_run_keys_agree():
    session = run_session(BB84, 2000, RandomSource(17))
    assert session.alice_bits.tolist() == session.bob_bits.tolist()
    assert session.interception is None


def test_honest_sift_fraction_near_half():
    session = run_session(BB84, 100_000, RandomSource(101))
    assert abs(len(session.kept_index) / 100_000 - 0.5) < 0.01


def test_kept_positions_are_the_matching_bases():
    session = run_session(BB84, 500, RandomSource(3))
    sent, filters = states(session.sent_index), states(session.filter_index)
    expected = [i for i in range(500) if sent[i].degrees % 90 == filters[i].degrees % 90]
    assert session.kept_index.tolist() == expected
    assert session.key_index.tolist() == expected


def test_inferred_matches_sent_at_kept_positions():
    session = run_session(BB84, 500, RandomSource(3))
    kept = session.kept_index
    inferred = inferred_index(session.filter_index, session.detected)
    assert np.array_equal(inferred[kept], session.sent_index[kept])


def test_run_reproducible():
    a = run_session(BB84, 300, RandomSource(77))
    b = run_session(BB84, 300, RandomSource(77))
    assert np.array_equal(a.sent_index, b.sent_index)
    assert a.bob_bits.tolist() == b.bob_bits.tolist()


def test_intercepted_sift_disagreement_quarter():
    # Uniform BB84-filter interception with inference resending flips a
    # sifted bit with probability exactly 1/4.
    attack = InterceptResend(resend=ResendPolicy.ORTHOGONAL_INFERENCE)
    session = run_session(BB84, 100_000, RandomSource(55), attack=attack)
    rate = np.count_nonzero(session.alice_bits != session.bob_bits) / len(session.key_index)
    assert abs(rate - 0.25) < 0.01
    assert session.interception.intercepted.sum() == 100_000


# -- parity certification ---------------------------------------------------


def test_identical_keys_never_detect():
    key = [0, 1, 1, 0, 1, 0, 0, 1] * 4
    for seed in range(50):
        result = parity_certify(key, list(key), 6, RandomSource(seed))
        assert not result.mismatch_detected
        assert result.detection_round is None
        assert result.rounds == 6
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


def test_negative_round_count_names_m():
    with pytest.raises(ValueError, match="m: round count must be non-negative, got -1"):
        parity_certify([0, 1], [0, 1], -1, RandomSource(0))


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        parity_certify([0, 1], [0, 1, 1], 1, RandomSource(0))


def test_sifted_key_matches_the_two_key_form():
    alice = [0, 1, 1, 0, 1, 0, 0, 1]
    bob = [0, 1, 0, 0, 1, 0, 1, 1]
    key = SiftedKey(len(alice), np.array([2, 6]))
    expected = parity_certify(alice, bob, 3, RandomSource(5))
    result = parity_certify(key, None, 3, RandomSource(5))
    assert result.survivors.tolist() == expected.survivors.tolist()
    assert (result.detection_round, result.differing) == (
        expected.detection_round,
        expected.differing,
    )
    with pytest.raises(ValueError):
        parity_certify(key, bob, 3, RandomSource(5))  # the key already holds both
    with pytest.raises(ValueError):
        parity_certify(key, None, 3, RandomSource(5), transcript=[])  # no receiver bits


def test_scripted_round_discards_lowest_queried_index():
    # Subset = positions 1 and 3; parities differ there; position 1 goes.
    alice = [0, 0, 0, 0]
    bob = [0, 1, 0, 0]
    rng = ScriptedRng([False, True, False, True])
    result = parity_certify(alice, bob, 1, rng)
    assert rng.flags == []
    assert result.mismatch_detected
    assert result.detection_round == 1
    assert result.survivors.tolist() == [0, 2, 3]
    assert [alice[i] for i in result.survivors.tolist()] == [0, 0, 0]


def test_scripted_empty_subset_is_resampled():
    alice = [1, 1]
    bob = [1, 1]
    # First pass over the 2 survivors selects nobody; second pass picks
    # position 0.  The round then proceeds normally.
    rng = ScriptedRng([False, False, True, False])
    result = parity_certify(alice, bob, 1, rng)
    assert rng.flags == []
    assert result.survivors.tolist() == [1]
    assert not result.mismatch_detected


def test_scripted_empty_head_reads_the_tail():
    # Equal keys longer than the head: no variate of the head is below 1/2,
    # so the rest of the round is drawn, and its second flag is the first
    # chosen position.
    n = _HEAD + 6
    key = [0, 1] * (n // 2)
    rng = ScriptedRng([False] * _HEAD + [False, True, False, True, False, False])
    result = parity_certify(key, list(key), 1, rng)
    assert rng.flags == []
    assert result.survivors.tolist() == [i for i in range(n) if i != _HEAD + 1]
    assert not result.mismatch_detected


def test_scripted_empty_round_is_redrawn_and_its_tail_skipped():
    # The whole first draw is empty; the redraw chooses position 1 in its
    # head and skips the 6 flags after the head.
    n = _HEAD + 6
    key = [1, 0] * (n // 2)
    rng = ScriptedRng([False] * n + [False, True] + [False] * (n - 2))
    result = parity_certify(key, list(key), 1, rng)
    assert rng.flags == []
    assert result.survivors.tolist() == [0] + list(range(2, n))
    assert not result.mismatch_detected


@pytest.mark.parametrize("whole", [True, False], ids=["whole", "head"])
def test_scripted_last_survivor_is_the_only_one_chosen(whole):
    # Each of two rounds chooses only its last survivor, so the discard
    # shifts every survivor before it.  An error at position 0 makes both
    # rounds draw whole; equal keys longer than the head read the tail.
    n = 10 if whole else _HEAD + 6
    alice = [0] * n
    bob = [1] + [0] * (n - 1) if whole else list(alice)
    script = [False] * (n - 1) + [True] + [False] * (n - 2) + [True] + [True]
    rng, reference_rng = ScriptedRng(script), ScriptedRng(script)
    survivors, detection_round, _ = reference_parity_rounds(alice, bob, 2, reference_rng)
    result = parity_certify(alice, bob, 2, rng)
    assert result.survivors.tolist() == survivors == list(range(n - 2))
    assert result.final_key_length == len(survivors)
    assert result.detection_round == detection_round is None
    assert result.differing == int(whole)
    assert rng.uniform() == reference_rng.uniform()
    assert rng.flags == reference_rng.flags == []


def test_scripted_empty_subset_inside_a_block_with_a_transcript():
    # One block draws all three rounds (4 + 3 + 2 flags).  Round 2 comes up
    # empty, so the block ends there: its last 2 flags are given back, and
    # the next block opens with round 2's redraw.
    alice = [0, 1, 1, 0]
    bob = [0, 1, 1, 1]
    script = [False, True, False, True]  # round 1: positions 1 and 3
    script += [False, False, False]  # round 2: empty
    script += [True, False, False]  # its redraw: position 0
    script += [False, True]  # round 3: position 3
    script += [True]  # the next draw after the rounds
    rng, reference_rng = ScriptedRng(script), ScriptedRng(script)
    survivors, detection_round, queries = reference_parity_rounds(alice, bob, 3, reference_rng)
    entries = []
    result = parity_certify(alice, bob, 3, rng, transcript=entries)
    assert result.survivors.tolist() == survivors == [2]
    assert result.detection_round == detection_round == 1
    assert result.differing == 0
    assert Transcript.from_jsonable(entries).parity_rounds() == queries
    assert [subset for _, subset, _ in queries] == [[1, 3], [0], [3]]
    assert rng.uniform() == reference_rng.uniform()
    assert rng.flags == reference_rng.flags == []


def test_scripted_last_error_discarded_before_a_carried_empty_subset():
    # Blocks of 27 variates: rounds 1-3 of a 10-bit key (10 + 9 + 8 flags).
    # Round 1 discards the only error; round 2 is empty, so round 3's flags
    # are given back and the next draw opens with round 2's redraw.  With a
    # transcript that draw is the next block (rounds 2-4); without one no
    # error is left, so each round from the redraw on reads only its head.
    alice = [0] * 10
    bob = [1] + [0] * 9
    script = [True] + [False] * 9  # round 1: position 0, the error
    script += [False] * 9  # round 2: empty
    script += [False, True] + [False] * 7  # its redraw: position 2
    script += [True] + [False] * 7  # round 3: position 1
    script += [False, False, True] + [False] * 4  # round 4: position 5
    script += [False] * 5 + [True]  # round 5 (head): position 9
    script += [True] + [False] * 4  # round 6 (head): position 3
    script += [False]  # the next draw after the rounds
    for transcript in (None, []):
        rng, reference_rng = ScriptedRng(script), ScriptedRng(script)
        survivors, detection_round, queries = reference_parity_rounds(alice, bob, 6, reference_rng)
        with mock.patch.object(photons, "_BLOCK", 27):
            result = parity_certify(alice, bob, 6, rng, transcript=transcript)
        assert result.survivors.tolist() == survivors == [4, 6, 7, 8]
        assert result.detection_round == detection_round == 1
        assert result.differing == 0
        if transcript is not None:
            assert Transcript.from_jsonable(transcript).parity_rounds() == queries
        assert rng.uniform() == reference_rng.uniform()
        assert rng.flags == reference_rng.flags == []


def assert_scripted_rounds_match_reference(alice, bob, m, script, block):
    """parity_certify on ``script`` with blocks of ``block`` variates against
    the round-by-round loop on the same script; returns the result."""
    rng, reference_rng = ScriptedRng(script), ScriptedRng(script)
    survivors, detection_round, _ = reference_parity_rounds(alice, bob, m, reference_rng)
    with mock.patch.object(photons, "_BLOCK", block):
        result = parity_certify(alice, bob, m, rng)
    assert result.survivors.tolist() == survivors
    assert result.detection_round == detection_round
    assert result.differing == sum(alice[i] != bob[i] for i in survivors)
    assert rng.uniform() == reference_rng.uniform()
    assert rng.flags == reference_rng.flags == []
    return result


# At the engine's own block size one draw holds both rounds of these 70-bit
# keys; at 64 variates a round with errors is drawn alone, in two pieces.
BLOCK_SIZES = pytest.mark.parametrize("block", [photons._BLOCK, 64], ids=["block", "pieces"])


@BLOCK_SIZES
def test_scripted_error_at_the_first_chosen_rank_is_discarded(block):
    # Errors at positions 3 and 67 of a 70-bit key.  Round 1 chooses 3 first
    # and not 67, so its parities differ; position 3 goes.  Round 2 chooses
    # 0 first and 67 too, so they differ again.  Round 1 is drawn whole;
    # round 2 comes after a recorded mismatch, so it reads only its head
    # unless the block that holds round 1 holds it too.
    n = _HEAD + 6
    alice = [0] * n
    bob = [int(i in (3, 67)) for i in range(n)]
    script = [False] * 3 + [True] + [False] * 60  # round 1, head: position 3
    script += [True, False, False, False, True, True]  # 64-69: 67 not chosen
    script += [True] + [False] * 63  # round 2, head: position 0
    script += [False, False, True, False, True]  # 65-69: 67 chosen
    script += [False]  # the next draw after the rounds
    result = assert_scripted_rounds_match_reference(alice, bob, 2, script, block)
    assert result.survivors.tolist() == [i for i in range(n) if i not in (0, 3)]
    assert result.detection_round == 1
    assert result.differing == 1


@BLOCK_SIZES
def test_scripted_errors_only_below_the_first_chosen_rank(block):
    # Errors at positions 0 and 1; the round first chooses 5, so it holds no
    # error and both survive.
    n = _HEAD + 6
    alice = [1] * n
    bob = [0, 0] + [1] * (n - 2)
    script = [False] * 5 + [True] + [True, False] * 29  # head: position 5 first
    script += [True] * 6  # the flags past the head
    script += [True]  # the next draw after the rounds
    result = assert_scripted_rounds_match_reference(alice, bob, 1, script, block)
    assert result.survivors.tolist() == [i for i in range(n) if i != 5]
    assert result.detection_round is None
    assert result.differing == 2


@BLOCK_SIZES
def test_scripted_empty_head_with_errors_left_reads_the_tail(block):
    # An error at position 66.  No flag of the head is chosen, so the round
    # is drawn in full: it first chooses 66 and nothing after, so the parities
    # differ and the error goes.  Round 2 holds no error.
    n = _HEAD + 6
    alice = [0] * n
    bob = [int(i == 66) for i in range(n)]
    script = [False] * _HEAD + [False, False, True, False, False, False]  # round 1
    script += [False, True] + [False] * 62 + [True] * 5  # round 2: position 1
    script += [True]  # the next draw after the rounds
    result = assert_scripted_rounds_match_reference(alice, bob, 2, script, block)
    assert result.survivors.tolist() == [0] + [i for i in range(2, n) if i != 66]
    assert result.detection_round == 1
    assert result.differing == 0


def test_dense_errors_on_a_short_key_draw_all_rounds_at_once():
    # A 360-bit key with an error at every fourth position: the 20 rounds
    # (360 + 359 + ... + 341 flags) fit in one block.
    alice = [0] * 360
    bob = [int(i % 4 == 0) for i in range(360)]
    rng, reference_rng = CountingSource(8), RandomSource(8)
    survivors, detection_round, _ = reference_parity_rounds(alice, bob, 20, reference_rng)
    result = parity_certify(SiftedKey(360, np.arange(0, 360, 4)), None, 20, rng)
    assert rng.draws == [sum(range(341, 361))]
    assert result.survivors.tolist() == survivors
    assert result.detection_round == detection_round
    assert rng.uniform() == reference_rng.uniform()


@pytest.mark.parametrize("seed", [0, 2, 5])
def test_rounds_after_a_recorded_mismatch_read_only_their_head(seed):
    # 8 errors in 4000 bits, and blocks of 8000 variates: until a mismatch is
    # recorded the rounds are drawn whole, two to a draw (4001 - r flags in
    # round r).  After the draw that holds the round recording it only the
    # first chosen rank matters, so each later round draws its head alone.
    errors = np.arange(100, 4000, 500)
    bob = np.zeros(4000, dtype=int)
    bob[errors] = 1
    rng, reference_rng = CountingSource(seed), RandomSource(seed)
    survivors, detection_round, _ = reference_parity_rounds([0] * 4000, bob, 40, reference_rng)
    with mock.patch.object(photons, "_BLOCK", 8000):
        result = parity_certify(SiftedKey(4000, errors), None, 40, rng)
    assert detection_round is not None and detection_round < 40
    whole = (detection_round + 1) // 2  # draws of two whole rounds
    heads = 40 - 2 * whole
    assert rng.draws == [8003 - 4 * i for i in range(1, whole + 1)] + [_HEAD] * heads
    assert rng.scalars == 0
    assert result.survivors.tolist() == survivors
    assert result.detection_round == detection_round
    assert result.differing == np.count_nonzero(bob[survivors])
    assert rng.uniform() == reference_rng.uniform()


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
    assert result.rounds == 5
    assert result.final_key_length == 5


def test_transcript_records_each_round():
    key = [0, 1, 0, 1, 1, 0]
    entries = run_session(BB84, 12, RandomSource(2)).transcript
    parity_certify(key, key, 3, RandomSource(2), transcript=entries)
    t = Transcript.from_jsonable(entries)
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
    assert len(result.survivors) == len(bits) - m


# -- expected usable key ------------------------------------------------------


def test_usable_key_worked_values():
    assert compare(54, 6).bb84_key == 21
    assert compare(108, 6).bb84_key == 48
    assert compare(200, 6).bb84_key == 94
    assert compare(13, 6).bb84_key == Fraction(1, 2)
    # n/2 - m is an expectation; it may fall to zero or below.
    assert compare(12, 6).bb84_key == 0
    assert compare(10, 6).bb84_key == -1


@given(m=st.integers(1, 40))
def test_usable_key_at_the_crossover_grid(m):
    assert compare(18 * m, m).bb84_key == 8 * m
