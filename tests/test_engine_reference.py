"""The array engine against photon-by-photon reference loops.

The loops below spend variates one at a time, in the order the protocol
describes: every sender choice, then every receiver filter, then per photon
the attacker's draws (:func:`intercept_resend`) and one measurement if
anything arrives; and per parity round, one draw per surviving position.
The engine draws the same variates in whole arrays, so for any photon
count, seed and attack both must agree exactly.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsim import eavesdrop
from qkdsim.bb84 import bb84_run, parity_certify
from qkdsim.eavesdrop import (
    InterceptResend,
    NoAttack,
    PassiveClassical,
    StuckFilter,
    intercept_resend,
    intercept_session,
    normalize_attack,
)
from qkdsim.harness import DEFAULT_FILTER_CHOICES
from qkdsim.photons import (
    BB84_ALPHABET,
    BB84_FILTERS,
    THREE_STATE_ALPHABET,
    THREE_STATE_FILTERS,
    Polarization,
    POLARIZATIONS,
    ResendPolicy,
    measure_arrival,
)
from qkdsim.rng import RandomSource
from qkdsim.three_state import three_state_run
from qkdsim.transcript import Transcript

attacks = st.one_of(
    st.just(NoAttack()),
    st.just(PassiveClassical()),
    st.builds(StuckFilter, st.sampled_from(list(Polarization))),
    st.builds(
        InterceptResend,
        st.sampled_from(DEFAULT_FILTER_CHOICES),
        st.sampled_from(list(ResendPolicy)),
        st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    ),
)


def reference_transmission(alphabet, filter_set, n, rng, attack):
    """Sent states, filters and readings, the attacker's log and her interception count."""
    alice_rng, bob_rng, eve_rng = rng.child(0), rng.child(1), rng.child(2)
    attack = normalize_attack(attack)
    sent = [alice_rng.choice(alphabet) for _ in range(n)]
    filters = [bob_rng.choice(filter_set) for _ in range(n)]
    outcomes, records = [], []
    for i in range(n):
        photon = sent[i]
        if isinstance(attack, InterceptResend):
            photon, record = intercept_resend(photon, attack, eve_rng, filter_set, alphabet, i)
            records.append(record)
        outcomes.append(measure_arrival(photon, filters[i], bob_rng))
    intercepted = sum(1 for r in records if r.filter_used is not None)
    return sent, filters, outcomes, records, intercepted


def check_against_reference(session, alphabet, filter_set, n, seed, attack):
    sent, filters, outcomes, records, intercepted = reference_transmission(
        alphabet, filter_set, n, RandomSource(seed), attack
    )
    run = session(n, RandomSource(seed), attack)
    assert run.alice.sent == sent
    assert run.bob.filters == filters
    assert run.bob.outcomes == outcomes
    assert run.photons_intercepted == intercepted
    assert run.eve_records == records


@given(n=st.integers(1, 300), seed=st.integers(0, 2**64 - 1), attack=attacks)
@settings(max_examples=60, deadline=None)
def test_three_state_run_matches_reference_loop(n, seed, attack):
    check_against_reference(
        three_state_run, THREE_STATE_ALPHABET, THREE_STATE_FILTERS, n, seed, attack
    )


@given(n=st.integers(1, 300), seed=st.integers(0, 2**64 - 1), attack=attacks)
@settings(max_examples=60, deadline=None)
def test_bb84_run_matches_reference_loop(n, seed, attack):
    check_against_reference(bb84_run, BB84_ALPHABET, BB84_FILTERS, n, seed, attack)


@pytest.mark.parametrize(
    "attack",
    [
        InterceptResend(None, ResendPolicy.UNIFORM_RANDOM, 0.5),
        InterceptResend(Polarization.D45, ResendPolicy.ORTHOGONAL_INFERENCE, 0.5),
    ],
)
def test_session_spanning_walker_chunks_matches_reference_loop(attack):
    # Three chunks: the unused tail of each chunk's draw is carried twice.
    n = 2 * eavesdrop._CHUNK + 123
    check_against_reference(
        three_state_run, THREE_STATE_ALPHABET, THREE_STATE_FILTERS, n, 8, attack
    )


def test_intercept_session_matches_reference_across_small_chunks(monkeypatch):
    monkeypatch.setattr(eavesdrop, "_CHUNK", 37)
    grid = itertools.product(
        [(THREE_STATE_ALPHABET, THREE_STATE_FILTERS), (BB84_ALPHABET, BB84_FILTERS)],
        [None, Polarization.Z0, Polarization.D45],
        list(ResendPolicy),
        [0.0, 0.3, 1.0],
    )
    for (alphabet, filter_set), choice, policy, fraction in grid:
        attack = InterceptResend(choice, policy, fraction)
        sender = RandomSource(5)
        sent = [sender.choice(alphabet) for _ in range(400)]
        eve_rng = RandomSource(3)
        expected = [
            intercept_resend(p, attack, eve_rng, filter_set, alphabet, i)
            for i, p in enumerate(sent)
        ]
        sent_index = np.array([POLARIZATIONS.index(p) for p in sent])
        got = intercept_session(attack, filter_set, alphabet, RandomSource(3), sent_index)
        arrivals = [None if a < 0 else POLARIZATIONS[a] for a in got.arrival.tolist()]
        assert arrivals == [photon for photon, _ in expected]
        assert got.records() == [record for _, record in expected]


def reference_parity_rounds(alice, bob, m, rng):
    survivors = list(range(len(alice)))
    detection_round = None
    queries = []
    for round_number in range(1, m + 1):
        subset = [i for i in survivors if rng.below(0.5)]
        while not subset:
            subset = [i for i in survivors if rng.below(0.5)]
        parity_a = parity_b = 0
        for i in subset:
            parity_a ^= alice[i]
            parity_b ^= bob[i]
        queries.append((round_number, subset, parity_b))
        if parity_a != parity_b and detection_round is None:
            detection_round = round_number
        survivors.remove(subset[0])
    return survivors, detection_round, queries


@given(
    pairs=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=80),
    m=st.integers(0, 79),
    seed=st.integers(0, 2**64 - 1),
)
@settings(max_examples=100, deadline=None)
def test_parity_certify_matches_reference_loop(pairs, m, seed):
    alice = [a for a, _ in pairs]
    bob = [b for _, b in pairs]
    m = min(m, len(pairs) - 1)
    survivors, detection_round, queries = reference_parity_rounds(
        alice, bob, m, RandomSource(seed)
    )
    transcript = Transcript()
    result = parity_certify(alice, bob, m, RandomSource(seed), transcript=transcript)
    assert result.surviving_positions == survivors
    assert result.detection_round == detection_round
    assert transcript.parity_rounds() == queries
