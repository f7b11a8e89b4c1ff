"""The array engine against photon-by-photon reference loops.

The loops below spend variates one at a time, in the order the protocol
describes: every sender choice, then every receiver filter, then one
measurement per arriving photon; and per parity round, one draw per
surviving position.  The engine draws the same variates in whole arrays,
so for any photon count, seed and attack both must agree exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsim.bb84 import bb84_run, parity_certify
from qkdsim.eavesdrop import (
    ChannelTap,
    InterceptResend,
    NoAttack,
    PassiveClassical,
    StuckFilter,
)
from qkdsim.harness import DEFAULT_FILTER_CHOICES
from qkdsim.photons import (
    BB84_ALPHABET,
    BB84_FILTERS,
    THREE_STATE_ALPHABET,
    THREE_STATE_FILTERS,
    Polarization,
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
        st.sampled_from([0.0, 0.3, 1.0]),
    ),
)


def reference_transmission(alphabet, filter_set, n, rng, attack):
    alice_rng, bob_rng, eve_rng = rng.child(0), rng.child(1), rng.child(2)
    tap = ChannelTap(attack, filter_set, alphabet, eve_rng, record=True)
    sent = [alice_rng.choice(alphabet) for _ in range(n)]
    filters = [bob_rng.choice(filter_set) for _ in range(n)]
    outcomes = [measure_arrival(tap(sent[i]), filters[i], bob_rng) for i in range(n)]
    return sent, filters, outcomes, tap


@given(n=st.integers(1, 300), seed=st.integers(0, 2**64 - 1), attack=attacks)
@settings(max_examples=60, deadline=None)
def test_three_state_run_matches_reference_loop(n, seed, attack):
    sent, filters, outcomes, tap = reference_transmission(
        THREE_STATE_ALPHABET, THREE_STATE_FILTERS, n, RandomSource(seed), attack
    )
    run = three_state_run(n, RandomSource(seed), attack, record_eve=True)
    assert run.alice.sent == sent
    assert run.bob.filters == filters
    assert run.bob.outcomes == outcomes
    assert run.photons_intercepted == tap.photons_intercepted
    assert run.eve_records == tap.records


@given(n=st.integers(1, 300), seed=st.integers(0, 2**64 - 1), attack=attacks)
@settings(max_examples=60, deadline=None)
def test_bb84_run_matches_reference_loop(n, seed, attack):
    sent, filters, outcomes, tap = reference_transmission(
        BB84_ALPHABET, BB84_FILTERS, n, RandomSource(seed), attack
    )
    run = bb84_run(n, RandomSource(seed), attack, record_eve=True)
    assert run.alice.sent == sent
    assert run.bob.filters == filters
    assert run.bob.outcomes == outcomes
    assert run.photons_intercepted == tap.photons_intercepted
    assert run.eve_records == tap.records


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
