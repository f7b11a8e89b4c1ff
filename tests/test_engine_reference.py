"""The array engine against photon-by-photon reference loops.

The loops below spend variates one at a time, in the order the protocol
describes: every sender choice, then every receiver filter, then per photon
the attacker's draws (:func:`reference.intercept_resend`) and one
measurement if anything arrives; and per parity round, one draw per
surviving position.
The engine draws the same variates in whole arrays, so for any photon
count, seed and attack both must agree exactly.  The engine keeps index
arrays only, so the loops' polarizations and readings are mapped to
indices and compared with ``sent_index``, ``filter_index``, ``detected``
(read off the receiver's reading index), ``cell_index`` and ``cells``, and
the attacker's ``filters`` and ``detected``.  The keep rule, the
key/auth split and the receiver's key bits are checked against a loop over
the scalar rules (:func:`has_deterministic_outcome`,
:func:`reference.infer_polarization`, :func:`bit_map`).
"""

import itertools
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsim import eavesdrop, photons
from qkdsim.bb84 import _HEAD, KeyTooShort, parity_certify
from qkdsim.eavesdrop import (
    InterceptResend,
    NoAttack,
    PassiveClassical,
    StuckFilter,
    intercept_session,
    station,
)
from qkdsim.harness import (
    DEFAULT_FILTER_CHOICES,
    STATUS_KEY_TOO_SHORT,
    SessionConfig,
    outcome_label,
    run_trial,
)
from qkdsim.photons import (
    BB84,
    BB84_ALPHABET,
    BB84_FILTERS,
    BITS,
    DETERMINISTIC,
    THREE_STATE,
    THREE_STATE_ALPHABET,
    THREE_STATE_FILTERS,
    Polarization,
    POLARIZATIONS,
    ResendPolicy,
    bit_map,
    has_deterministic_outcome,
    inferred_index,
)
from qkdsim.rng import RandomSource
from qkdsim.session import run_session
from reference import CountingSource, choice, infer_polarization, intercept_resend, measure_arrival
from reference import readings, reference_parity_rounds, states

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


def reference_transmission(protocol, n, rng, attack):
    """Sent states, filters and readings, the attacker's log and her interception count."""
    alphabet, filter_set = protocol.alphabet, protocol.filters
    alice_rng, bob_rng, eve_rng = rng.child(0), rng.child(1), rng.child(2)
    attack = station(attack)
    sent = [choice(alice_rng, alphabet) for _ in range(n)]
    filters = [choice(bob_rng, filter_set) for _ in range(n)]
    outcomes, records = [], []
    for i in range(n):
        photon = sent[i]
        if attack is not None:
            photon, record = intercept_resend(photon, attack, eve_rng, filter_set, alphabet, i)
            records.append(record)
        outcomes.append(measure_arrival(photon, filters[i], bob_rng))
    intercepted = sum(1 for r in records if r.filter_used is not None)
    return sent, filters, outcomes, records, intercepted


def reference_split(protocol, sent, filters, outcomes):
    """Kept flags, key positions, auth positions and the receiver's key bits."""
    kept = [has_deterministic_outcome(s, f) for s, f in zip(sent, filters)]
    key = [i for i, k in enumerate(kept) if k and filters[i] is not protocol.auth_filter]
    auth = [i for i, k in enumerate(kept) if k and filters[i] is protocol.auth_filter]
    bob_bits = [bit_map(infer_polarization(filters[i], outcomes[i])) for i in key]
    return kept, key, auth, bob_bits


def indices(polarizations):
    return [POLARIZATIONS.index(p) for p in polarizations]


def attacker_arrays(records):
    """Her filter index per tick (-1 where she let the photon pass) and her reading."""
    filters = [-1 if r.filter_used is None else POLARIZATIONS.index(r.filter_used) for r in records]
    return filters, [r.outcome is not None and r.outcome.is_detected for r in records]


def check_against_reference(protocol, n, seed, attack):
    sent, filters, outcomes, records, intercepted = reference_transmission(
        protocol, n, RandomSource(seed), attack
    )
    session = run_session(protocol, n, RandomSource(seed), attack)
    assert session.sent_index.tolist() == indices(sent)
    assert session.filter_index.tolist() == indices(filters)
    assert session.detected.tolist() == [o.is_detected for o in outcomes]
    eve = session.interception
    assert (0 if eve is None else eve.intercepted.sum()) == intercepted
    if records:
        assert (eve.filters.tolist(), eve.detected.tolist()) == attacker_arrays(records)
    else:
        assert eve is None
    kept, key, auth, bob_bits = reference_split(protocol, sent, filters, outcomes)
    assert session.kept.tolist() == kept
    assert session.key_index.tolist() == key
    assert session.auth_index.tolist() == auth
    assert session.bob_bits.tolist() == bob_bits


@given(n=st.integers(1, 300), seed=st.integers(0, 2**64 - 1), attack=attacks)
@settings(max_examples=60, deadline=None)
def test_three_state_run_matches_reference_loop(n, seed, attack):
    check_against_reference(THREE_STATE, n, seed, attack)


@given(n=st.integers(1, 300), seed=st.integers(0, 2**64 - 1), attack=attacks)
@settings(max_examples=60, deadline=None)
def test_bb84_run_matches_reference_loop(n, seed, attack):
    check_against_reference(BB84, n, seed, attack)


@pytest.mark.parametrize("protocol", [THREE_STATE, BB84], ids=lambda p: p.name)
@given(n=st.integers(1, 400), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=40, deadline=None)
def test_honest_session_splits_kept_positions_and_agrees(protocol, n, seed):
    session = run_session(protocol, n, RandomSource(seed))
    key, auth = set(session.key_index.tolist()), set(session.auth_index.tolist())
    assert not key & auth
    assert key | auth == set(session.kept_index.tolist())
    if protocol.auth_filter is None:
        assert not auth
    assert session.alice_bits.tolist() == session.bob_bits.tolist()
    assert session.auth_failures == 0


@pytest.mark.parametrize(
    "attack",
    [
        InterceptResend(None, ResendPolicy.UNIFORM_RANDOM, 0.5),
        InterceptResend(Polarization.D45, ResendPolicy.ORTHOGONAL_INFERENCE, 0.5),
        InterceptResend(Polarization.Z0, ResendPolicy.SEND_NOTHING, 0.5),
        InterceptResend(None, ResendPolicy.ORTHOGONAL_INFERENCE, 1.0),
    ],
)
def test_session_spanning_walker_chunks_matches_reference_loop(attack):
    # Three chunks: each chunk draws the most it could spend and gives the
    # variates past its last photon back with RandomSource.unread.
    n = 2 * eavesdrop._CHUNK + 123
    check_against_reference(THREE_STATE, n, 8, attack)


@pytest.mark.parametrize("protocol", [THREE_STATE, BB84], ids=lambda p: p.name)
@pytest.mark.parametrize(
    "attack",
    [NoAttack(), InterceptResend(None, ResendPolicy.SEND_NOTHING, 0.5)],
    ids=["honest", "intercepted"],
)
def test_session_across_small_draw_blocks_matches_reference_loop(monkeypatch, protocol, attack):
    # Each party's variates are drawn a block at a time; blocks of 37 put
    # many block edges inside one session, and the last block is short.
    monkeypatch.setattr(photons, "_BLOCK", 37)
    check_against_reference(protocol, 1000, 21, attack)


# The attacks the reading index is checked under: every kind, and
# intercept-resend with a uniform or fixed filter under every policy, at no,
# half and full interception.
reading_attacks = st.one_of(
    st.just(NoAttack()),
    st.just(PassiveClassical()),
    st.builds(StuckFilter, st.sampled_from(list(Polarization))),
    st.builds(
        InterceptResend,
        st.sampled_from(DEFAULT_FILTER_CHOICES),
        st.sampled_from(list(ResendPolicy)),
        st.sampled_from([0.0, 0.5, 1.0]),
    ),
)


def check_reading_index(protocol, n, seed, attack):
    """A session's detections, cells and histogram against the reference loop.

    The session keeps the receiver's reading index; its detections and
    cells are read through tables, and its histogram is folded from the
    joint (sent, reading) counts.
    """
    sent, filters, outcomes, _, _ = reference_transmission(protocol, n, RandomSource(seed), attack)
    detected = [o.is_detected for o in outcomes]
    cells = [(4 * s + f) * 2 + d for s, f, d in zip(indices(sent), indices(filters), detected)]
    session = run_session(protocol, n, RandomSource(seed), attack)
    assert session.cells.tolist() == np.bincount(cells, minlength=32).tolist()
    own = (session.sent_index * 4 + session.filter_index) * 2 + session.detected
    assert session.cells.tolist() == np.bincount(own, minlength=32).tolist()
    assert session.detected.tolist() == detected
    assert session.cell_index.tolist() == cells


@pytest.mark.parametrize("protocol", [THREE_STATE, BB84], ids=lambda p: p.name)
@given(
    block=st.sampled_from([1, 7, 37]),
    n=st.one_of(st.just(1), st.integers(1, 300)),
    seed=st.integers(0, 2**64 - 1),
    attack=reading_attacks,
)
@settings(deadline=None)
def test_reading_index_matches_reference_loop(protocol, block, n, seed, attack):
    # Draw blocks of 1, 7 and 37 variates: most sessions span several
    # blocks and end in a short one.
    with mock.patch.object(photons, "_BLOCK", block):
        check_reading_index(protocol, n, seed, attack)


@pytest.mark.parametrize("protocol", [THREE_STATE, BB84], ids=lambda p: p.name)
@pytest.mark.parametrize(
    "attack",
    [
        NoAttack(),
        StuckFilter(Polarization.D45),
        InterceptResend(None, ResendPolicy.UNIFORM_RANDOM, 0.5),
        InterceptResend(Polarization.Z0, ResendPolicy.SEND_NOTHING, 1.0),
    ],
    ids=["honest", "stuck", "uniform_random_half", "z0_nothing_full"],
)
def test_reading_index_past_a_draw_block_matches_reference_loop(protocol, attack):
    # The engine's own block size, with a short last block.
    check_reading_index(protocol, photons._BLOCK + 123, 4, attack)


def check_intercept_session(attack, filter_set, alphabet, sent, rng, reference_rng):
    """The attacker's arrays against the photon-by-photon loop, and each stream's next variate."""
    expected = [
        intercept_resend(p, attack, reference_rng, filter_set, alphabet, i)
        for i, p in enumerate(sent)
    ]
    got = intercept_session(attack, filter_set, alphabet, rng, np.array(indices(sent)))
    arrivals = [None if a < 0 else POLARIZATIONS[a] for a in got.arrival.tolist()]
    assert arrivals == [photon for photon, _ in expected]
    records = [record for _, record in expected]
    assert (got.filters.tolist(), got.detected.tolist()) == attacker_arrays(records)
    assert rng.uniform() == reference_rng.uniform()


def test_intercept_session_matches_reference_across_small_chunks(monkeypatch):
    # Chunks of 37 photons, read in the engine's blocks and in blocks of 7
    # variates, whose edges fall inside a photon's draws and inside a chunk.
    monkeypatch.setattr(eavesdrop, "_CHUNK", 37)
    grid = itertools.product(
        [(THREE_STATE_ALPHABET, THREE_STATE_FILTERS), (BB84_ALPHABET, BB84_FILTERS)],
        [None, Polarization.Z0, Polarization.D45, Polarization.Z90],
        list(ResendPolicy),
        [0.0, 0.3, 0.5, 1.0],
        [photons._BLOCK, 7],
    )
    for (alphabet, filter_set), eve_filter, policy, fraction, block in grid:
        attack = InterceptResend(eve_filter, policy, fraction)
        sender = RandomSource(5)
        sent = [choice(sender, alphabet) for _ in range(400)]
        with mock.patch.object(photons, "_BLOCK", block):
            check_intercept_session(
                attack, filter_set, alphabet, sent, RandomSource(3), RandomSource(3)
            )


@given(
    protocol=st.sampled_from([THREE_STATE, BB84]),
    eve_filter=st.sampled_from([None, *Polarization]),
    policy=st.sampled_from(list(ResendPolicy)),
    fraction=st.one_of(
        st.sampled_from([0.0, 0.5, 1.0]), st.floats(0, 1, exclude_min=True, exclude_max=True)
    ),
    n=st.integers(1, 300),
    chunk=st.sampled_from([1, 2, 16, 17, 37]),
    block=st.sampled_from([1, 7, 37]),
    seed=st.integers(0, 2**64 - 1),
)
@settings(deadline=None)
def test_intercept_session_matches_reference_loop(
    protocol, eve_filter, policy, fraction, n, chunk, block, seed
):
    # Fractions inside (0, 1) walk the starts: in closed form under a fixed
    # filter, by squared jumps under a uniform one, or under the random
    # policy by a loop over per-state step tables.  Fraction 1 without a
    # resend pick reads strided views, and fraction 0 reads nothing.  Small
    # chunks put chunk edges and given-back tails all through the session,
    # and small draw blocks put block edges inside a photon's draws and
    # inside a chunk.
    attack = InterceptResend(eve_filter, policy, fraction)
    sender = RandomSource(seed).child(0)
    sent = [choice(sender, protocol.alphabet) for _ in range(n)]
    filter_set, alphabet = protocol.filters, protocol.alphabet
    with mock.patch.object(eavesdrop, "_CHUNK", chunk), mock.patch.object(photons, "_BLOCK", block):
        check_intercept_session(
            attack, filter_set, alphabet, sent, RandomSource(seed), RandomSource(seed)
        )


@pytest.mark.parametrize(
    "attack",
    [
        InterceptResend(None, ResendPolicy.UNIFORM_RANDOM, 1.0),
        InterceptResend(None, ResendPolicy.UNIFORM_RANDOM, 0.5),
        InterceptResend(None, ResendPolicy.ORTHOGONAL_INFERENCE, 0.5),
        InterceptResend(Polarization.Z0, ResendPolicy.SEND_NOTHING, 1.0),
    ],
    ids=["uniform_random_full", "uniform_random_half", "uniform_orthogonal_half", "z0_nothing"],
)
def test_intercept_session_draws_one_block_at_a_time(attack):
    # A 9,000-photon chunk holds up to 36,000 of her variates; she draws
    # them a block at a time, and still spends the stream as the loop does.
    sender = RandomSource(17)
    sent = [choice(sender, THREE_STATE_ALPHABET) for _ in range(9000)]
    rng = CountingSource(23)
    check_intercept_session(
        attack, THREE_STATE_FILTERS, THREE_STATE_ALPHABET, sent, rng, RandomSource(23)
    )
    assert rng.draws and max(rng.draws) <= photons._BLOCK
    assert rng.scalars == 1  # the check's own next variate


def plain_walk(step, n):
    """The first n starts of a walk that moves from p to p + step[p], and its end."""
    starts, pos = [], 0
    for _ in range(n):
        starts.append(pos)
        pos += int(step[pos])
    return starts, pos


# n = 1, n + 1 a multiple of 16 (15, 31, 47) and not.
@pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 31, 32, 33, 47, 100, 257])
@pytest.mark.parametrize("highest", [3, 15])
def test_jump_walk_matches_plain_loop(n, highest):
    rng = np.random.default_rng([n, highest])
    for _ in range(20):
        step = rng.integers(1, highest + 1, size=highest * n).astype(np.uint8)
        starts, end = plain_walk(step, n)
        # The whole table, and the table cut where the last photon's draws end.
        for table in (step, step[:end]):
            got, got_end = eavesdrop._jump_walk(table, n)
            assert (got.tolist(), got_end) == (starts, end)


@given(
    fraction=st.sampled_from([0.0, 0.01, 0.5, 0.99, 1.0]),
    n=st.sampled_from([1, 2, 15, 16, 17, 33, 257]),
    seed=st.integers(0, 2**64 - 1),
)
@settings(deadline=None)
def test_pair_walk_matches_plain_loop(fraction, n, seed):
    # A gate tape of two positions per photon, as a fixed filter draws it.
    gate = np.random.default_rng(seed).random(2 * n) < fraction
    starts, end = plain_walk(gate + 1, n)
    photon = [i for i, start in enumerate(starts) if gate[start]]
    # The whole tape, and the tape cut where the last photon's draws end.
    for tape in (gate, gate[:end]):
        got_photon, got_at, got_end = eavesdrop._pair_walk(tape, n)
        assert got_photon.tolist() == photon
        assert got_at.tolist() == [starts[i] for i in photon]
        assert got_end == end


# Block sizes in variates: rounds longer than a block, drawn one per draw in
# pieces; blocks that hold a few of a key's rounds, where an empty subset gives
# back the rest of its draw; and the engine's own size.
BLOCKS = (1, 2, 7, 64, photons._BLOCK)


def parity_entries(queries):
    """The transcript entries of the reference loop's (round, subset, parity) triples."""
    entries = []
    for round_number, subset, parity in queries:
        query = {"round": round_number, "positions": subset}
        response = {"round": round_number, "parity": parity}
        entries.append({"sender": "alice", "kind": "parity_query", "payload": query})
        entries.append({"sender": "bob", "kind": "parity_response", "payload": response})
    return entries


def assert_parity_rounds_match_reference(alice, bob, m, seed, recorded, blocks=BLOCKS):
    """parity_certify at every block size of ``blocks`` against the
    round-by-round loop; it must draw only in bulk."""
    reference_rng = RandomSource(seed)
    survivors, detection_round, queries = reference_parity_rounds(alice, bob, m, reference_rng)
    following = reference_rng.uniform()
    for block in blocks:
        rng = CountingSource(seed)
        transcript = [] if recorded else None
        with mock.patch.object(photons, "_BLOCK", block):
            result = parity_certify(alice, bob, m, rng, transcript=transcript)
        assert rng.scalars == 0, block
        assert result.survivors.tolist() == survivors, block
        assert result.detection_round == detection_round, block
        assert result.differing == sum(alice[i] != bob[i] for i in survivors), block
        if recorded:
            assert transcript == parity_entries(queries), block
        assert rng.uniform() == following, block


@pytest.mark.parametrize("recorded", [False, True], ids=["no_transcript", "transcript"])
@given(
    pairs=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=80),
    m=st.integers(0, 79),
    seed=st.integers(0, 2**64 - 1),
)
@settings(deadline=None)
def test_parity_certify_matches_reference_loop(recorded, pairs, m, seed):
    # Without a transcript, mismatches are found from the error positions alone.
    alice = [a for a, _ in pairs]
    bob = [b for _, b in pairs]
    assert_parity_rounds_match_reference(alice, bob, min(m, len(pairs) - 1), seed, recorded)


@st.composite
def keys_with_few_errors(draw):
    """Equal keys, or keys that differ in 1 to 3 places, and a round count they can pay for."""
    length = draw(st.one_of(st.integers(1, 300), st.sampled_from([_HEAD - 1, _HEAD, _HEAD + 1])))
    alice = draw(st.lists(st.integers(0, 1), min_size=length, max_size=length))
    errors = min(draw(st.integers(0, 3)), length)
    flips = draw(st.sets(st.integers(0, length - 1), min_size=errors, max_size=errors))
    bob = [bit ^ (i in flips) for i, bit in enumerate(alice)]
    return alice, bob, draw(st.integers(0, length - 1))


@pytest.mark.parametrize("recorded", [False, True], ids=["no_transcript", "transcript"])
@given(keys=keys_with_few_errors(), seed=st.integers(0, 2**64 - 1))
@settings(deadline=None)
def test_parity_certify_with_few_errors_matches_reference_loop(recorded, keys, seed):
    # Rounds with no error left read only a head of their variates and skip
    # the rest; the certifier stream must still end where the loop's does.
    alice, bob, m = keys
    assert_parity_rounds_match_reference(alice, bob, m, seed, recorded)


@st.composite
def keys_longer_than_a_block(draw, dense, longest=400):
    """Keys of 65 to ``longest`` bits with 1 to 5 errors, or about one in four
    (``dense``), and a round count of at most 24."""
    length = draw(st.integers(_HEAD + 1, longest))
    alice = draw(st.lists(st.integers(0, 1), min_size=length, max_size=length))
    if dense:
        flips = draw(st.lists(st.sampled_from((1, 0, 0, 0)), min_size=length, max_size=length))
    else:
        errors = draw(st.sets(st.integers(0, length - 1), min_size=1, max_size=5))
        flips = [i in errors for i in range(length)]
    bob = [bit ^ flip for bit, flip in zip(alice, flips)]
    return alice, bob, draw(st.integers(0, 24))


# Blocks of 64 variates, shorter than the keys, draw a round with errors in
# pieces, one round per draw; the engine's own block size draws several
# rounds at once.
LONG_KEY_BLOCKS = (64, photons._BLOCK)


@pytest.mark.parametrize("dense", [False, True], ids=["few_errors", "dense_errors"])
@given(data=st.data(), seed=st.integers(0, 2**64 - 1))
@settings(deadline=None)
def test_parity_certify_on_keys_longer_than_a_block_matches_reference_loop(dense, data, seed):
    alice, bob, m = data.draw(keys_longer_than_a_block(dense))
    assert_parity_rounds_match_reference(alice, bob, m, seed, False, LONG_KEY_BLOCKS)


@pytest.mark.parametrize("recorded", [False, True], ids=["no_transcript", "transcript"])
@pytest.mark.parametrize("dense", [False, True], ids=["few_errors", "dense_errors"])
@given(data=st.data(), seed=st.integers(0, 2**64 - 1))
@settings(deadline=None)
def test_parity_certify_makes_no_scalar_draw(recorded, dense, data, seed):
    # Keys of up to 1200 bits with few errors give rounds with hundreds of
    # survivors per error; each round still draws its variates in bulk.
    alice, bob, m = data.draw(keys_longer_than_a_block(dense, longest=1200))
    assert_parity_rounds_match_reference(alice, bob, m, seed, recorded, LONG_KEY_BLOCKS)


@pytest.mark.parametrize("protocol", [THREE_STATE, BB84], ids=lambda p: p.name)
@given(
    n=st.integers(1, 300),
    seed=st.integers(0, 2**64 - 1),
    attack=attacks,
    m=st.integers(0, 12),
)
@settings(max_examples=60, deadline=None)
def test_report_counts_match_session_index_arrays(protocol, n, seed, attack, m):
    # Every count run_trial reads off the cell histogram, recounted per tick.
    bb84 = protocol.auth_filter is None
    config = SessionConfig(
        protocol=protocol.name,
        n=n,
        m=m if bb84 else None,
        attack=attack,
        seed=seed,
        abort_on_tamper=False,
    )
    report = run_trial(config, 0)
    rng = RandomSource(report["seed"])
    session = run_session(protocol, n, rng, attack)
    sent, filters, detected = session.sent_index, session.filter_index, session.detected
    kept = DETERMINISTIC[sent, filters]
    at_auth = np.zeros(n, dtype=bool)
    if not bb84:
        at_auth = filters == POLARIZATIONS.index(protocol.auth_filter)
    key, auth = np.flatnonzero(kept & ~at_auth), np.flatnonzero(kept & at_auth)
    alice = BITS[sent[key]]
    bob = BITS[inferred_index(filters[key], detected[key])]
    assert session.key_error_ranks.tolist() == np.flatnonzero(alice != bob).tolist()

    labels = [outcome_label(o) for o in readings(filters, detected)]
    assert report["outcome_counts"] == dict(Counter(labels))
    joint = {}
    for s, label in zip(states(sent), labels):
        row = joint.setdefault(s.name, {})
        row[label] = row.get(label, 0) + 1
    assert report["joint_counts"] == joint
    assert report["counts"]["confirmed"] == np.count_nonzero(kept)
    if bb84:
        try:
            cert = parity_certify(alice, bob, m, rng.child(3))
        except KeyTooShort:
            assert report["status"] == STATUS_KEY_TOO_SHORT and report["key_agreement"] is None
            return
        survivors = cert.survivors
        assert report["counts"]["key"] == len(survivors)
        assert report["key_agreement"]["length"] == len(survivors)
        assert report["key_agreement"]["differing"] == np.count_nonzero(
            alice[survivors] != bob[survivors]
        )
    else:
        assert (report["counts"]["key"], report["counts"]["auth"]) == (len(key), len(auth))
        assert report["tamper"]["auth_checked"] == len(auth)
        assert report["tamper"]["auth_failures"] == np.count_nonzero(~detected[auth])
        assert report["key_agreement"]["length"] == len(key)
        assert report["key_agreement"]["differing"] == np.count_nonzero(alice != bob)
