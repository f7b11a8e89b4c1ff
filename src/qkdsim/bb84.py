"""Four-state/two-filter key distribution with parity-round certification.

The baseline protocol: the sender transmits photons uniformly over all four
polarizations, the receiver filters at 0 or 45 degrees, and sifting keeps
the positions where the sent state's basis matches the filter's — exactly
the positions whose reading is deterministic, so the receiver's inference
is guaranteed there.  Tampering is caught afterwards by comparing odd
parities of random key subsets, paying one discarded bit per round.  The
session itself runs on the shared engine (:func:`qkdsim.session.run_session`
with :data:`qkdsim.photons.BB84`); this module holds the parity rounds.

The rounds read only what decides them: a :class:`SiftedKey`, that is the
key length, the ranks at which the two keys differ and, for a transcript
only, the receiver's bits.  Each round takes one of four paths (see
:func:`parity_certify`): without a transcript, *head* (no error), *sparse*
(few errors for its survivors) or *lean* (more errors); with one, *block*.
Every path draws the same variates, in the same order, as a round-by-round
draw of one variate per survivor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence, Union

import numpy as np

from . import photons
from .rng import RandomSource


class KeyTooShort(ValueError):
    """Raised when a key cannot pay for the requested parity rounds."""


@dataclass(frozen=True, eq=False)
class CertificationResult:
    """Outcome of the m parity rounds over a sifted key."""

    rounds: int
    mismatch_detected: bool
    final_key_length: int
    detection_round: Optional[int]
    survivors: np.ndarray  # surviving key positions, ascending
    differing: int  # surviving positions where the two keys disagree


# Variates a round reads before it skips the rest, when only its first
# chosen position matters: all of them are at least 1/2 with chance 2^-64.
_HEAD = 64

# A round with errors and no transcript draws sparsely while it has more
# than this many survivors per error: one skip and one scalar draw per
# error cost about as much as this many variates drawn in bulk.
_SPARSE = 400


@dataclass(frozen=True, eq=False)
class SiftedKey:
    """What the parity rounds read of a sifted key pair.

    ``length`` is the key's bit count (also its ``len``), ``errors`` the
    ranks at which the two parties' keys differ, ascending, and
    ``receiver_bits`` the receiver's key, which only a transcript's
    parities read.
    """

    length: int
    errors: np.ndarray
    receiver_bits: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.length


def _fill_flags(rng: RandomSource, flags: np.ndarray) -> None:
    """Draw ``flags`` in stream order, one variate each: True below 1/2."""
    for lo, u in photons._blocks(rng, len(flags)):
        np.less(u, 0.5, out=flags[lo : lo + len(u)])


def _one_round(rng: RandomSource, n: int, wrong: np.ndarray, sparse: bool) -> tuple[int, int]:
    """A round over n survivors without a transcript: its first chosen rank,
    and 1 if it chose an odd number of the error ranks ``wrong``, else 0.

    The first ``_HEAD`` flags are drawn.  If the round is ``sparse`` and
    one of them is chosen, only the flags at the error ranks past the head
    are drawn, one variate each, and the rest of the round is skipped;
    with no error that is a head round, which reads nothing past its head.
    Otherwise all n flags are drawn, an empty subset is redrawn whole, and
    the flags are read at the error ranks.  Either way the stream ends
    where a round-by-round draw of n flags per subset leaves it.
    """
    head = rng.uniform_array(min(n, _HEAD)) < 0.5
    if sparse and head.any():
        first, odd, at = int(np.argmax(head)), 0, len(head)
        if wrong.size:
            near = int(np.searchsorted(wrong, at))
            odd = int(np.count_nonzero(head.take(wrong[:near])))
            for rank in wrong[near:].tolist():
                if rank > at:
                    rng.skip(rank - at)
                odd += rng.uniform() < 0.5
                at = rank + 1
        if n > at:
            rng.skip(n - at)
        return first, odd & 1
    flags = np.empty(n, dtype=bool)
    flags[: len(head)] = head
    _fill_flags(rng, flags[len(head) :])
    while not flags.any():
        _fill_flags(rng, flags)
    return int(np.argmax(flags)), int(np.count_nonzero(flags.take(wrong))) & 1


def parity_certify(
    alice_key: Union[SiftedKey, Sequence[int]],
    bob_key: Optional[Sequence[int]],
    m: int,
    rng: RandomSource,
    transcript: Optional[list[dict[str, Any]]] = None,
) -> CertificationResult:
    """Compare odd parities of m random key subsets, discarding one bit each.

    Per round: a uniformly random non-empty subset of the surviving
    positions (each included independently with probability 1/2, resampled
    if empty) is queried; both parties compute the subset's parity; a
    mismatch is recorded but the remaining rounds still run.  The
    lowest-index subset member is then discarded to pay for the leaked
    parity bit.  Any single disagreeing bit makes each round's comparison
    fail with probability exactly 1/2, which is what gives m rounds their
    1 - 2^-m detection power.

    The keys come either as two bit sequences or as one :class:`SiftedKey`
    with ``bob_key`` ``None``.  The parities differ exactly when the subset
    holds an odd number of the positions where the keys disagree, so only
    the ranks of those positions among the survivors are followed; the
    subsets and the receiver's parities are formed only for a transcript.

    A subset draw spends one variate per survivor, in position order; an
    empty subset is redrawn the same way.  A round without a transcript
    takes one of three paths, chosen from its survivor count L_r and error
    count K_r (see :func:`_one_round`); a round with one takes the fourth:

    - *head*: no error left.  Only the first chosen position matters, so
      the round reads a head of its variates and skips the rest.
    - *sparse*: errors, while K_r * ``_SPARSE`` < L_r.  After the head it
      draws one variate at each error rank and skips between them,
      O(1 + K_r) generator calls instead of L_r variates.
    - *lean*: denser errors.  All L_r flags are drawn, in pieces of at most
      :data:`qkdsim.photons._BLOCK` variates, and read at the first chosen
      rank and the error ranks.
    - *block*: a transcript.  One draw covers as many consecutive rounds as
      fit in a block, and at least one.  An empty subset ends its block,
      and the flags drawn after it carry over to the next block, whose
      first round is its redraw.

    Every path leaves ``rng`` where a round-by-round draw would leave it.

    ``transcript`` is the session's published list of entry dicts (see
    :attr:`qkdsim.session.Session.transcript`); each round appends its
    query, with the subset's positions ascending, and the response.
    """
    if m < 0:
        raise ValueError("round count must be non-negative")
    if isinstance(alice_key, SiftedKey):
        if bob_key is not None:
            raise ValueError("a sifted key already holds both parties' keys")
        key = alice_key
    else:
        if len(alice_key) != len(bob_key):
            raise ValueError("keys must have equal length")
        bob = np.asarray(bob_key)
        key = SiftedKey(len(bob), np.flatnonzero(np.asarray(alice_key) != bob), bob)
    if len(key) <= m:
        raise KeyTooShort(f"key of {len(key)} bits cannot pay for {m} parity rounds")
    bob = key.receiver_bits
    if transcript is not None and bob is None:
        raise ValueError("a transcript needs the receiver's key bits")
    wrong = key.errors  # ranks among the survivors
    survivors = np.arange(len(key))
    detection_round: Optional[int] = None
    carried = np.empty(0, dtype=bool)  # flags drawn for the rounds ahead
    done = 0
    while done < m:
        n = len(survivors)
        if transcript is None:
            first, odd = _one_round(rng, n, wrong, wrong.size * _SPARSE < n)
            done += 1
            if odd and detection_round is None:
                detection_round = done
            if wrong.size:
                wrong = wrong[wrong != first]
                wrong -= wrong > first
            # survivors ascend, so the first chosen one is the lowest index;
            # discard it: shift the ones before it up by one
            survivors[1 : first + 1] = survivors[:first]
            survivors = survivors[1:]
            continue
        # A transcript's rounds: round i of the block reads n - i flags, from
        # offsets[i] on.
        i = np.arange(m - done + 1)
        offsets = i * n - i * (i - 1) // 2
        size = max(1, int(np.searchsorted(offsets, photons._BLOCK, side="right")) - 1)
        total = int(offsets[size])
        # The carried flags, then the block's draw: one call unless a single
        # round is longer than a block, whose draw comes in block-sized pieces.
        flags = np.empty(total, dtype=bool)
        flags[: len(carried)] = carried
        _fill_flags(rng, flags[len(carried) :])
        # Each round's first chosen rank; the first empty round ends the block.
        hits = np.flatnonzero(np.append(flags, True))
        ranks = hits[np.searchsorted(hits, offsets[:size])] - offsets[:size]
        empty = np.flatnonzero(ranks >= n - i[:size])
        rounds = int(empty[0]) if empty.size else size
        carried = flags[offsets[min(rounds + 1, size)] :]
        if not rounds:
            continue
        # Round i's rank r falls on a column below r + i + 1, so the columns
        # past every rank plus the round count are never discarded.
        ranks = ranks[:rounds]
        columns = list(range(min(n, int(ranks.max()) + rounds)))
        discarded = [columns.pop(rank) for rank in ranks.tolist()]
        # Row i: the survivors alive in round i, the last row those left after
        # the block; a column is alive up to the round it is discarded in.
        alive = np.ones((rounds + 1, n), dtype=bool)
        alive[:, discarded] = np.tri(rounds, rounds + 1, dtype=bool).T
        chosen = np.zeros((rounds, n), dtype=bool)
        chosen[alive[:rounds]] = flags[: offsets[rounds]]
        if wrong.size:
            odd = np.count_nonzero(chosen.take(wrong, axis=1), axis=1) & 1
            if detection_round is None and odd.any():
                detection_round = done + 1 + int(np.argmax(odd))
            # the errors left, ranked among the survivors left
            wrong = wrong[alive[rounds].take(wrong)]
            wrong -= np.searchsorted(sorted(discarded), wrong)
        # chosen in row order: each round's subset, positions ascending
        picked = np.flatnonzero(chosen)
        positions = np.tile(survivors, rounds).take(picked).tolist()
        ends = np.count_nonzero(chosen, axis=1).cumsum().tolist()
        parities = np.count_nonzero(chosen & (bob[survivors] != 0), axis=1) & 1
        start = 0
        for round_number, end, parity in zip(
            range(done + 1, done + rounds + 1), ends, parities.tolist()
        ):
            query = {"round": round_number, "positions": positions[start:end]}
            response = {"round": round_number, "parity": parity}
            transcript.append({"sender": "alice", "kind": "parity_query", "payload": query})
            transcript.append({"sender": "bob", "kind": "parity_response", "payload": response})
            start = end
        # discard in place: the survivors before the last discarded one move
        # up past the discarded ones
        last = max(discarded) + 1
        survivors[rounds:last] = survivors[:last][alive[rounds, :last]]
        survivors = survivors[rounds:]
        done += rounds
    return CertificationResult(
        rounds=m,
        mismatch_detected=detection_round is not None,
        final_key_length=len(survivors),
        detection_round=detection_round,
        survivors=survivors,
        differing=len(wrong),
    )
