"""Four-state/two-filter key distribution with parity-round certification.

The baseline protocol: the sender transmits photons uniformly over all four
polarizations, the receiver filters at 0 or 45 degrees, and sifting keeps
the positions where the sent state's basis matches the filter's — exactly
the positions whose reading is deterministic, so the receiver's inference
is guaranteed there.  Tampering is caught afterwards by comparing odd
parities of random key subsets, paying one discarded bit per round.  The
session itself runs on the shared engine (:func:`qkdsim.session.run_session`
with :data:`qkdsim.photons.BB84`); this module holds the parity rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

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
    bits_discarded: int
    final_key_length: int
    detection_round: Optional[int]
    survivors: np.ndarray  # surviving key positions, ascending
    differing: int  # surviving positions where the two keys disagree


# Variates a round reads before it skips the rest, when only its first
# chosen position matters: all of them are at least 1/2 with chance 2^-64.
_HEAD = 64


def _draw_subset(rng: RandomSource, n: int) -> np.ndarray:
    """One round's inclusion flags (variate below 1/2), as far as its first chosen position.

    The first ``_HEAD`` variates are drawn, and the rest of the round is
    skipped if one of them is below 1/2 or drawn in full if none is.  Either
    way the stream ends where n drawn variates leave it.
    """
    head = rng.uniform_array(min(n, _HEAD)) < 0.5
    if len(head) == n:
        return head
    if head.any():
        rng.skip(n - len(head))
        return head
    return np.concatenate((head, rng.uniform_array(n - len(head)) < 0.5))


def parity_certify(
    alice_key: Sequence[int],
    bob_key: Sequence[int],
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

    A subset draw spends one variate per survivor, in position order; an
    empty subset is redrawn the same way.  The parities differ exactly when
    the subset holds an odd number of the positions where the keys
    disagree, so only those positions are followed; the subsets and the
    receiver's parities are formed only for a transcript.  A round with neither a transcript nor a disagreeing survivor
    reads only its first chosen position (see :func:`_draw_subset`) and
    skips the rest of its variates unread.  The other rounds are drawn in
    full, in blocks: one draw covers as many consecutive rounds as fit in
    :data:`qkdsim.photons._BLOCK` variates, and at least one.  An empty
    subset ends its block, and the flags drawn after it carry over to the
    next block, whose first round is its redraw.  Either way ``rng`` is
    left where a round-by-round draw would leave it.

    ``transcript`` is the session's published list of entry dicts (see
    :attr:`qkdsim.session.Session.transcript`); each round appends its
    query, with the subset's positions ascending, and the response.
    """
    if m < 0:
        raise ValueError("round count must be non-negative")
    if len(alice_key) != len(bob_key):
        raise ValueError("keys must have equal length")
    if len(alice_key) <= m:
        raise KeyTooShort(
            f"key of {len(alice_key)} bits cannot pay for {m} parity rounds"
        )
    bob = np.asarray(bob_key)
    errors = np.flatnonzero(np.asarray(alice_key) != bob)  # among the survivors
    survivors = np.arange(len(bob))
    detection_round: Optional[int] = None
    carried = np.empty(0, dtype=bool)  # flags drawn for the rounds ahead
    done = 0
    while done < m:
        n = len(survivors)
        if transcript is None and not errors.size and not carried.size:
            chosen = _draw_subset(rng, n)
            while not chosen.any():
                chosen = _draw_subset(rng, n)
            # survivors ascend, so the first chosen one is the lowest index;
            # discard it: shift the ones before it up by one
            first = int(np.argmax(chosen))
            survivors[1 : first + 1] = survivors[:first]
            survivors = survivors[1:]
            done += 1
            continue
        # Round i of the block reads n - i flags, from offsets[i] on.
        i = np.arange(m - done + 1)
        offsets = i * n - i * (i - 1) // 2
        size = max(1, int(np.searchsorted(offsets, photons._BLOCK, side="right")) - 1)
        total = int(offsets[size])
        # The carried flags, then the block's draw: one call unless a single
        # round is longer than a block, whose draw comes in block-sized pieces.
        flags = np.empty(total, dtype=bool)
        flags[: len(carried)] = carried
        for lo, u in photons._blocks(rng, total - len(carried)):
            lo += len(carried)
            np.less(u, 0.5, out=flags[lo : lo + len(u)])
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
        if errors.size:
            wrong = np.searchsorted(survivors, errors)
            odd = np.count_nonzero(chosen.take(wrong, axis=1), axis=1) & 1
            if detection_round is None and odd.any():
                detection_round = done + 1 + int(np.argmax(odd))
            errors = errors[alive[rounds].take(wrong)]
        if transcript is not None:
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
        bits_discarded=m,
        final_key_length=len(survivors),
        detection_round=detection_round,
        survivors=survivors,
        differing=len(errors),
    )
