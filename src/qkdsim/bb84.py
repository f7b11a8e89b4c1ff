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


def _draw_subset(rng: RandomSource, n: int, whole: bool) -> np.ndarray:
    """One round's inclusion flags (variate below 1/2) over n survivors.

    With ``whole`` all n flags are drawn.  Otherwise the flags come back
    only as far as a head that holds the first chosen position: the first
    ``_HEAD`` variates are drawn, and the rest of the round is skipped if
    one of them is below 1/2 or drawn in full if none is.  Either way the
    stream ends where n drawn variates leave it.
    """
    head = rng.uniform_array(n if whole else min(n, _HEAD)) < 0.5
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
    disagree, so only those positions are followed; the subset itself and
    the receiver's parity are formed only for a transcript.  A round with
    neither a transcript nor a disagreeing survivor reads only its first
    chosen position (see :func:`_draw_subset`) and skips the rest of its
    variates unread, leaving ``rng`` where the full draw would.

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
    errors = np.flatnonzero(np.asarray(alice_key) != bob)
    survivors = np.arange(len(bob))
    detection_round: Optional[int] = None
    for round_number in range(1, m + 1):
        whole = transcript is not None or errors.size > 0
        chosen = _draw_subset(rng, len(survivors), whole)
        while not chosen.any():
            chosen = _draw_subset(rng, len(survivors), whole)
        if transcript is not None:
            subset = survivors[chosen]
            query = {"round": round_number, "positions": subset.tolist()}
            response = {"round": round_number, "parity": int(bob[subset].sum()) & 1}
            transcript.append({"sender": "alice", "kind": "parity_query", "payload": query})
            transcript.append({"sender": "bob", "kind": "parity_response", "payload": response})
        # survivors ascend, so the first chosen one is the lowest index
        first = int(np.argmax(chosen))
        if errors.size:
            rank = np.searchsorted(survivors, errors)
            if np.count_nonzero(chosen[rank]) & 1 and detection_round is None:
                detection_round = round_number
            errors = errors[errors != survivors[first]]
        # discard survivors[first]: shift the ones before it up by one
        survivors[1 : first + 1] = survivors[:first]
        survivors = survivors[1:]
    return CertificationResult(
        rounds=m,
        mismatch_detected=detection_round is not None,
        bits_discarded=m,
        final_key_length=len(survivors),
        detection_round=detection_round,
        survivors=survivors,
        differing=len(errors),
    )
