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
only, the receiver's bits.  Each round takes one of two paths (see
:func:`parity_certify`): *sparse*, a round without a transcript and with
few errors for its survivors (often none) or after a recorded mismatch,
or *block*, one draw of several rounds read one at a time.  Both draw the
same variates, in the same order, as a round-by-round draw of one variate
per survivor.  A transcript's query and response entries are written by
:func:`qkdsim.transcript.parity_round`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence, Union

import numpy as np

from . import photons
from .rng import RandomSource
from .transcript import parity_round


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


def _sparse_round(rng: RandomSource, n: int, wrong: np.ndarray) -> Optional[tuple[int, int]]:
    """A round over n survivors drawn sparsely: its first chosen rank, and 1
    if it chose an odd number of the error ranks ``wrong``, else 0.

    The first ``_HEAD`` flags are drawn; past them only the flags at the
    error ranks, one variate each, and the rest of the round is skipped.
    With no error left that is a head round, which reads nothing past its
    head.  If no flag of the head is chosen, the head is given back and
    ``None`` returned, for the round to be drawn in full.
    """
    head = rng.uniform_array(min(n, _HEAD)) < 0.5
    if not head.any():
        rng.unread(len(head))
        return None
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


def _block_rounds(rng: RandomSource, n: int, rounds: int) -> Iterator[np.ndarray]:
    """The subset flags of up to ``rounds`` consecutive rounds over n survivors.

    One draw covers as many rounds as fit in ``photons._BLOCK`` variates,
    and at least one (a longer round is drawn in block-sized pieces); round
    i of it reads n - i flags, each True for a variate below 1/2.  An empty
    subset ends the rounds: the flags drawn after it are given back, so that
    the next draw starts with its redraw.
    """
    offsets = [0, n]  # round i reads flags offsets[i] to offsets[i + 1]
    for i in range(1, rounds):
        if offsets[-1] + n - i > photons._BLOCK:
            break
        offsets.append(offsets[-1] + n - i)
    flags = np.empty(offsets[-1], dtype=bool)
    for lo, u in photons._blocks(rng, len(flags)):
        np.less(u, 0.5, out=flags[lo : lo + len(u)])
    for lo, hi in zip(offsets, offsets[1:]):
        subset = flags[lo:hi]
        if not subset.any():
            rng.unread(offsets[-1] - hi)
            return
        yield subset


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
    empty subset is redrawn the same way.  A round takes one of two paths,
    chosen from its survivor count L_r and error count K_r:

    - *sparse*: no transcript, and K_r * ``_SPARSE`` < L_r or a mismatch
      already recorded (:func:`_sparse_round`).  It reads a head of its
      variates, then one variate at each error rank, and skips the rest:
      O(1 + K_r) generator calls instead of L_r variates.  With no error
      left, or once a mismatch is recorded, when only the first chosen
      rank matters, only the head is read.  An empty head sends the round
      to the block path.
    - *block*: every other round (:func:`_block_rounds`).  One draw covers
      as many consecutive rounds as fit in :data:`qkdsim.photons._BLOCK`
      variates, and at least one; the rounds are then read one at a time.

    Every path leaves ``rng`` where a round-by-round draw would leave it.

    ``transcript`` is the session's published list of entry dicts (see
    :attr:`qkdsim.session.Session.transcript`); each round appends its
    query, with the subset's positions ascending, and the response
    (:func:`qkdsim.transcript.parity_round`).
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
    done = 0
    while done < m:
        n = len(survivors)
        sparse = None
        if transcript is None and detection_round is not None:
            sparse = _sparse_round(rng, n, wrong[:0])  # parities no longer matter
        elif transcript is None and wrong.size * _SPARSE < n:
            sparse = _sparse_round(rng, n, wrong)
        # One sparse round, or the rounds of one block draw, one at a time.
        for subset in (None,) if sparse else _block_rounds(rng, n, m - done):
            done += 1
            if subset is None:
                first, odd = sparse
            else:
                first = int(np.argmax(subset))
                odd = wrong.size and np.count_nonzero(subset.take(wrong)) & 1
                if transcript is not None:
                    picked = survivors[subset]
                    parity = int(np.count_nonzero(bob.take(picked))) & 1
                    transcript += parity_round(done, picked, parity)
            if odd and detection_round is None:
                detection_round = done
            if wrong.size:
                wrong = wrong[wrong != first]
                wrong -= wrong > first
            # survivors ascend, so the first chosen one is the lowest index;
            # discard it: shift the ones before it up by one
            survivors[1 : first + 1] = survivors[:first]
            survivors = survivors[1:]
    return CertificationResult(
        rounds=m,
        mismatch_detected=detection_round is not None,
        final_key_length=len(survivors),
        detection_round=detection_round,
        survivors=survivors,
        differing=len(wrong),
    )
