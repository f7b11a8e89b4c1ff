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
:func:`parity_certify`): *head*, a round without a transcript whose parity
cannot matter (no error left, or a mismatch already recorded), which reads
only its first chosen rank, or *block*, one draw of several rounds read one
at a time.  Both draw the same variates, in the same order, as a
round-by-round draw of one variate per survivor.  A transcript's query and
response entries are written by :func:`qkdsim.transcript.parity_round`.
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


def _head_round(rng: RandomSource, n: int) -> Optional[int]:
    """A round over n survivors of which only the first chosen rank matters.

    The first ``_HEAD`` flags are drawn and the rest of the round skipped;
    the first chosen rank among them is returned.  If none is chosen, the
    head is given back and ``None`` returned, for the round to be drawn in
    full.
    """
    head = rng.uniform_array(min(n, _HEAD)) < 0.5
    if not head.any():
        rng.unread(len(head))
        return None
    rng.skip(n - len(head))
    return int(np.argmax(head))


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
    empty subset is redrawn the same way.  A round takes one of two paths:

    - *head*: no transcript, and no error left or a mismatch already
      recorded, so that only the round's first chosen rank matters
      (:func:`_head_round`).  It reads the first ``_HEAD`` variates and
      skips the rest; an empty head sends the round to the block path.
    - *block*: every other round (:func:`_block_rounds`).  One draw covers
      as many consecutive rounds as fit in :data:`qkdsim.photons._BLOCK`
      variates, and at least one; the rounds are then read one at a time.

    Both paths leave ``rng`` where a round-by-round draw would leave it.

    ``transcript`` is the session's published list of entry dicts (see
    :attr:`qkdsim.session.Session.transcript`); each round appends its
    query, with the subset's positions ascending, and the response
    (:func:`qkdsim.transcript.parity_round`).
    """
    if m < 0:
        raise ValueError(f"m: round count must be non-negative, got {m}")
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
        head = None
        if transcript is None and (detection_round is not None or not wrong.size):
            head = _head_round(rng, n)  # the parities no longer matter
        # One head round, or the rounds of one block draw, one at a time.
        for subset in _block_rounds(rng, n, m - done) if head is None else (None,):
            done += 1
            first, odd = head, 0
            if subset is not None:
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
