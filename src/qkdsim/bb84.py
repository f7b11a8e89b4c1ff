"""Four-state/two-filter key distribution with parity-round certification.

The baseline protocol: the sender transmits photons uniformly over all four
polarizations, the receiver filters at 0 or 45 degrees, and sifting keeps
the positions where the sent state's basis matches the filter's — exactly
the positions whose reading is deterministic, so the receiver's inference
is guaranteed there.  Tampering is caught afterwards by comparing odd
parities of random key subsets, paying one discarded bit per round.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Optional, Sequence

import numpy as np

from .eavesdrop import Attack, Intercepted, Interception, NoAttack, intercept_session
from .photons import (
    BB84_ALPHABET,
    BB84_FILTERS,
    BITS,
    MeasurementOutcome,
    Polarization,
    as_outcomes,
    as_polarizations,
    has_deterministic_outcome,
    inferred_index,
    transmit,
)
from .rng import RandomSource
from .transcript import Transcript


class KeyTooShort(ValueError):
    """Raised when a key cannot pay for the requested parity rounds."""


class NonPositiveKey(ValueError):
    """Raised when the expected usable key length is not positive."""


@dataclass(frozen=True, eq=False)
class BB84AliceState:
    """The sender's record: her polarization choices and their bit values."""

    sent_index: np.ndarray  # indices into POLARIZATIONS

    @cached_property
    def sent(self) -> list[Polarization]:
        return as_polarizations(self.sent_index)

    @property
    def bits(self) -> list[int]:
        return BITS[self.sent_index].tolist()


@dataclass(frozen=True, eq=False)
class BB84BobState:
    """The receiver's record: filter settings, raw readings, inferences."""

    filter_index: np.ndarray
    detected: np.ndarray

    @cached_property
    def filters(self) -> list[Polarization]:
        return as_polarizations(self.filter_index)

    @cached_property
    def outcomes(self) -> list[MeasurementOutcome]:
        return as_outcomes(self.filter_index, self.detected)

    @cached_property
    def inferred(self) -> list[Polarization]:
        return as_polarizations(inferred_index(self.filter_index, self.detected))


@dataclass(frozen=True, eq=False)
class SiftResult:
    kept_index: np.ndarray
    alice_bits: np.ndarray
    bob_bits: np.ndarray

    @cached_property
    def kept_indices(self) -> list[int]:
        return self.kept_index.tolist()

    @cached_property
    def alice_key(self) -> list[int]:
        return self.alice_bits.tolist()

    @cached_property
    def bob_key(self) -> list[int]:
        return self.bob_bits.tolist()


@dataclass(frozen=True, eq=False)
class BB84Run(Intercepted):
    """Everything produced by one transmission + sifting pass.

    Per-photon lists (``alice.sent``, ``bob.outcomes``, ...) and the
    transcript are built from the session's arrays on first read.
    """

    alice: BB84AliceState
    bob: BB84BobState
    sift: SiftResult
    interception: Optional[Interception] = None

    @cached_property
    def transcript(self) -> Transcript:
        transcript = Transcript()
        transcript.announce_filters(self.bob.filters)
        transcript.announce_kept(self.sift.kept_indices)
        return transcript


def sift_keeps(sent: Polarization, filter_angle: Polarization) -> bool:
    """The public keep rule: keep iff the reading is deterministic.

    Equivalent to "the filter's basis matches the sent state's basis".
    """
    return has_deterministic_outcome(sent, filter_angle)


def bb84_run(
    n: int,
    rng: RandomSource,
    attack: Attack = NoAttack(),
) -> BB84Run:
    """Simulate one session: transmit, measure, sift.

    The session source ``rng`` is never drawn from directly; the sender,
    receiver and attacker each own a derived child stream (indices 0, 1, 2;
    index 3 is reserved for the later certification rounds), so an attack
    cannot perturb the honest parties' choices.
    """
    if n < 1:
        raise ValueError("need at least one photon")
    alice_rng, bob_rng, eve_rng = rng.child(0), rng.child(1), rng.child(2)
    tap = partial(intercept_session, attack, BB84_FILTERS, BB84_ALPHABET, eve_rng)
    tx = transmit(BB84_ALPHABET, BB84_FILTERS, n, alice_rng, bob_rng, tap)
    kept = np.flatnonzero(tx.deterministic)
    inferred = inferred_index(tx.filters[kept], tx.detected[kept])
    return BB84Run(
        alice=BB84AliceState(tx.sent),
        bob=BB84BobState(tx.filters, tx.detected),
        sift=SiftResult(kept, BITS[tx.sent[kept]], BITS[inferred]),
        interception=tx.interception,
    )


@dataclass(frozen=True, eq=False)
class CertificationResult:
    """Outcome of the m parity rounds over a sifted key."""

    rounds: int
    mismatch_detected: bool
    bits_discarded: int
    final_key_length: int
    detection_round: Optional[int]
    survivors: np.ndarray  # surviving key positions, ascending

    @cached_property
    def surviving_positions(self) -> list[int]:
        return self.survivors.tolist()

    def surviving_bits(self, key: Sequence[int]) -> list[int]:
        """The key bits left after the per-round discards."""
        return [key[i] for i in self.surviving_positions]


def parity_certify(
    alice_key: Sequence[int],
    bob_key: Sequence[int],
    m: int,
    rng: RandomSource,
    transcript: Optional[Transcript] = None,
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

    A subset draw spends one variate per survivor, in position order, as
    one bulk draw; an empty subset is redrawn the same way.
    """
    if m < 0:
        raise ValueError("round count must be non-negative")
    if len(alice_key) != len(bob_key):
        raise ValueError("keys must have equal length")
    if len(alice_key) <= m:
        raise KeyTooShort(
            f"key of {len(alice_key)} bits cannot pay for {m} parity rounds"
        )
    alice = np.asarray(alice_key, dtype=np.int64)
    bob = np.asarray(bob_key, dtype=np.int64)
    survivors = np.arange(len(alice))
    detection_round: Optional[int] = None
    for round_number in range(1, m + 1):
        chosen = rng.uniform_array(len(survivors)) < 0.5
        while not chosen.any():
            chosen = rng.uniform_array(len(survivors)) < 0.5
        subset = survivors[chosen]
        parity_a = int(alice[subset].sum()) & 1
        parity_b = int(bob[subset].sum()) & 1
        if transcript is not None:
            transcript.parity_query(round_number, subset.tolist())
            transcript.parity_response(round_number, parity_b)
        if parity_a != parity_b and detection_round is None:
            detection_round = round_number
        # survivors ascend, so the first chosen one is the lowest index
        survivors = np.delete(survivors, int(np.argmax(chosen)))
    return CertificationResult(
        rounds=m,
        mismatch_detected=detection_round is not None,
        bits_discarded=m,
        final_key_length=len(survivors),
        detection_round=detection_round,
        survivors=survivors,
    )


def bb84_usable_key(n: int, m: int) -> Fraction:
    """Expected usable key length: half the photons sift, minus m discards.

    Exact rational; display rounding is the caller's choice.
    """
    if n < 1:
        raise ValueError("need at least one photon")
    if m < 0:
        raise ValueError("round count must be non-negative")
    expected = Fraction(n, 2) - m
    if expected <= 0:
        raise NonPositiveKey(f"n={n}, m={m} leaves no expected key")
    return expected
