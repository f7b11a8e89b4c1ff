"""Adversary models: in-channel interception and transcript-only listening.

Two attacker positions are modelled.  An *active* attacker sits on the
optical line, measures photons with her own filter and retransmits
something (:class:`InterceptResend`, :class:`StuckFilter`).  A *passive*
attacker reads only the public discussion (:class:`PassiveClassical`);
:func:`passive_infer` computes everything such an attacker can claim about
the key material, position by position.

Active attacks run through a :class:`ChannelTap`, which receives each
photon exactly once, in transmission order — the attacker cannot clone,
reorder or delay.  All attacker randomness comes from her own stream, so an
``InterceptResend`` with ``fraction=0`` leaves the honest parties' variate
streams, and hence the whole session, bit-for-bit unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

from .photons import (
    MeasurementOutcome,
    Polarization,
    ResendPolicy,
    THREE_STATE_ALPHABET,
    THREE_STATE_FILTERS,
    collapse_and_resend,
    consistent_inputs,
    has_deterministic_outcome,
    measure,
    measure_arrival,
)
from .rng import RandomSource


@dataclass(frozen=True)
class NoAttack:
    """Honest channel; photons pass through untouched."""


@dataclass(frozen=True)
class PassiveClassical:
    """Reads the public transcript only; never touches a photon."""


@dataclass(frozen=True)
class InterceptResend:
    """Measure-and-resend attack on a fraction of the photons.

    ``filter_choice`` fixes the attacker's filter angle; ``None`` means a
    fresh uniform choice from the protocol's filter set for every
    intercepted photon.  ``resend`` governs the erasure branch only — a
    detection is always retransmitted at the collapsed angle.
    """

    filter_choice: Optional[Polarization] = None
    resend: ResendPolicy = ResendPolicy.ORTHOGONAL_INFERENCE
    fraction: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must lie in [0, 1], got {self.fraction}")


@dataclass(frozen=True)
class StuckFilter:
    """An in-line filter jammed at one angle, intercepting every photon.

    The hardware-fault-turned-attack scenario: operationally identical to
    :class:`InterceptResend` with a fixed filter, orthogonal-inference
    resend and fraction 1.
    """

    angle: Polarization = Polarization.Z0

    def as_intercept_resend(self) -> InterceptResend:
        return InterceptResend(
            filter_choice=self.angle,
            resend=ResendPolicy.ORTHOGONAL_INFERENCE,
            fraction=1.0,
        )


Attack = Union[NoAttack, PassiveClassical, InterceptResend, StuckFilter]


def normalize_attack(attack: Attack) -> Attack:
    """Collapse equivalent attack descriptions to a canonical form."""
    if isinstance(attack, StuckFilter):
        return attack.as_intercept_resend()
    return attack


class EveSource(Enum):
    PHOTON = "photon"
    TRANSCRIPT = "transcript"


@dataclass(frozen=True)
class EveRecord:
    """What the attacker holds about one transmission slot.

    ``known_bit`` is set only when her evidence pins the sent state down to
    a single alphabet member; it is ``None`` whenever two or more states
    remain consistent.
    """

    index: int
    source: EveSource
    filter_used: Optional[Polarization] = None
    outcome: Optional[MeasurementOutcome] = None
    known_bit: Optional[Polarization] = None


def intercept_resend(
    photon: Optional[Polarization],
    strategy: InterceptResend,
    rng: RandomSource,
    filter_set: Sequence[Polarization] = THREE_STATE_FILTERS,
    alphabet: Sequence[Polarization] = THREE_STATE_ALPHABET,
    index: int = 0,
) -> tuple[Optional[Polarization], EveRecord]:
    """One photon through the attacker's measurement station.

    With probability ``strategy.fraction`` the photon is measured with her
    filter and something is resent per the resend policy; otherwise it
    passes untouched.  Returns what continues down the line plus her record
    of the event.  ``known_bit`` uses only her local evidence (filter +
    outcome), never the later public discussion.
    """
    if not rng.below(strategy.fraction):
        return photon, EveRecord(index, EveSource.PHOTON)
    filter_angle = strategy.filter_choice
    if filter_angle is None:
        filter_angle = rng.choice(tuple(filter_set))
    outcome = measure_arrival(photon, filter_angle, rng)
    resent = collapse_and_resend(outcome, filter_angle, strategy.resend, rng, tuple(alphabet))
    candidates = consistent_inputs(filter_angle, outcome, tuple(alphabet))
    known = candidates[0] if len(candidates) == 1 else None
    return resent, EveRecord(index, EveSource.PHOTON, filter_angle, outcome, known)


class ChannelTap:
    """The attacker's seat on the line between sender and receiver.

    Calling the tap with the photon currently in flight returns whatever
    continues towards the receiver (``None`` when nothing does).  All
    randomness comes from ``rng``, which must be the attacker's private
    stream.  Set ``record=True`` to accumulate per-photon
    :class:`EveRecord` entries (off by default: large sweeps do not need
    them).
    """

    def __init__(
        self,
        attack: Attack,
        filter_set: Sequence[Polarization],
        alphabet: Sequence[Polarization],
        rng: RandomSource,
        record: bool = False,
    ) -> None:
        self.attack = normalize_attack(attack)
        self.filter_set = tuple(filter_set)
        self.alphabet = tuple(alphabet)
        self.rng = rng
        self.record = record
        self.records: list[EveRecord] = []
        self.photons_seen = 0
        self.photons_intercepted = 0
        self.active = isinstance(self.attack, InterceptResend)

    def __call__(self, photon: Optional[Polarization]) -> Optional[Polarization]:
        index = self.photons_seen
        self.photons_seen += 1
        if not self.active:
            return photon
        if self.record:
            resent, rec = intercept_resend(
                photon, self.attack, self.rng, self.filter_set, self.alphabet, index
            )
            self.records.append(rec)
            if rec.filter_used is not None:
                self.photons_intercepted += 1
            return resent
        # Hot path: same draws as intercept_resend, no record object.
        attack: InterceptResend = self.attack
        rng = self.rng
        if not rng.below(attack.fraction):
            return photon
        self.photons_intercepted += 1
        filter_angle = attack.filter_choice
        if filter_angle is None:
            filter_angle = rng.choice(self.filter_set)
        outcome = measure_arrival(photon, filter_angle, rng)
        return collapse_and_resend(outcome, filter_angle, attack.resend, rng, self.alphabet)


def consistent_sent_states(
    filter_angle: Polarization,
    kept: bool,
    alphabet: Sequence[Polarization] = THREE_STATE_ALPHABET,
) -> tuple[Polarization, ...]:
    """Alphabet states consistent with one (announced filter, kept?) pair.

    The keep/discard rule is public — a position is kept exactly when
    (sent, filter) has a deterministic outcome — so anyone can run it
    backwards.  This is the exhaustive-consistency primitive behind
    :func:`passive_infer` and the security property tests.
    """
    return tuple(
        s for s in alphabet if has_deterministic_outcome(s, filter_angle) == kept
    )


def passive_infer(
    transcript, alphabet: Sequence[Polarization] = THREE_STATE_ALPHABET
) -> list[EveRecord]:
    """Everything a transcript-only attacker can claim about the key material.

    For each position she knows the receiver's announced filter and whether
    the sender kept it.  A kept position determines the sent state exactly
    when a single alphabet member survives the consistency check — for the
    three-state alphabet that happens only at kept diagonal-filter
    (authentication) positions, where the state is forced.  Kept
    rectilinear-filter positions always leave both key states open, which
    is the protocol's security claim for the key bits.

    Discarded positions yield no ``known_bit``: they carry no key or
    authentication material, so the attacker's knowledge of them is
    irrelevant to the session (deliberately not claimed here).
    """
    filters = transcript.announced_filters()
    kept = set(transcript.kept_positions())
    records = []
    for i, f in enumerate(filters):
        known = None
        if i in kept:
            candidates = consistent_sent_states(f, True, alphabet)
            if len(candidates) == 1:
                known = candidates[0]
        records.append(EveRecord(i, EveSource.TRANSCRIPT, f, None, known))
    return records


@dataclass(frozen=True)
class StuckFilterStats:
    """Outcome tally for an attacker measuring everything at one fixed angle."""

    n: int
    angle: Polarization
    detected: int
    erasures: int
    determined: int

    @property
    def detected_frequency(self) -> Optional[float]:
        return self.detected / self.n if self.n else None

    @property
    def erasure_frequency(self) -> Optional[float]:
        return self.erasures / self.n if self.n else None

    @property
    def determined_fraction(self) -> Optional[float]:
        return self.determined / self.n if self.n else None


def stuck_filter_stats(
    n: int, angle: Polarization, rng: RandomSource
) -> StuckFilterStats:
    """Measure a three-state transmission entirely at one rectilinear angle.

    Simulates the sender's uniform three-state source and tallies what a
    filter stuck at ``angle`` records: the detected/erasure split and how
    many positions her outcome alone pins to a unique sent state (none, for
    this alphabet — each outcome stays consistent with two states).
    """
    if angle not in (Polarization.Z0, Polarization.Z90):
        raise ValueError("a stuck filter is fixed at 0 or 90 degrees")
    detected = 0
    determined = 0
    alphabet = THREE_STATE_ALPHABET
    for _ in range(n):
        sent = rng.choice(alphabet)
        outcome = measure(sent, angle, rng)
        if outcome.is_detected:
            detected += 1
        if len(consistent_inputs(angle, outcome, alphabet)) == 1:
            determined += 1
    return StuckFilterStats(n, angle, detected, n - detected, determined)
