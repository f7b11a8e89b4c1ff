"""The photon-by-photon reference path that the array engine is held to.

Every function here spends variates one at a time, in the order the
protocol describes, and states its rule directly: the resend policies are
branches of :func:`collapse_and_resend`, not reads of the engine's
:func:`~qkdsim.photons.resend_table`.  The tests compare
:func:`qkdsim.session.run_session` and
:func:`qkdsim.eavesdrop.intercept_session` with these loops draw for draw,
so a fault in a shared table shows as a disagreement.  :func:`cell_law`
enumerates the same branches with exact rationals, as the reference for
:func:`qkdsim.analysis.cell_probabilities`, and :func:`joint_law` the
honest (sent state, reading) pairs, as the reference for
:func:`qkdsim.analysis.joint_distribution`.

The engine keeps index arrays only.  :func:`states`, :func:`readings` and
:func:`eve_log` turn them back into the objects these loops speak in, for
the golden session records, whose pinned text is their ``repr``; so does
:class:`TamperReport` for the tamper block that
:func:`qkdsim.three_state.tamper_report` publishes.  The attacker's records
(:class:`EveRecord`) and what a transcript-only attacker can claim
(:func:`passive_infer`) live here too: no program path reads them.
:class:`CountingSource` logs the draws a stream serves.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from qkdsim.eavesdrop import InterceptResend, station
from qkdsim.photons import (
    DETERMINISTIC,
    ERASURE,
    POLARIZATIONS,
    THREE_STATE_ALPHABET,
    THREE_STATE_FILTERS,
    MeasurementOutcome,
    Polarization,
    Protocol,
    ResendPolicy,
    detected,
    detection_probability,
)
from qkdsim.rng import RandomSource
from qkdsim.transcript import Transcript


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


@dataclass(frozen=True)
class TamperReport:
    """The three-state tamper verdict, as the golden session records pin it."""

    auth_checked: int
    auth_failures: int
    tamper_detected: bool
    model_certification: float


def tamper_verdict(checked: int, failures: int) -> TamperReport:
    """The reference verdict for :func:`qkdsim.three_state.tamper_report`, from its rule.

    Any erasure at an authentication position alarms; the model curve
    1 - 3^(-checked) is rounded once from its exact value.
    """
    return TamperReport(checked, failures, failures > 0, float(1 - Fraction(1, 3**checked)))


def uniforms(rng: RandomSource, k: int) -> list[float]:
    """The next ``k`` variates of ``rng`` as a list."""
    return rng.uniform_array(k).tolist()


def below(rng: RandomSource, p: float) -> bool:
    """True with probability ``p``; consumes exactly one variate."""
    return rng.uniform() < p


def choice(rng: RandomSource, seq):
    """Uniform element of ``seq``; consumes exactly one variate."""
    return seq[int(rng.uniform() * len(seq))]


def measure(
    photon: Polarization, filter_angle: Polarization, rng: RandomSource
) -> MeasurementOutcome:
    """Send one photon through a filter and read the detector.

    A pure function of (photon, filter, next variate): exactly one variate is
    consumed per call, even when the outcome is deterministic, so replaying a
    RandomSource reproduces the identical outcome sequence.
    """
    if below(rng, float(detection_probability(photon, filter_angle))):
        return detected(filter_angle)
    return ERASURE


def measure_arrival(
    photon: Optional[Polarization], filter_angle: Polarization, rng: RandomSource
) -> MeasurementOutcome:
    """Like :func:`measure`, but the clock tick may carry no photon at all.

    An empty tick (``photon is None``, e.g. an interceptor absorbed the
    photon and sent nothing) is always an erasure and consumes no variate.
    """
    if photon is None:
        return ERASURE
    return measure(photon, filter_angle, rng)


def infer_polarization(
    filter_angle: Polarization, outcome: MeasurementOutcome
) -> Polarization:
    """The receiver's estimate of the sent state from one clocked reading.

    A detection collapses the photon to the filter angle, so that is the
    estimate; an erasure is read as the state orthogonal to the filter.  The
    estimate is guaranteed correct only at positions where the sender later
    vouches that (sent, filter) had a deterministic outcome.
    """
    if outcome.is_detected:
        return outcome.detected_as  # type: ignore[return-value]
    return filter_angle.orthogonal


def consistent_inputs(
    filter_angle: Polarization,
    outcome: MeasurementOutcome,
    alphabet: tuple[Polarization, ...],
) -> tuple[Polarization, ...]:
    """All alphabet states that could have produced ``outcome`` under this filter.

    Used to ask whether a measurement record pins down the sender's state:
    it does exactly when one state remains.
    """
    if outcome.is_detected and outcome.detected_as is not filter_angle:
        raise ValueError("a detection always matches the filter that produced it")
    if outcome.is_detected:
        return tuple(p for p in alphabet if detection_probability(p, filter_angle) > 0)
    return tuple(p for p in alphabet if detection_probability(p, filter_angle) < 1)


def collapse_and_resend(
    outcome: MeasurementOutcome,
    filter_angle: Polarization,
    policy: ResendPolicy,
    rng: RandomSource,
    alphabet: tuple[Polarization, ...] = THREE_STATE_ALPHABET,
) -> Optional[Polarization]:
    """What leaves an intercepting measurement station.

    A detected photon is retransmitted at the filter angle it collapsed to;
    an erasure is handled per ``policy``.  Returns ``None`` when nothing is
    resent.  Collapse destroys input information: the resent photon depends
    only on (outcome, filter), never on the original polarization.
    """
    if outcome.is_detected:
        return outcome.detected_as
    if policy is ResendPolicy.ORTHOGONAL_INFERENCE:
        return filter_angle.orthogonal
    if policy is ResendPolicy.SEND_NOTHING:
        return None
    return choice(rng, alphabet)


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
    if not below(rng, strategy.fraction):
        return photon, EveRecord(index, EveSource.PHOTON)
    filter_angle = strategy.filter_choice
    if filter_angle is None:
        filter_angle = choice(rng, tuple(filter_set))
    outcome = measure_arrival(photon, filter_angle, rng)
    resent = collapse_and_resend(outcome, filter_angle, strategy.resend, rng, tuple(alphabet))
    return resent, eve_record(index, filter_angle, outcome, alphabet)


def eve_record(index, filter_angle, outcome, alphabet) -> EveRecord:
    """Her record of one measured photon; ``known_bit`` only if one state stays consistent."""
    candidates = consistent_inputs(filter_angle, outcome, tuple(alphabet))
    known = candidates[0] if len(candidates) == 1 else None
    return EveRecord(index, EveSource.PHOTON, filter_angle, outcome, known)


def states(index) -> list[Polarization]:
    """The polarization at each position of an index array."""
    return [POLARIZATIONS[i] for i in index.tolist()]


def readings(filters, detected_mask) -> list[MeasurementOutcome]:
    """Each tick's reading: a detection at its filter, or an erasure."""
    ticks = zip(filters.tolist(), detected_mask.tolist())
    return [detected(POLARIZATIONS[f]) if hit else ERASURE for f, hit in ticks]


def eve_log(interception, alphabet) -> list[EveRecord]:
    """The attacker's log of a session, one record per tick; empty if she touched none."""
    if interception is None:
        return []
    filters = interception.filters
    ticks = enumerate(zip(filters.tolist(), readings(filters, interception.detected)))
    return [
        EveRecord(i, EveSource.PHOTON) if f < 0 else eve_record(i, POLARIZATIONS[f], o, alphabet)
        for i, (f, o) in ticks
    ]


def passive_infer(transcript: Sequence[dict], protocol: Protocol) -> list[EveRecord]:
    """Everything a transcript-only attacker can claim about the key material.

    For each position she knows the receiver's announced filter and whether
    the sender kept it.  The keep rule is public (a position is kept
    exactly when (sent, filter) reads deterministically, the
    ``DETERMINISTIC`` table), so she can run it backwards: a kept position
    determines the sent state exactly when a single alphabet member reads
    deterministically under its filter.  A transcript does not name its
    protocol, so the caller passes the one the sender drew from.  For the
    three-state alphabet a state is pinned only at kept diagonal-filter
    (authentication) positions.  Kept rectilinear-filter positions always
    leave both key states open, which is the protocol's security claim for
    the key bits.  Under BB84 every filter keeps two alphabet states, so
    nothing is pinned.

    Discarded positions yield no ``known_bit``: they carry no key or
    authentication material, so the attacker's knowledge of them is
    irrelevant to the session (deliberately not claimed here).

    ``transcript`` is the published list of entry dicts, as a report carries
    it and :attr:`qkdsim.session.Session.transcript` returns it; it is read
    with :class:`~qkdsim.transcript.Transcript`.
    """
    alphabet = protocol.alphabet
    rows = [POLARIZATIONS.index(s) for s in alphabet]
    pinned = {}
    for f, angle in enumerate(POLARIZATIONS):
        candidates = [alphabet[i] for i, keeps in enumerate(DETERMINISTIC[rows, f]) if keeps]
        pinned[angle] = candidates[0] if len(candidates) == 1 else None
    published = Transcript.from_jsonable(transcript)
    kept = set(published.kept_positions())
    return [
        EveRecord(i, EveSource.TRANSCRIPT, f, None, pinned[f] if i in kept else None)
        for i, f in enumerate(published.announced_filters())
    ]


def reference_parity_rounds(alice, bob, m, rng):
    """BB84's m parity rounds, one ``below`` draw per survivor per subset.

    Returns the surviving positions, the first round whose parities
    differ (or ``None``), and each round's (round, subset, receiver parity).
    """
    survivors = list(range(len(alice)))
    detection_round = None
    queries = []
    for round_number in range(1, m + 1):
        subset = [i for i in survivors if below(rng, 0.5)]
        while not subset:
            subset = [i for i in survivors if below(rng, 0.5)]
        parity_a = parity_b = 0
        for i in subset:
            parity_a ^= alice[i]
            parity_b ^= bob[i]
        queries.append((round_number, subset, parity_b))
        if parity_a != parity_b and detection_round is None:
            detection_round = round_number
        survivors.remove(subset[0])
    return survivors, detection_round, queries


class CountingSource(RandomSource):
    """A :class:`RandomSource` that logs the size of each bulk draw and
    counts its scalar draws, for tests of how the engine spends a stream."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = []  # variates per uniform_array call, in call order
        self.scalars = 0  # uniform calls

    def uniform(self):
        self.scalars += 1
        return super().uniform()

    def uniform_array(self, k):
        self.draws.append(k)
        return super().uniform_array(k)


def arrival_law(sent: Polarization, attack, protocol) -> dict[Optional[Polarization], Fraction]:
    """What leaves the attacker's station, by exact branch enumeration."""
    attack = station(attack)
    if attack is None:
        return {sent: Fraction(1)}
    fraction = Fraction(attack.fraction)
    law = {sent: 1 - fraction}
    options = protocol.filters if attack.filter_choice is None else (attack.filter_choice,)
    for eve_filter in options:
        w = fraction / len(options)
        p = detection_probability(sent, eve_filter)
        law[eve_filter] = law.get(eve_filter, 0) + w * p
        if attack.resend is ResendPolicy.ORTHOGONAL_INFERENCE:
            resent = (eve_filter.orthogonal,)
        elif attack.resend is ResendPolicy.SEND_NOTHING:
            resent = (None,)
        else:
            resent = protocol.alphabet
        for r in resent:
            law[r] = law.get(r, 0) + w * (1 - p) / len(resent)
    return {state: p for state, p in law.items() if p}


def cell_law(protocol, attack) -> list[Fraction]:
    """Exact chance of each cell ``(4 * sent + filter) * 2 + detected``, by enumeration."""
    law = [Fraction(0)] * 32
    w = Fraction(1, len(protocol.alphabet) * len(protocol.filters))
    for s in protocol.alphabet:
        arrivals = arrival_law(s, attack, protocol)
        for f in protocol.filters:
            cell = (4 * POLARIZATIONS.index(s) + POLARIZATIONS.index(f)) * 2
            for arriving, p_arrive in arrivals.items():
                p = 0 if arriving is None else detection_probability(arriving, f)
                law[cell] += w * p_arrive * (1 - p)
                law[cell + 1] += w * p_arrive * p
    return law


def joint_law(protocol) -> dict[tuple[Polarization, MeasurementOutcome], Fraction]:
    """Exact law of (sent state, receiver reading) on the honest channel, by enumeration.

    Keys run over the alphabet, then a detection at each filter and an
    erasure, zero mass included.
    """
    outcomes = tuple(detected(f) for f in protocol.filters) + (ERASURE,)
    law = {(s, o): Fraction(0) for s in protocol.alphabet for o in outcomes}
    w = Fraction(1, len(protocol.alphabet) * len(protocol.filters))
    for s in protocol.alphabet:
        for f in protocol.filters:
            p = detection_probability(s, f)
            law[s, detected(f)] += w * p
            law[s, ERASURE] += w * (1 - p)
    return law
