"""Closed-form analysis of both protocols, in exact rational arithmetic.

The channel is enumerated in one place, :func:`cell_probabilities`: the
exact law of one tick over the 32 cells that
:attr:`~qkdsim.session.Session.cells` counts, under any attack, read off
the tables of :mod:`qkdsim.photons`.  Probabilities stay
:class:`~fractions.Fraction` until the caller asks for floats.  Everything
else is read off that law:

* the rates (:func:`kept_fraction`, :func:`key_fraction`,
  :func:`auth_fraction`) and the per-position attack statistics
  (:func:`auth_failure_probability`, :func:`key_error_probability`) are
  read off one product of its integer counts with the ``marks`` matrix of
  :func:`~qkdsim.session.cell_table`, the product the trial reports count
  with;
* the joint law of (sent state, receiver reading),
  :func:`joint_distribution`, is its honest form folded by
  :func:`~qkdsim.session.outcome_rows`, the fold the reports' outcome
  tallies use, and the entropies (:func:`entropy_report`) are read off
  that joint law.

Entropies stay symbolic too: every probability in play is of the form
2^a·3^b, so any entropy is an exact rational combination
``q + r·log2(3)`` (:class:`ExactBits`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

import numpy as np

from .eavesdrop import Attack, NoAttack, station
from .photons import (
    ERASURE,
    OUTCOME_CLASSES,
    PASS_HALVES,
    POLARIZATIONS,
    THREE_STATE,
    MeasurementOutcome,
    Polarization,
    Protocol,
    detected,
    resend_table,
)
from .session import CELLS, cell_table, outcome_rows

LOG2_3 = math.log2(3)


# ---------------------------------------------------------------------------
# Exact entropy bookkeeping: values of the form q + r·log2(3)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactBits:
    """An exact quantity of bits: ``constant + log3_coefficient * log2(3)``.

    Closed under the operations entropy calculations need, because all
    channel probabilities factor as 2^a·3^b.
    """

    constant: Fraction = Fraction(0)
    log3_coefficient: Fraction = Fraction(0)

    def __float__(self) -> float:
        return float(self.constant) + float(self.log3_coefficient) * LOG2_3

    def __add__(self, other: "ExactBits") -> "ExactBits":
        return ExactBits(
            self.constant + other.constant,
            self.log3_coefficient + other.log3_coefficient,
        )

    def __sub__(self, other: "ExactBits") -> "ExactBits":
        return ExactBits(
            self.constant - other.constant,
            self.log3_coefficient - other.log3_coefficient,
        )

    def scaled(self, factor: Union[int, Fraction]) -> "ExactBits":
        return ExactBits(self.constant * factor, self.log3_coefficient * factor)

    def to_jsonable(self) -> dict:
        return {
            "constant": str(self.constant),
            "log3_coefficient": str(self.log3_coefficient),
            "bits": float(self),
            "bits_4dp": round(float(self), 4),
        }


def exact_log2(x: Fraction) -> ExactBits:
    """log2 of a positive rational whose only prime factors are 2 and 3."""
    if x <= 0:
        raise ValueError("logarithm of a non-positive value")

    def split(k: int) -> tuple[int, int, int]:
        twos = threes = 0
        while k % 2 == 0:
            k //= 2
            twos += 1
        while k % 3 == 0:
            k //= 3
            threes += 1
        return k, twos, threes

    rest_n, twos_n, threes_n = split(x.numerator)
    rest_d, twos_d, threes_d = split(x.denominator)
    if rest_n != 1 or rest_d != 1:
        raise ValueError(f"{x} is not of the form 2^a·3^b; no exact log2")
    return ExactBits(Fraction(twos_n - twos_d), Fraction(threes_n - threes_d))


def entropy_bits(probabilities: Iterable[Fraction]) -> ExactBits:
    """Shannon entropy of an exact distribution, symbolically."""
    total = ExactBits()
    for p in probabilities:
        if p < 0:
            raise ValueError("negative probability")
        if p == 0:
            continue
        total = total + exact_log2(p).scaled(-p)
    return total


# ---------------------------------------------------------------------------
# The honest three-state channel: joint distribution and entropies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JointDistribution:
    """Exact joint law of (sent state, receiver outcome class)."""

    cells: dict[tuple[Polarization, MeasurementOutcome], Fraction]
    senders: tuple[Polarization, ...]
    outcomes: tuple[MeasurementOutcome, ...]

    def probability(self, sent: Polarization, outcome: MeasurementOutcome) -> Fraction:
        return self.cells.get((sent, outcome), Fraction(0))

    def total(self) -> Fraction:
        return sum(self.cells.values(), Fraction(0))

    def sender_marginal(self) -> dict[Polarization, Fraction]:
        out = {s: Fraction(0) for s in self.senders}
        for (s, _), p in self.cells.items():
            out[s] += p
        return out

    def receiver_marginal(self) -> dict[MeasurementOutcome, Fraction]:
        out = {o: Fraction(0) for o in self.outcomes}
        for (_, o), p in self.cells.items():
            out[o] += p
        return out


def joint_distribution(protocol: Protocol = THREE_STATE) -> JointDistribution:
    """Exact joint law of (sent state, receiver reading): the honest cell law, folded.

    The receiver outcome classes are one detection class per filter angle
    plus the erasure class (the filter identity is public, the reading is
    not, so "detected at 45°" and "erasure" are the receiver's datum).
    Every pair appears, those of mass 0 included.
    """
    rows = outcome_rows(cell_probabilities(protocol))
    outcomes = tuple(detected(f) for f in protocol.filters) + (ERASURE,)
    cells = {
        (s, o): rows[POLARIZATIONS.index(s)][OUTCOME_CLASSES.index(o)]
        for s in protocol.alphabet
        for o in outcomes
    }
    return JointDistribution(cells, protocol.alphabet, outcomes)


@dataclass(frozen=True)
class EntropyReport:
    """The channel's information accounting, exact and in floats.

    ``mutual_info`` is what the receiver's datum reveals about the sent
    state; its complement ``equivocation`` (the conditional entropy of the
    sent state given the datum) is the per-photon uncertainty an observer
    of one end retains.
    """

    h_a: ExactBits
    h_b: ExactBits
    h_ab: ExactBits
    mutual_info: ExactBits

    @property
    def equivocation(self) -> ExactBits:
        return self.h_ab - self.h_b


def entropy_report() -> EntropyReport:
    """Entropies of sender, receiver and pair of the honest three-state
    channel, plus their mutual information."""
    joint = joint_distribution()
    h_a = entropy_bits(joint.sender_marginal().values())
    h_b = entropy_bits(joint.receiver_marginal().values())
    h_ab = entropy_bits(joint.cells.values())
    return EntropyReport(h_a=h_a, h_b=h_b, h_ab=h_ab, mutual_info=h_a + h_b - h_ab)


# ---------------------------------------------------------------------------
# Rates: keep/key/auth fractions and the staged information-rate chain
# ---------------------------------------------------------------------------


def kept_fraction(protocol: Protocol = THREE_STATE) -> Fraction:
    """Probability a uniform (sent, filter) position survives keep/discard."""
    masses, whole = _marked(protocol)
    return Fraction(masses[0], whole)


def key_fraction(protocol: Protocol = THREE_STATE) -> Fraction:
    """Kept positions off the authentication filter: the secret-bit rate."""
    masses, whole = _marked(protocol)
    return Fraction(masses[1], whole)


def auth_fraction(protocol: Protocol = THREE_STATE) -> Fraction:
    """Kept positions under the authentication filter: the tamper-evidence rate."""
    masses, whole = _marked(protocol)
    return Fraction(masses[2], whole)


@dataclass(frozen=True)
class InformationRateChain:
    """Per-photon information budget, narrowed in three stages.

    Start from the receiver-side equivocation of 4/3 bits per photon; drop
    the third of photons that only ever serve authentication (x 2/3); let
    the binary detect-or-erase reading resolve half of what remains (x 1/2).
    The end of the chain must equal the key rate computed by counting
    confirmed rectilinear positions — the two derivations agree at 4/9.
    """

    per_photon_uncertainty: Fraction
    after_auth_exclusion: Fraction
    usable_key_rate: Fraction


def information_rate_chain() -> InformationRateChain:
    report = entropy_report()
    equivocation = report.equivocation
    if equivocation.log3_coefficient != 0:
        raise AssertionError("equivocation should be purely rational")
    start = equivocation.constant
    after_exclusion = start * Fraction(2, 3)
    final = after_exclusion * Fraction(1, 2)
    if final != key_fraction(THREE_STATE):
        raise AssertionError("rate chain must land on the counting-based key rate")
    return InformationRateChain(start, after_exclusion, final)


# ---------------------------------------------------------------------------
# Protocol comparison: key counts and certification confidence
# ---------------------------------------------------------------------------


def three_state_certification_probability(n: int) -> float:
    """Model curve 1 - 3^(-n/9) for detecting a full intercept.

    Idealized: assumes one authentication position per nine photons and a
    certain alarm whenever the interceptor's filter was not the diagonal
    one.  Concrete resend policies alarm less often (see
    :func:`auth_failure_probability`); this curve is reported next to the
    enumerated truth, never asserted against it.
    """
    if n < 0:
        raise ValueError(f"n: photon count must be non-negative, got {n}")
    return 1.0 - 3.0 ** (-(n / 9))


def bb84_certification_probability(m: int) -> float:
    """1 - 2^(-m): each parity round halves the chance of missing an error."""
    if m < 0:
        raise ValueError(f"m: round count must be non-negative, got {m}")
    return 1.0 - 2.0 ** (-m)


def equal_confidence_rounds(n: int) -> float:
    """Parity rounds m at which both certification curves coincide.

    Solves 2^-m = 3^(-n/9): m = n·log2(3)/9 ≈ 0.176·n.  More rounds than
    this favours the parity approach on confidence (at a key-length cost).
    """
    return n * LOG2_3 / 9


@dataclass(frozen=True)
class RateComparison:
    """Both protocols' yields at the same photon budget, exactly."""

    n: int
    m: int
    three_state_key: Fraction
    bb84_key: Fraction
    three_state_cert: float
    bb84_cert: float
    crossover_n: int

    @property
    def key_advantage(self) -> Fraction:
        """Three-state key bits minus the baseline's (positive ⇔ n < 18m)."""
        return self.three_state_key - self.bb84_key

    @property
    def favored_on_key(self) -> str:
        if self.key_advantage > 0:
            return "three_state"
        if self.key_advantage < 0:
            return "bb84"
        return "tie"


def compare(n: int, m: int) -> RateComparison:
    """Key counts and certification confidence for both protocols.

    The expected key counts 4n/9 and n/2 - m meet exactly at n = 18m; below
    the crossover the three-state protocol yields more bits.
    """
    if n < 1:
        raise ValueError(f"n: need at least one photon, got {n}")
    if m < 0:
        raise ValueError(f"m: round count must be non-negative, got {m}")
    return RateComparison(
        n=n,
        m=m,
        three_state_key=Fraction(4 * n, 9),
        bb84_key=Fraction(n, 2) - m,
        three_state_cert=three_state_certification_probability(n),
        bb84_cert=bb84_certification_probability(m),
        crossover_n=18 * m,
    )


# ---------------------------------------------------------------------------
# Attack enumeration oracles
# ---------------------------------------------------------------------------


def _interception(attack: Attack, protocol: Protocol) -> tuple[Fraction, np.ndarray, int]:
    """The attacked share of photons, and what an attacked photon becomes.

    ``counts[s, a] / scale`` is the chance that an intercepted photon sent as
    ``POLARIZATIONS[s]`` leaves her station as ``POLARIZATIONS[a]``, or as
    nothing for ``a = 4``.  Her filter is uniform over her options; she
    detects per the exact pass table and resends a detection at her filter
    angle, an erasure as an equally likely entry of her filter's row of
    :func:`~qkdsim.photons.resend_table`, whose -1 is the last column.
    """
    attack = station(attack)
    counts = np.zeros((len(POLARIZATIONS), len(POLARIZATIONS) + 1), dtype=np.int64)
    if attack is None:
        return Fraction(0), counts, 1
    options = protocol.filters if attack.filter_choice is None else (attack.filter_choice,)
    resend = resend_table(attack.resend, protocol.alphabet)
    width = resend.shape[1]
    for e in map(POLARIZATIONS.index, options):
        counts[:, e] += width * PASS_HALVES[:, e]
        counts[:, resend[e]] += (2 - PASS_HALVES[:, e])[:, None]
    return Fraction(attack.fraction), counts, 2 * width * len(options)


def arrival_distribution(
    sent: Polarization, attack: Attack, protocol: Protocol = THREE_STATE
) -> dict[Optional[Polarization], Fraction]:
    """Exact law of what leaves the attacked channel (None = nothing).

    Weighs the interceptor's branches exactly: fraction gate, filter
    choice, her detect/erase outcome and her resend table row.
    """
    share, counts, scale = _interception(attack, protocol)
    row = counts[POLARIZATIONS.index(sent)].tolist()
    law = {a: share * Fraction(c, scale) for a, c in zip(POLARIZATIONS + (None,), row)}
    law[sent] += 1 - share
    return {a: p for a, p in law.items() if p}


def _cell_counts(protocol: Protocol, attack: Attack = NoAttack()) -> tuple[list[int], int]:
    """:func:`cell_probabilities` as integer numerators over one common denominator."""
    share, counts, scale = _interception(attack, protocol)
    # Detections of an intercepted photon, in units of 1 / (2 * scale).
    hits = (counts[:, : len(POLARIZATIONS)] @ PASS_HALVES).tolist()
    untouched = (share.denominator - share.numerator) * scale
    whole = 2 * scale * share.denominator
    law = [0] * CELLS
    for s in map(POLARIZATIONS.index, protocol.alphabet):
        for f in map(POLARIZATIONS.index, protocol.filters):
            detections = untouched * int(PASS_HALVES[s, f]) + share.numerator * hits[s][f]
            cell = (4 * s + f) * 2
            law[cell], law[cell + 1] = whole - detections, detections
    return law, whole * len(protocol.alphabet) * len(protocol.filters)


def cell_probabilities(protocol: Protocol, attack: Attack = NoAttack()) -> list[Fraction]:
    """Exact law of one tick over the 32 cells of :attr:`Session.cells`.

    Entry ``(4 * sent + filter) * 2 + detected`` is the chance that a tick
    sends ``POLARIZATIONS[sent]``, is read through ``POLARIZATIONS[filter]``
    and detects (1) or erases (0): the sender and the receiver choose
    uniformly from the spec, and the photon reaches the receiver per
    :func:`arrival_distribution`.  Cells outside the spec have mass 0.
    Counted in integers over one common denominator, then reduced.
    """
    law, denominator = _cell_counts(protocol, attack)
    return [Fraction(count, denominator) for count in law]


def _marked(protocol: Protocol, attack: Attack = NoAttack()) -> tuple[list[int], int]:
    """The law's kept, key, auth, auth failure and key error masses, as
    integer numerators over its common denominator: one product with the
    cell table's ``marks``, as a session counts its histogram, but over
    Python ints, since a tiny fraction's denominator outgrows ``int64``."""
    law, denominator = _cell_counts(protocol, attack)
    return (cell_table(protocol).marks @ np.array(law, dtype=object)).tolist(), denominator


def oracle_rates(
    attack: Attack, protocol: Protocol = THREE_STATE
) -> tuple[Optional[Fraction], Fraction]:
    """:func:`auth_failure_probability` and :func:`key_error_probability`
    off one exact cell law; the first is ``None`` for a spec without
    authentication positions.  Both are ratios of cell masses, so the law's
    integer masses are taken and the common denominator cancels."""
    (_, key, auth, auth_failure, key_error), _ = _marked(protocol, attack)
    failure = Fraction(auth_failure, auth) if auth else None
    return failure, Fraction(key_error, key)


def auth_failure_probability(attack: Attack) -> Fraction:
    """Chance one three-state authentication position alarms (an erasure
    where a detection is forced), per the exact cell law.  Scales linearly
    with the attacked fraction, since untouched photons never alarm there."""
    failure, _ = oracle_rates(attack)
    assert failure is not None  # the three-state spec has auth positions
    return failure


def key_error_probability(attack: Attack, protocol: Protocol = THREE_STATE) -> Fraction:
    """Chance a kept key position silently yields disagreeing bits.

    Key positions are kept (sent, filter) pairs whose filter is not the
    authentication filter, which for the three-state spec are the four
    rectilinear x rectilinear cells.  These errors raise no alarm at the
    position itself — which is exactly why the three-state diagonal
    positions carry the tamper check.
    """
    return oracle_rates(attack, protocol)[1]


def model_auth_failure_rate(fraction: Union[float, Fraction]) -> Fraction:
    """The idealized per-authentication-position alarm rate, 2/3 x fraction.

    2/3 is the chance the interceptor's uniform filter choice is not the
    diagonal one, counted as a certain alarm — the model curve reported
    alongside enumerated and empirical values in sweep tables.
    """
    return Fraction(2, 3) * Fraction(fraction)


# ---------------------------------------------------------------------------
# Sampling error of the Monte Carlo estimates
# ---------------------------------------------------------------------------


def standard_error(p: float, trials: int) -> float:
    """Binomial standard error of a frequency estimate."""
    if trials <= 0:
        raise ValueError("need a positive sample size")
    return math.sqrt(p * (1.0 - p) / trials)
