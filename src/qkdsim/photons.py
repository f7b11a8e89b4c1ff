"""Discrete polarizing-filter physics for single photons.

A photon in one of four discrete polarization states meets a polarizing
filter at one of the same four angles.  It passes the filter (collapsing to
the filter orientation) with probability cos^2 of the angular difference,
and is absorbed otherwise.  Because photons are sent on a clock, absorption
is observable as an *erasure*: a tick with no detection.

For the 45-degree-spaced alphabet the pass probabilities are exactly 0, 1/2
or 1, so the whole channel is enumerable with exact rationals.
:func:`detection_probability` gives them, and the tables below read them
off once: ``PASS_HALVES`` (the pass chance in halves) and the keep rule
``DETERMINISTIC``, per (photon, filter) index, and ``DETECTS``, the pass
chance read as a byte per side of 1/2 of the measurement variate, which
``READING_DETECTS`` extends to the receiver's reading index.  The sampler
and the exact oracles of :mod:`qkdsim.analysis` both read these tables;
the channel law itself is enumerated once, in
:func:`qkdsim.analysis.cell_probabilities`.

The two protocols differ at this layer only in their :class:`Protocol`
spec: sender alphabet, receiver filters and authentication filter.  A
party's draws are :func:`choose` (one uniform slot per tick: the sender's
states, the receiver's filters) and :func:`measure` (the receiver's
reading index per arriving photon: the photon, the filter and the side
of 1/2 its measurement variate fell on, so that no table is read per
tick).  Each draws its variates in cache-sized blocks, in stream order;
:func:`qkdsim.session.run_session` states the order in which a session
calls them.  An interceptor's erasure branch is one index table per
resend policy and alphabet, :func:`resend_table`, which the session
engine and the exact oracles read alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .rng import RandomSource


class Polarization(Enum):
    """The four discrete polarization angles, named by degrees.

    ``Z0``/``Z90`` form the rectilinear orthogonal pair, ``D45``/``D135``
    the diagonal one.
    """

    Z0 = 0
    D45 = 45
    Z90 = 90
    D135 = 135

    @property
    def degrees(self) -> int:
        return self.value

    @classmethod
    def from_degrees(cls, degrees: int) -> "Polarization":
        try:
            return cls(degrees)
        except ValueError:
            raise ValueError(
                f"no polarization at {degrees} degrees; expected one of 0, 45, 90, 135"
            ) from None

    @property
    def orthogonal(self) -> "Polarization":
        """The perpendicular polarization (an involution)."""
        return Polarization((self.value + 90) % 180)


# Array position of each polarization: index i is the angle 45*i degrees.
POLARIZATIONS = tuple(Polarization)

BB84_ALPHABET = (Polarization.Z0, Polarization.D45, Polarization.Z90, Polarization.D135)
THREE_STATE_ALPHABET = (Polarization.Z0, Polarization.D45, Polarization.Z90)
BB84_FILTERS = (Polarization.Z0, Polarization.D45)
THREE_STATE_FILTERS = (Polarization.Z0, Polarization.D45, Polarization.Z90)


@dataclass(frozen=True)
class Protocol:
    """What sets the two protocols apart up to the keep rule.

    The sender draws uniformly from ``alphabet`` and the receiver filters
    uniformly over ``filters``; both protocols keep exactly the positions
    with a deterministic reading (:func:`has_deterministic_outcome`).  Kept
    positions read through ``auth_filter`` carry no secret and serve as
    tamper evidence; all other kept positions are key.  ``None`` means
    every kept position is key, certified afterwards by parity rounds.
    ``alphabet`` and ``filters`` each lead ``POLARIZATIONS``, so a slot
    drawn from either is its own polarization index.
    """

    name: str
    alphabet: tuple[Polarization, ...]
    filters: tuple[Polarization, ...]
    auth_filter: Optional[Polarization]

    def __post_init__(self) -> None:
        for name in ("alphabet", "filters"):
            options = tuple(getattr(self, name))
            if options != POLARIZATIONS[: len(options)]:
                raise ValueError(f"{name}: expected a leading run of POLARIZATIONS, got {options}")


THREE_STATE = Protocol("three_state", THREE_STATE_ALPHABET, THREE_STATE_FILTERS, Polarization.D45)
BB84 = Protocol("bb84", BB84_ALPHABET, BB84_FILTERS, None)


@dataclass(frozen=True)
class MeasurementOutcome:
    """What a detector records at one clock tick.

    ``detected_as`` is the filter orientation the photon collapsed to, or
    ``None`` for an erasure.  Erasures carry no polarization information.
    """

    detected_as: Optional[Polarization]

    @property
    def is_detected(self) -> bool:
        return self.detected_as is not None

    @property
    def is_erasure(self) -> bool:
        return self.detected_as is None

    def __repr__(self) -> str:
        if self.detected_as is None:
            return "Erasure"
        return f"Detected({self.detected_as.name})"


ERASURE = MeasurementOutcome(None)
_DETECTED = {p: MeasurementOutcome(p) for p in Polarization}


def detected(angle: Polarization) -> MeasurementOutcome:
    """The (interned) detection outcome for a filter at ``angle``."""
    return _DETECTED[angle]


# cos^2 of the angular difference, exact for the 45-degree grid.
_COS2 = {0: Fraction(1), 45: Fraction(1, 2), 90: Fraction(0), 135: Fraction(1, 2)}


def detection_probability(photon: Polarization, filter_angle: Polarization) -> Fraction:
    """Exact probability that ``photon`` passes a filter at ``filter_angle``.

    Always one of 0, 1/2 or 1 for the discrete angle set.
    """
    return _COS2[abs(photon.value - filter_angle.value) % 180]


def has_deterministic_outcome(photon: Polarization, filter_angle: Polarization) -> bool:
    """True when the detector reading is fully determined by (photon, filter).

    Holds exactly when the pass probability is 0 or 1, i.e. the photon is
    aligned with or orthogonal to the filter.  Both protocols keep precisely
    these positions: whoever knows (sent state, filter) can predict the
    receiver's datum without being told it.
    """
    return detection_probability(photon, filter_angle) in (Fraction(0), Fraction(1))


def bit_map(polarization: Polarization) -> int:
    """Classical bit conventionally encoded by each polarization.

    0 and 45 degrees encode 0; 90 and 135 degrees encode 1.  The mapping is
    an arbitrary but fixed convention; it satisfies
    ``bit_map(p.orthogonal) == 1 - bit_map(p)``.
    """
    return 0 if polarization.value in (0, 45) else 1


class ResendPolicy(Enum):
    """What an interceptor retransmits when her own filter shows an erasure.

    A detection always collapses the photon to her filter angle, so only the
    erasure branch is a free choice:

    * ``ORTHOGONAL_INFERENCE`` - resend the state orthogonal to her filter
      (the erasure tells her the photon was orthogonal *if* it came from her
      filter's own basis pair).  Under a 45-degree filter this resends a
      135-degree photon, which honest senders never use; the channel carries
      it anyway.
    * ``SEND_NOTHING`` - absorb the photon; the receiver sees an erasure.
    * ``UNIFORM_RANDOM`` - resend a uniform draw from the sender alphabet.
    """

    ORTHOGONAL_INFERENCE = "orthogonal"
    SEND_NOTHING = "nothing"
    UNIFORM_RANDOM = "random"


# ---------------------------------------------------------------------------
# Session tables and draws on index arrays
# ---------------------------------------------------------------------------

# Tables over (photon index, filter index), read off the exact law.  Pass
# chances in halves (0, 1 or 2), so the exact oracles count in integers.
PASS_HALVES = np.array(
    [[int(2 * detection_probability(p, f)) for f in POLARIZATIONS] for p in POLARIZATIONS],
    dtype=np.int64,
)
# Whether a photon passes, per (4 * photon + filter) * 2 + (u < 1/2) for
# its measurement variate u: u < p reads the same for every u on one side
# of 1/2, since every pass chance p is 0, 1/2 or 1.
DETECTS = (np.array([1.5, 0.5]) < PASS_HALVES[..., None]).ravel()
# The receiver's reading index of a tick is that index of DETECTS,
# (4 * arrival + filter) * 2 + (u < 1/2), where a photon arrives, and
# 32 + filter at an empty tick.  Per reading index: whether his detector
# fired, and his filter.
READING_DETECTS = np.append(DETECTS, np.zeros(4, dtype=bool))
READING_FILTER = np.append(np.arange(32) // 2 % 4, np.arange(4))
# The keep rule of both protocols, per (photon index, filter index).
DETERMINISTIC = np.array(
    [[has_deterministic_outcome(p, f) for f in POLARIZATIONS] for p in POLARIZATIONS]
)
BITS = np.array([bit_map(p) for p in POLARIZATIONS], dtype=np.int8)
ORTHOGONAL = np.array([POLARIZATIONS.index(p.orthogonal) for p in POLARIZATIONS])
DEGREES = np.array([p.degrees for p in POLARIZATIONS])

# Outcome class c: 0 is an erasure, 1 + i a detection at POLARIZATIONS[i].
OUTCOME_CLASSES = (ERASURE,) + tuple(detected(p) for p in POLARIZATIONS)


def resend_table(policy: ResendPolicy, alphabet: Sequence[Polarization]) -> np.ndarray:
    """What an interceptor resends after an erasure, per filter index.

    Row f lists the equally likely resent polarization indices after an
    erasure behind the filter ``POLARIZATIONS[f]``: its orthogonal, -1 for
    "send nothing", or the whole ``alphabet`` for a uniform resend.  A row
    of more than one entry costs her one variate to pick from.  This is the
    one place the resend policies are told apart.
    """
    if policy is ResendPolicy.ORTHOGONAL_INFERENCE:
        return ORTHOGONAL[:, None]
    if policy is ResendPolicy.SEND_NOTHING:
        return np.full((len(POLARIZATIONS), 1), -1, dtype=np.int8)
    return np.tile(np.arange(len(alphabet), dtype=np.int8), (len(POLARIZATIONS), 1))


def inferred_index(filters: np.ndarray, detected_mask: np.ndarray) -> np.ndarray:
    """The receiver's estimate of the sent state at each tick.

    A detection reads as the filter angle, an erasure as its orthogonal.
    """
    return np.where(detected_mask, filters, ORTHOGONAL[filters])


# Variates per block of a party's draw.  A 64 kB block is reused from the
# heap; a whole 60k-photon draw is a fresh 480 kB array whose pages fault
# in on every session.
_BLOCK = 8192


def _blocks(rng: RandomSource, n: int):
    """The next n variates of ``rng`` in stream order, as (offset, block) pairs."""
    for lo in range(0, n, _BLOCK):
        yield lo, rng.uniform_array(min(_BLOCK, n - lo))


def choose(options: Sequence[Polarization], rng: RandomSource, n: int) -> np.ndarray:
    """n uniform draws from ``options``, one variate each, as ``int8`` polarization indices."""
    slot = np.empty(n, dtype=np.int8)
    for lo, u in _blocks(rng, n):
        u *= len(options)
        slot[lo : lo + len(u)] = u  # truncates, as astype does
    return slot


def measure(pair: np.ndarray, rng: RandomSource) -> np.ndarray:
    """The receiver's reading index at each flat pair index ``4 * photon + filter``.

    One variate each, in order: ``2 * pair + (u < 1/2)`` for the tick's
    measurement variate u, as ``int8``, the index at which ``DETECTS``
    holds whether the photon passed.  Every variate drawn is read, only as
    far as which side of 1/2 it falls, and no table is read here.
    """
    reading = pair * np.int8(2)
    for lo, u in _blocks(rng, len(reading)):
        reading[lo : lo + len(u)] += u < 0.5
    return reading
