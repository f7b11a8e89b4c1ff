"""Adversary models: in-channel interception and transcript-only listening.

Two attacker positions are modelled.  An *active* attacker sits on the
optical line, measures photons with her own filter and retransmits
something (:class:`InterceptResend`, :class:`StuckFilter`).  A *passive*
attacker reads only the public discussion (:class:`PassiveClassical`);
:func:`passive_infer` computes everything such an attacker can claim about
the key material, position by position, by running the public keep rule
(the ``DETERMINISTIC`` table of :mod:`qkdsim.photons`) backwards once per
filter.

An active attacker meets each photon exactly once, in transmission order —
she cannot clone, reorder or delay.  Per photon she spends one gate
variate; if she intercepts it, one filter variate unless her filter is
fixed, one measurement variate, and one resend variate if she reads an
erasure and her row of :func:`~qkdsim.photons.resend_table` offers more
than one state.  :func:`intercept_session` runs a whole session through
that rule on arrays, draw for draw the same as the photon-by-photon
reference loop in ``tests/reference.py``.  All attacker randomness comes
from her own stream, so an ``InterceptResend`` with ``fraction=0`` leaves
the honest parties' variate streams, and hence the whole session,
bit-for-bit unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from .photons import (
    DETERMINISTIC,
    POLARIZATIONS,
    MeasurementOutcome,
    Polarization,
    Protocol,
    ResendPolicy,
    detects,
    option_index,
    resend_table,
)
from .rng import RandomSource
from .transcript import Transcript


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


# Photons per chunk of intercept_session: bounds her variate buffer.
_CHUNK = 32768


@dataclass(frozen=True, eq=False)
class Interception:
    """The attacker's side of one session, one entry per tick.

    ``arrival`` is the polarization index that travels on to the receiver
    (-1 for an empty tick).  Where ``intercepted``, ``filters`` holds her
    filter index and ``detected`` her reading; elsewhere -1 and False.
    """

    arrival: np.ndarray
    intercepted: np.ndarray
    filters: np.ndarray
    detected: np.ndarray


def _walk(u, gate, photon_filter, measure_at: int, resends: int, sent: np.ndarray):
    """Each photon's first variate in ``u``, and the end of the last photon's draws.

    Steps come from one ``bytes`` table per sent state, since whether an
    erasure spends a resend variate depends on it.  Entries too near the
    end to hold an interception go unread: the chunk draws enough for all.
    """
    steps = np.where(gate, np.uint8(measure_at + 1), np.uint8(1))
    tables = [steps.tobytes()] * len(POLARIZATIONS)
    if resends:
        k = len(u) - measure_at
        for s in range(len(POLARIZATIONS)):
            table = steps.copy()
            table[:k] += gate[:k] & ~detects(s * 4 + photon_filter[:k], u[measure_at:])
            tables[s] = table.tobytes()
    starts = []
    record = starts.append
    pos = 0
    for s in sent.tolist():
        record(pos)
        pos += tables[s][pos]
    return np.array(starts, dtype=np.intp), pos


def intercept_session(
    attack: Attack,
    filter_set: Sequence[Polarization],
    alphabet: Sequence[Polarization],
    rng: RandomSource,
    sent_index: np.ndarray,
) -> Optional[Interception]:
    """Every photon of a session through the attacker's station, on arrays.

    ``sent_index`` holds each photon's polarization index in transmission
    order; ``None`` comes back when the attack touches no photon.  With
    probability ``fraction`` a photon is measured with her filter; a
    detection is resent at her filter angle, an erasure as an equally
    likely entry of her filter's :func:`~qkdsim.photons.resend_table` row.
    Draw for draw the same as the photon-by-photon loop on ``rng``: each
    chunk of photons draws the most it could spend, walks to each photon's
    first variate, and carries the unused tail into the next chunk.
    ``rng`` is left past what was used.
    """
    attack = normalize_attack(attack)
    if not isinstance(attack, InterceptResend):
        return None
    choose = attack.filter_choice is None
    resend = resend_table(attack.resend, alphabet)
    width = resend.shape[1]
    resends = int(width > 1)  # variates an erasure spends to pick its resend
    measure_at = 1 + choose  # offset of the measurement variate; a resend one follows
    # Every photon spends the same count when none or all are intercepted
    # and no erasure spends a resend variate; otherwise the starts are walked.
    stride = 1 if attack.fraction == 0 else 0
    if attack.fraction == 1 and not resends:
        stride = measure_at + 1
    most = stride or measure_at + 1 + resends

    arrival, filters = sent_index.astype(np.int8), np.full(len(sent_index), -1, dtype=np.int8)
    detected = np.zeros(len(sent_index), dtype=bool)
    u = np.empty(0)
    for lo in range(0, len(sent_index), _CHUNK):
        sent = sent_index[lo : lo + _CHUNK]
        u = np.concatenate((u, rng.uniform_array(max(0, len(sent) * most - len(u)))))
        # Each position read as a gate and, unless her filter is fixed, as a
        # uniform filter choice; a photon starting at q reads it at q + choose.
        gate = u < attack.fraction
        if choose:
            filter_at = option_index(filter_set, (u * len(filter_set)).astype(np.int8))
        else:
            filter_at = np.broadcast_to(np.int8(POLARIZATIONS.index(attack.filter_choice)), u.shape)
        if stride:
            starts, end = np.arange(0, len(sent) * stride, stride), len(sent) * stride
        else:
            starts, end = _walk(u, gate, filter_at[choose:], measure_at, resends, sent)
        hit = gate[starts]
        at = starts[hit]
        eve_filter = filter_at[at + choose]
        det = detects(sent[hit] * 4 + eve_filter, u[at + measure_at])
        # A detection spends no resend variate; its pick is read but unused.
        pick = (u[at + measure_at + 1] * width).astype(np.int8) if resends else 0
        resent = np.where(det, eve_filter, resend[eve_filter, pick])
        photon = lo + np.flatnonzero(hit)
        arrival[photon], filters[photon], detected[photon] = resent, eve_filter, det
        u = u[end:]
    return Interception(arrival, filters >= 0, filters, detected)


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
    states = [POLARIZATIONS.index(s) for s in alphabet]
    pinned = {}
    for f, angle in enumerate(POLARIZATIONS):
        candidates = [alphabet[i] for i, keeps in enumerate(DETERMINISTIC[states, f]) if keeps]
        pinned[angle] = candidates[0] if len(candidates) == 1 else None
    published = Transcript.from_jsonable(transcript)
    kept = set(published.kept_positions())
    return [
        EveRecord(i, EveSource.TRANSCRIPT, f, None, pinned[f] if i in kept else None)
        for i, f in enumerate(published.announced_filters())
    ]
