"""Adversary models: in-channel interception and transcript-only listening.

Two attacker positions are modelled.  An *active* attacker sits on the
optical line, measures photons with her own filter and retransmits
something (:class:`InterceptResend`, :class:`StuckFilter`).  A *passive*
attacker reads only the public discussion (:class:`PassiveClassical`)
and touches no photon, so her session runs bit for bit as an honest one.
What she can claim from the transcript is found by running the public
keep rule backwards; the tests do that in ``tests/reference.py``.

An active attacker meets each photon exactly once, in transmission order —
she cannot clone, reorder or delay.  Per photon she spends one gate
variate; if she intercepts it, one filter variate unless her filter is
fixed, one measurement variate, and one resend variate if she reads an
erasure and her row of :func:`~qkdsim.photons.resend_table` offers more
than one state.  :func:`intercept_session` runs a whole session through
that rule on arrays, draw for draw the same as the photon-by-photon
reference loop in ``tests/reference.py``.  It reads her variates in the
parties' draw blocks (``photons._BLOCK`` of them), so no float array the
size of a chunk is built, and finds each photon's first variate in one of
three ways: as strided views where each photon's variates sit at a fixed
stride, and otherwise on one-byte arrays with an entry per position, in
closed form (steps of two) or by a loop over the photons with a step table
per sent state (longer steps), fraction 0 included.  All attacker
randomness comes from her own stream, so ``InterceptResend(fraction=0)``
leaves the honest parties' streams, and hence the whole session,
bit-for-bit unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .photons import (
    DETECTS,
    POLARIZATIONS,
    Polarization,
    ResendPolicy,
    _blocks,
    resend_table,
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
        choice = self.filter_choice
        if not (choice is None or isinstance(choice, Polarization)):
            raise ValueError(f"filter_choice must be None or a Polarization, got {choice!r}")
        if not isinstance(self.resend, ResendPolicy):
            raise ValueError(f"resend must be a ResendPolicy, got {self.resend!r}")
        # A report publishes the fraction as a JSON number: a bool is an int
        # but would read true or false, and other real types do not encode.
        fraction = self.fraction
        if not isinstance(fraction, (int, float)) or isinstance(fraction, bool):
            raise ValueError(f"fraction must be a real number (int or float), got {fraction!r}")
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must lie in [0, 1], got {fraction}")


@dataclass(frozen=True)
class StuckFilter:
    """An in-line filter jammed at one angle, intercepting every photon.

    The hardware-fault-turned-attack scenario: operationally identical to
    :class:`InterceptResend` with a fixed filter, orthogonal-inference
    resend and fraction 1 (:func:`station`).
    """

    angle: Polarization = Polarization.Z0

    def __post_init__(self) -> None:
        if not isinstance(self.angle, Polarization):
            raise ValueError(f"angle must be a Polarization, got {self.angle!r}")


Attack = Union[NoAttack, PassiveClassical, InterceptResend, StuckFilter]


def station(attack: Attack) -> Optional[InterceptResend]:
    """What ``attack`` does to the photons: ``None`` if it touches none.

    A stuck filter is the fixed-filter, orthogonal-resend, fraction-1
    interception; anything but the four attack types raises
    :class:`TypeError`, so no object runs as an honest channel by mistake.
    """
    if isinstance(attack, InterceptResend):
        return attack
    if isinstance(attack, StuckFilter):
        return InterceptResend(attack.angle, ResendPolicy.ORTHOGONAL_INFERENCE, 1.0)
    if isinstance(attack, (NoAttack, PassiveClassical)):
        return None
    raise TypeError(f"unknown attack type {type(attack).__name__}")


# Photons per chunk of intercept_session: bounds her per-position byte
# arrays, and keeps a chunk's positions (at most 4 per photon) in int32.
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


def _walk(tables: Sequence[bytes], sent: np.ndarray):
    """Each photon's start in the chunk, and the end of the last one's draws.

    A photon of state s starting at position p spends ``tables[s][p]``
    variates, so the next one starts there; one loop over the photons
    follows the tables from position 0.
    """
    steps, pos = bytearray(), 0
    add = steps.append
    for s in sent.tolist():
        step = tables[s][pos]
        add(step)
        pos += step
    steps = np.frombuffer(steps, dtype=np.uint8)
    return np.cumsum(steps, dtype=np.int32) - steps, pos


def _pair_walk(gate: np.ndarray, n: int):
    """The intercepted photons among the first n, their starts, and the end of their draws.

    For two-variate steps: a gated photon at p spends p and p + 1, any other
    photon p alone.  So an ungated position ends a photon's draws, and in a
    run of gated positions from s the photons start at s, s + 2, ...: a
    gated start is a gated p with p - s even.  Each gated start before p
    spends one position more than its photon, so the j-th one belongs to
    photon ``at[j] - j``.
    """
    here = np.arange(len(gate), dtype=np.int32)
    opens = gate.copy()  # the first position of each run of gated positions
    opens[1:] &= ~gate[:-1]
    s = np.maximum.accumulate(here * opens)
    at = np.flatnonzero(gate & ((here ^ s) & 1 == 0))
    photon = at - np.arange(len(at))
    k = int(np.searchsorted(photon, n))
    return photon[:k], at[:k], n + k


def _stride_view(u: np.ndarray, q: int, offset: int, stride: int):
    """Photons whose variate ``offset`` of ``stride`` is in block u (at q), and those variates."""
    k = (q - offset + stride - 1) // stride
    v = u[k * stride + offset - q :: stride]
    return slice(k, k + len(v)), v


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
    chunk of photons draws the most it could spend, one block at a time.
    At fraction 1 with no resend pick, photon k's variates start at
    ``k * stride``, so her filter pick and measurement are strided views
    of each block and the chunk's outputs are written as slices.  Otherwise
    (fraction 0 too, where no gate opens) each block is reduced at once to
    one-byte arrays, one entry per position: the gate (``u < fraction``),
    the side of 1/2, and her filter and resend picks where she draws them.
    The intercepted photons and their first variates come from the gates
    (:func:`_pair_walk` for two-variate steps, else :func:`_walk`), those
    arrays are read at them only, and the variates past the last photon's
    go back to ``rng`` (:meth:`~qkdsim.rng.RandomSource.unread`), so each
    chunk starts where the last one stopped and ``rng`` is left past what
    was used.
    """
    attack = station(attack)
    if attack is None:
        return None
    arrival, filters = sent_index.astype(np.int8), np.full(len(sent_index), -1, dtype=np.int8)
    detected = np.zeros(len(sent_index), dtype=bool)
    choose = attack.filter_choice is None
    fixed = None if choose else np.uint8(POLARIZATIONS.index(attack.filter_choice))
    resend = resend_table(attack.resend, alphabet)
    width = resend.shape[1]
    resends = int(width > 1)  # variates an erasure spends to pick its resend
    measure_at = 1 + choose  # offset of the measurement variate; a resend one follows
    most = measure_at + 1 + resends
    # Every photon intercepted, none spending a resend variate: a fixed stride.
    stride = most if attack.fraction == 1 and not resends else 0
    # What she resends per (filter, pick, detected): a detection at her filter.
    leaves = np.dstack(np.broadcast_arrays(resend, np.arange(len(POLARIZATIONS))[:, None])).ravel()

    for lo in range(0, len(sent_index), _CHUNK):
        sent = sent_index[lo : lo + _CHUNK]
        size = len(sent) * most
        if stride:
            # Photon k reads its filter pick at k * stride + 1 and its
            # measurement at k * stride + measure_at: strided views of each block.
            eve_filter = np.empty(len(sent), dtype=np.uint8) if choose else fixed
            side = np.empty(len(sent), dtype=bool)
            for q, u in _blocks(rng, size):
                if choose:
                    k, v = _stride_view(u, q, 1, stride)
                    np.multiply(v, len(filter_set), out=eve_filter[k], casting="unsafe")
                k, v = _stride_view(u, q, measure_at, stride)
                np.less(v, 0.5, out=side[k])
            photon, state, pick, end = slice(lo, lo + len(sent)), sent, 0, size
        else:
            # Each position read as a gate, a side of 1/2, and her filter and
            # resend picks where she has them: a photon starting at q reads
            # its filter pick at q + 1, its measurement at q + measure_at and
            # its resend pick after that.  One block of variates at a time.
            gate, half = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
            eve_pick = np.empty(size, dtype=np.uint8) if choose else fixed
            resend_pick = np.empty(size, dtype=np.uint8) if resends else 0
            for q, u in _blocks(rng, size):
                block = slice(q, q + len(u))
                np.less(u, attack.fraction, out=gate[block])
                np.less(u, 0.5, out=half[block])
                # A pick is u times the options, truncated as astype truncates.
                if choose:
                    np.multiply(u, len(filter_set), out=eve_pick[block], casting="unsafe")
                if resends:
                    np.multiply(u, width, out=resend_pick[block], casting="unsafe")
            if most == 2:  # a gate, and a measurement where it opens
                photon, at, end = _pair_walk(gate, len(sent))
            else:
                # At each position a photon can start at: gate * 8 + filter * 2
                # + (u < 1/2), its low bits a state's row of DETECTS.  Each
                # state reads it as its step: 1 past a closed gate, else most,
                # less the resend variate a detection does not spend.
                k = size - measure_at
                eve_key = eve_pick[1 : 1 + k] if choose else fixed
                key = (gate[:k] * np.uint8(8) + eve_key * np.uint8(2) + half[measure_at:]).tobytes()
                tables = [b""] * len(POLARIZATIONS)
                for s in range(len(alphabet)):
                    gated = np.uint8(most) - DETECTS[8 * s : 8 * s + 8] * np.uint8(resends)
                    lut = np.append(np.ones(8, np.uint8), gated).tobytes().ljust(256, b"\0")
                    tables[s] = key.translate(lut)
                starts, end = _walk(tables, sent)
                photon = np.flatnonzero(gate.take(starts))
                at = starts.take(photon)
            state, side = sent.take(photon), half.take(at + measure_at)
            eve_filter = eve_pick.take(at + 1) if choose else fixed
            # A detection spends no resend variate; its pick is read but unused.
            pick = resend_pick.take(at + measure_at + 1) if resends else 0
            photon += lo
        det = DETECTS.take((state * 4 + eve_filter) * 2 + side)
        arrival[photon] = leaves.take((eve_filter * width + pick) * 2 + det)
        filters[photon], detected[photon] = eve_filter, det
        rng.unread(size - end)
    return Interception(arrival, filters >= 0, filters, detected)
