"""One session engine for both protocols.

:func:`run_session` sends n photons under a :class:`~qkdsim.photons.Protocol`
spec, past the attacker if there is one, to the receiver, who reads each
one through a filter; it states the session's draw order in one place.
The receiver then announces his filters.  The sender keeps every position
whose (sent, filter) pair reads deterministically, the same rule for both
protocols.  The kept positions split by filter.  Those read through the
spec's ``auth_filter`` carry no secret, since the sent state is forced,
but their reading is forced too, so an erasure there is tamper evidence.
All other kept positions are key, and the receiver's inference there is
the sent state.  What follows the split (the three-state tamper report,
the BB84 parity rounds) lives in :mod:`qkdsim.three_state` and
:mod:`qkdsim.bb84`.

Every count a trial reports is a sum over cells.  A tick falls in cell
``(4 * sent + filter) * 2 + detected`` of 32, with ``sent`` and ``filter``
indices into :data:`~qkdsim.photons.POLARIZATIONS` and ``detected``
whether the receiver's detector fired.  A session holds the receiver's
reading index instead (see :data:`~qkdsim.photons.READING_DETECTS`), which
names the filter and, with the photon that arrived, the detection; a
tick's cell is one read of a 144-entry table at its joint index
``36 * sent + reading``.  :attr:`Session.cells`, the session's histogram
over the cells, is a ``np.bincount`` of the joint index folded onto the
32 cells, so no per-tick detection or cell is formed for the counts.
:func:`cell_table` marks each cell, once per protocol, from the exact
tables (``DETERMINISTIC``, ``BITS``, ``ORTHOGONAL``) and the spec's
``auth_filter``: kept, key, auth, auth failure, key error, and the bit
each party holds there.  The confirmed, key and auth counts, the auth
failures, the key errors and the outcome tallies are each a sum of the
histogram over marked cells (the first five one product of the table's
``marks`` matrix with the histogram), and the histograms of two runs add
cell by cell.  Positions and key bits are read through the same table,
tick by tick, only when asked for, and so is the public discussion,
whose entries :func:`qkdsim.transcript.announcements` writes.  A session
holds index arrays only: no per-photon object is ever built.  The exact
oracles take the same ``marks`` product with the integer counts of
:func:`qkdsim.analysis.cell_probabilities`.
:func:`outcome_rows` folds 32 cell values, a histogram or that exact law,
to (sent state, reading) rows: the reports' outcome tallies and the exact
joint law of :func:`qkdsim.analysis.joint_distribution` are both this fold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Optional, Sequence

import numpy as np

from .eavesdrop import Attack, Interception, NoAttack, intercept_session
from .photons import (
    BITS,
    DETERMINISTIC,
    POLARIZATIONS,
    READING_DETECTS,
    READING_FILTER,
    Protocol,
    choose,
    inferred_index,
    measure,
)
from .rng import RandomSource
from .transcript import announcements


# A tick falls in one cell per (sent state, receiver filter, reading), laid
# out row-major over this shape: cell (4 * sent + filter) * 2 + detected.
CELL_SHAPE = (len(POLARIZATIONS), len(POLARIZATIONS), 2)
CELLS = 32
_CELL_SENT, _CELL_FILTER, _CELL_READING = np.unravel_index(np.arange(CELLS), CELL_SHAPE)

# A tick's joint index is READINGS * sent + its reading index; the cell of
# each joint index, and the joint indices in cell order with the start of
# each cell's run, so that a joint histogram folds onto the cells in one
# reduceat.
READINGS = len(READING_DETECTS)
_SENT = np.arange(len(POLARIZATIONS))[:, None]
_JOINT_CELL = ((4 * _SENT + READING_FILTER) * 2 + READING_DETECTS).ravel().astype(np.int8)
_BY_CELL = np.argsort(_JOINT_CELL, kind="stable")
_CELL_STARTS = np.searchsorted(_JOINT_CELL[_BY_CELL], np.arange(CELLS))


def outcome_rows(cells: Sequence) -> list[list]:
    """Fold 32 cell values to one row per sent state, in ``POLARIZATIONS`` order.

    Row entries follow :data:`~qkdsim.photons.OUTCOME_CLASSES`: the
    erasures summed over filters, then the detections at each filter.
    Takes a histogram and a list of exact :class:`~fractions.Fraction`
    probabilities alike, and returns Python numbers.
    """
    per_sent = np.reshape(cells, (len(POLARIZATIONS), CELLS // len(POLARIZATIONS))).tolist()
    return [[sum(ticks[0::2])] + ticks[1::2] for ticks in per_sent]


@dataclass(frozen=True, eq=False)
class CellTable:
    """One protocol's marks on the 32 cells, arrays indexed by cell.

    ``kept``: the reading is deterministic, so the sender keeps the
    position.  ``auth``: kept, under the spec's ``auth_filter``.  ``key``:
    kept, under any other filter.  ``key_error``: a key cell whose reading
    infers a bit other than the sender's, which only an attacker's resent
    photon can reach.  ``sent_bit`` and ``read_bit`` are the sender's bit
    and the bit the receiver infers from his reading, per cell.  ``marks``
    stacks the kept, key, auth, auth failure (an auth cell with an erasure)
    and key error marks as a 5 × 32 integer matrix, so one product with a
    histogram, or with the exact law's counts, gives all five sums.
    """

    kept: np.ndarray
    key: np.ndarray
    auth: np.ndarray
    key_error: np.ndarray
    sent_bit: np.ndarray
    read_bit: np.ndarray
    marks: np.ndarray


@cache
def cell_table(protocol: Protocol) -> CellTable:
    """The cell marks of ``protocol``, built once from the exact tables."""
    sent, filters, detected = _CELL_SENT, _CELL_FILTER, _CELL_READING.astype(bool)
    kept = DETERMINISTIC[sent, filters]
    auth = np.zeros(CELLS, dtype=bool)
    if protocol.auth_filter is not None:
        auth = kept & (filters == POLARIZATIONS.index(protocol.auth_filter))
    key = kept & ~auth
    sent_bit, read_bit = BITS[sent], BITS[inferred_index(filters, detected)]
    key_error = key & (sent_bit != read_bit)
    marks = np.array([kept, key, auth, auth & ~detected, key_error], dtype=np.int64)
    return CellTable(kept, key, auth, key_error, sent_bit, read_bit, marks)


@dataclass(frozen=True, eq=False)
class Session:
    """Everything one session produced, as index arrays over its ticks.

    Per tick it keeps the sent state, the filter and the receiver's reading
    index.  Counts are read off :attr:`cells`, the session's cell histogram,
    which needs nothing more; the detections, cells, positions, bits and
    the transcript are derived on first read.
    """

    protocol: Protocol
    sent_index: np.ndarray  # int8 indices into POLARIZATIONS
    filter_index: np.ndarray
    reading: np.ndarray  # int8 reading index (photons.READING_DETECTS)
    interception: Optional[Interception] = None  # the attacker's side, if active

    @cached_property
    def detected(self) -> np.ndarray:
        """Per tick, bool: the receiver's detector fired."""
        return READING_DETECTS.take(self.reading)

    @cached_property
    def _joint(self) -> np.ndarray:
        """Each tick's joint index, ``READINGS * sent + reading``, as ``uint8``."""
        joint = self.sent_index.view(np.uint8) * np.uint8(READINGS)
        joint += self.reading.view(np.uint8)
        return joint

    @cached_property
    def cell_index(self) -> np.ndarray:
        """Each tick's cell, (4 * sent + filter) * 2 + detected, as ``int8``."""
        return _JOINT_CELL.take(self._joint)

    @cached_property
    def cells(self) -> np.ndarray:
        """Photons per cell: the session's histogram over its 32 cells."""
        joint_cells = np.bincount(self._joint, minlength=len(_JOINT_CELL))
        return np.add.reduceat(joint_cells.take(_BY_CELL), _CELL_STARTS)

    @cached_property
    def table(self) -> CellTable:
        return cell_table(self.protocol)

    @cached_property
    def _counts(self) -> list[int]:
        """The kept, key, auth, auth failure and key error counts, as Python ints."""
        return (self.table.marks @ self.cells).tolist()

    @property
    def confirmed(self) -> int:
        """Kept positions: those whose reading was deterministic."""
        return self._counts[0]

    @property
    def key_count(self) -> int:
        return self._counts[1]

    @property
    def auth_count(self) -> int:
        return self._counts[2]

    @property
    def auth_failures(self) -> int:
        """Erasures at authentication positions, where honest physics forces a detection."""
        return self._counts[3]

    @property
    def key_errors(self) -> int:
        """Key positions where the receiver's bit differs from the sender's."""
        return self._counts[4]

    def _positions(self, mark: np.ndarray) -> np.ndarray:
        return mark.take(self.cell_index).nonzero()[0]

    @cached_property
    def kept(self) -> np.ndarray:
        """Per tick, bool: the reading was deterministic."""
        return self.table.kept.take(self.cell_index)

    @cached_property
    def kept_index(self) -> np.ndarray:
        return self.kept.nonzero()[0]

    @cached_property
    def key_index(self) -> np.ndarray:
        return self._positions(self.table.key)

    @cached_property
    def auth_index(self) -> np.ndarray:
        return self._positions(self.table.auth)

    @cached_property
    def _key_cells(self) -> np.ndarray:
        return self.cell_index.take(self.key_index)

    @cached_property
    def alice_bits(self) -> np.ndarray:
        """The sender's key bit at each key position."""
        return self.table.sent_bit.take(self._key_cells)

    @cached_property
    def bob_bits(self) -> np.ndarray:
        """The receiver's key bit at each key position, read off his inference."""
        return self.table.read_bit.take(self._key_cells)

    @cached_property
    def key_error_ranks(self) -> np.ndarray:
        """Ranks in the key at which the two parties' bits differ, ascending.

        Equal to ``flatnonzero(alice_bits != bob_bits)``, but read off the key
        cells' marks; a session whose histogram holds no key error builds no
        per-key-bit array for it.
        """
        if not self.key_errors:
            return np.empty(0, dtype=np.intp)
        return self.table.key_error.take(self._key_cells).nonzero()[0]

    @cached_property
    def transcript(self) -> list[dict]:
        """The public discussion as the report publishes it: a list of entry dicts.

        The receiver announces his filter angles, then the sender the kept
        positions, in ascending order (:func:`qkdsim.transcript.announcements`);
        BB84's parity rounds append to it.
        """
        return announcements(self.filter_index, self.kept_index)


def run_session(
    protocol: Protocol,
    n: int,
    rng: RandomSource,
    attack: Attack = NoAttack(),
) -> Session:
    """Simulate one session: send, intercept, read; the rest is derived.

    The session source ``rng`` is never drawn from directly.  The sender,
    receiver and attacker draw from its children 0, 1 and 2, so an attack
    cannot perturb the honest parties' choices and a session is
    reproducible from the seed alone.  Child 3 is left for the parity
    rounds that follow a BB84 session.  Draw for draw the same as the
    photon-by-photon loop in ``tests/reference.py``: the sender spends one
    variate per photon on its state and the receiver n on his filters
    (:func:`~qkdsim.photons.choose`); the attacker meets the photons in
    order (:func:`~qkdsim.eavesdrop.intercept_session`); then the receiver
    spends one variate per arriving photon on its measurement, in tick
    order (:func:`~qkdsim.photons.measure`).  An empty tick spends none and
    reads ``32 + filter``.
    """
    if n < 1:
        raise ValueError(f"n: need at least one photon, got {n}")
    alice_rng, bob_rng, eve_rng = rng.child(0), rng.child(1), rng.child(2)
    sent = choose(protocol.alphabet, alice_rng, n)
    filters = choose(protocol.filters, bob_rng, n)
    interception = intercept_session(attack, protocol.filters, protocol.alphabet, eve_rng, sent)
    if interception is None:
        reading = measure(sent * 4 + filters, bob_rng)
    else:
        arrived = interception.arrival >= 0
        reading = filters + np.int8(32)
        reading[arrived] = measure((interception.arrival * 4 + filters)[arrived], bob_rng)
    return Session(protocol, sent, filters, reading, interception)
