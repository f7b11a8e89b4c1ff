"""One session engine for both protocols.

:func:`run_session` transmits n photons under a :class:`~qkdsim.photons.Protocol`
spec, and the receiver announces his filters.  The sender keeps every
position whose (sent, filter) pair reads deterministically, the same rule
for both protocols.  The kept positions split by filter.  Those read
through the spec's ``auth_filter`` carry no secret, since the sent state
is forced, but their reading is forced too, so an erasure there is tamper
evidence.  All other kept positions are key, and the receiver's inference
there is the sent state.  What follows the split (the three-state tamper
report, the BB84 parity rounds) lives in :mod:`qkdsim.three_state` and
:mod:`qkdsim.bb84`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Optional

import numpy as np

from .eavesdrop import Attack, EveRecord, Interception, NoAttack, intercept_session
from .photons import (
    BITS,
    DEGREES,
    DETERMINISTIC,
    POLARIZATIONS,
    MeasurementOutcome,
    Polarization,
    Protocol,
    as_outcomes,
    as_polarizations,
    inferred_index,
    transmit,
)
from .rng import RandomSource
from .transcript import Transcript


@dataclass(frozen=True, eq=False)
class Session:
    """Everything one session produced, as index arrays over its ticks.

    Positions, bits and per-photon lists are derived on first read.
    """

    protocol: Protocol
    sent_index: np.ndarray  # indices into POLARIZATIONS
    filter_index: np.ndarray
    detected: np.ndarray  # bool: the receiver's detector fired
    kept: np.ndarray  # bool: the reading was deterministic
    interception: Optional[Interception] = None  # the attacker's side, if active

    @cached_property
    def kept_index(self) -> np.ndarray:
        return np.flatnonzero(self.kept)

    @cached_property
    def _at_auth(self) -> np.ndarray:
        auth = self.protocol.auth_filter
        if auth is None:
            return np.zeros(len(self.kept_index), dtype=bool)
        return self.filter_index[self.kept_index] == POLARIZATIONS.index(auth)

    @cached_property
    def key_index(self) -> np.ndarray:
        return self.kept_index[~self._at_auth]

    @cached_property
    def auth_index(self) -> np.ndarray:
        return self.kept_index[self._at_auth]

    @cached_property
    def alice_bits(self) -> np.ndarray:
        """The sender's key bit at each key position."""
        return BITS[self.sent_index[self.key_index]]

    @cached_property
    def bob_bits(self) -> np.ndarray:
        """The receiver's key bit at each key position, read off his inference."""
        key = self.key_index
        return BITS[inferred_index(self.filter_index[key], self.detected[key])]

    @property
    def auth_failures(self) -> int:
        """Erasures at authentication positions, where honest physics forces a detection."""
        return len(self.auth_index) - int(np.count_nonzero(self.detected[self.auth_index]))

    @cached_property
    def transcript(self) -> Transcript:
        transcript = Transcript()
        transcript.announce_filters(DEGREES[self.filter_index].tolist())
        transcript.announce_kept(self.kept_index.tolist())
        return transcript

    @cached_property
    def sent(self) -> list[Polarization]:
        return as_polarizations(self.sent_index)

    @cached_property
    def filters(self) -> list[Polarization]:
        return as_polarizations(self.filter_index)

    @cached_property
    def outcomes(self) -> list[MeasurementOutcome]:
        return as_outcomes(self.filter_index, self.detected)

    @cached_property
    def inferred(self) -> list[Polarization]:
        return as_polarizations(inferred_index(self.filter_index, self.detected))

    @property
    def photons_intercepted(self) -> int:
        return 0 if self.interception is None else int(self.interception.intercepted.sum())

    @cached_property
    def eve_records(self) -> list[EveRecord]:
        """The attacker's per-photon log; empty when she touched no photon."""
        return [] if self.interception is None else self.interception.records()


def run_session(
    protocol: Protocol,
    n: int,
    rng: RandomSource,
    attack: Attack = NoAttack(),
) -> Session:
    """Simulate one session: transmit, announce filters, keep, split.

    The session source ``rng`` is never drawn from directly.  The sender,
    receiver and attacker draw from its children 0, 1 and 2, so an attack
    cannot perturb the honest parties' choices and a session is
    reproducible from the seed alone.  Child 3 is left for the parity
    rounds that follow a BB84 session.
    """
    if n < 1:
        raise ValueError("need at least one photon")
    alice_rng, bob_rng, eve_rng = rng.child(0), rng.child(1), rng.child(2)
    tap = partial(intercept_session, attack, protocol.filters, protocol.alphabet, eve_rng)
    sent, filters, detected, interception = transmit(protocol, n, alice_rng, bob_rng, tap)
    return Session(protocol, sent, filters, detected, DETERMINISTIC[sent, filters], interception)
