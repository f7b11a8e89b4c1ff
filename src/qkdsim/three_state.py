"""Three-state/three-filter key distribution with built-in tamper evidence.

The sender uses only the polarizations {0°, 45°, 90°}; the receiver filters
uniformly over the same three angles.  After the receiver announces his
filter sequence, the sender confirms every position whose (sent, filter)
pair has a deterministic reading — 5 of the 9 pairs.  Confirmed positions
split by filter:

* rectilinear filter (0° or 90°): the receiver's detect-or-erase reading
  identifies the sent state exactly, yielding a secret key bit (4/9 of all
  positions on average);
* diagonal filter (45°): the sent state must have been the 45° photon, so
  the position carries no secret — but its reading is forced to be a
  detection, and any erasure there is hard evidence that the channel was
  disturbed (1/9 of positions).

Those diagonal positions therefore double as authentication: tampering
shows up without any further key comparison, which is the whole point of
the design.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Optional, Sequence

import numpy as np

from .eavesdrop import Attack, Intercepted, Interception, NoAttack, intercept_session
from .photons import (
    BITS,
    MeasurementOutcome,
    Polarization,
    POLARIZATIONS,
    THREE_STATE_ALPHABET,
    THREE_STATE_FILTERS,
    as_outcomes,
    as_polarizations,
    has_deterministic_outcome,
    infer_polarization,
    inferred_index,
    transmit,
)
from .rng import RandomSource
from .transcript import Transcript

_D45 = POLARIZATIONS.index(Polarization.D45)


@dataclass(frozen=True, eq=False)
class ThreeStateAliceState:
    """The sender's record; never contains the 135-degree state."""

    sent_index: np.ndarray  # indices into POLARIZATIONS

    @cached_property
    def sent(self) -> list[Polarization]:
        return as_polarizations(self.sent_index)


@dataclass(frozen=True, eq=False)
class ThreeStateBobState:
    filter_index: np.ndarray
    detected: np.ndarray

    @cached_property
    def filters(self) -> list[Polarization]:
        return as_polarizations(self.filter_index)

    @cached_property
    def outcomes(self) -> list[MeasurementOutcome]:
        return as_outcomes(self.filter_index, self.detected)


@dataclass(frozen=True, eq=False)
class Confirmation:
    """The sender's public per-position correct/incorrect verdicts."""

    mask: np.ndarray

    @cached_property
    def correct(self) -> list[bool]:
        return self.mask.tolist()

    @cached_property
    def confirmed_index(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    @cached_property
    def confirmed_indices(self) -> list[int]:
        return self.confirmed_index.tolist()

    @property
    def count(self) -> int:
        return len(self.confirmed_index)


def confirm(
    sent: Sequence[Polarization], filters: Sequence[Polarization]
) -> Confirmation:
    """Mark every position whose (sent, filter) pair reads deterministically.

    A function of the sent states and announced filters only — the
    receiver's outcomes play no part, so announcing the verdicts leaks
    nothing about his data.  A rectilinear photon is confirmed under either
    rectilinear filter (aligned → certain detection, orthogonal → certain
    erasure, both informative); the diagonal photon is confirmed only under
    the diagonal filter.
    """
    if len(sent) != len(filters):
        raise ValueError("sent and filter sequences must have equal length")
    return Confirmation(
        np.array(
            [has_deterministic_outcome(s, f) for s, f in zip(sent, filters)], dtype=bool
        )
    )


def infer_key_state(
    filter_angle: Polarization, outcome: MeasurementOutcome
) -> Polarization:
    """Resolve a confirmed rectilinear-filter reading to the sent state.

    Detection means the state aligned with the filter; erasure means the
    orthogonal one.  Only valid at key positions, hence the filter guard.
    """
    if filter_angle not in (Polarization.Z0, Polarization.Z90):
        raise ValueError("key bits come from rectilinear-filter positions only")
    return infer_polarization(filter_angle, outcome)


@dataclass(frozen=True, eq=False)
class KeyMaterial:
    """The receiver's confirmed positions, split into key and authentication."""

    key_index: np.ndarray
    bits: np.ndarray  # the receiver's key bits, one per key position
    auth_index: np.ndarray

    @cached_property
    def key_positions(self) -> list[int]:
        return self.key_index.tolist()

    @cached_property
    def key_bits(self) -> list[int]:
        return self.bits.tolist()

    @cached_property
    def auth_positions(self) -> list[int]:
        return self.auth_index.tolist()


@dataclass(frozen=True)
class TamperReport:
    """Verdict from the authentication positions.

    ``model_certification`` is the idealized detection-confidence curve
    1 - 3^(-count): it treats every wrong-filter interception at an
    authentication position as certain to alarm, so it is an upper model,
    not a prediction for any concrete resend policy.  The simulator reports
    it alongside the observed behaviour rather than asserting it.
    """

    auth_checked: int
    auth_failures: int
    tamper_detected: bool
    model_certification: float


def _tamper_report(checked: int, failures: int) -> TamperReport:
    return TamperReport(
        auth_checked=checked,
        auth_failures=failures,
        tamper_detected=failures > 0,
        model_certification=1.0 - 3.0 ** (-checked),
    )


def authenticate(outcomes: Sequence[MeasurementOutcome]) -> TamperReport:
    """Check the readings at confirmed diagonal-filter positions.

    Honest physics forces every one of them to be a detection, so each
    erasure among them is unambiguous tamper evidence.  The receiver can
    run this check alone, with no extra public traffic.
    """
    return _tamper_report(len(outcomes), sum(1 for o in outcomes if o.is_erasure))


def three_state_key_count(n: int) -> Fraction:
    """Expected key bits from n photons: 4n/9, exact."""
    if n < 0:
        raise ValueError("photon count must be non-negative")
    return Fraction(4 * n, 9)


@dataclass(frozen=True, eq=False)
class ThreeStateRun(Intercepted):
    """Everything produced by one full session.

    Per-photon lists (``alice.sent``, ``bob.outcomes``, ...) and the
    transcript are built from the session's arrays on first read.
    """

    alice: ThreeStateAliceState
    bob: ThreeStateBobState
    confirmation: Confirmation
    key_material: KeyMaterial
    alice_bits: np.ndarray
    tamper: TamperReport
    interception: Optional[Interception] = None

    @cached_property
    def alice_key_bits(self) -> list[int]:
        return self.alice_bits.tolist()

    @cached_property
    def transcript(self) -> Transcript:
        transcript = Transcript()
        transcript.announce_filters(self.bob.filters)
        transcript.announce_kept(self.confirmation.confirmed_indices)
        return transcript


def three_state_run(
    n: int,
    rng: RandomSource,
    attack: Attack = NoAttack(),
) -> ThreeStateRun:
    """Simulate one session: transmit, announce, confirm, split, check.

    Child-stream layout matches :func:`qkdsim.bb84.bb84_run`: sender,
    receiver and attacker draw from children 0, 1 and 2 of the session
    source (child 3 stays reserved), so attacks never perturb honest
    choices and sessions are reproducible from the seed alone.
    """
    if n < 1:
        raise ValueError("need at least one photon")
    alice_rng, bob_rng, eve_rng = rng.child(0), rng.child(1), rng.child(2)
    tap = partial(intercept_session, attack, THREE_STATE_FILTERS, THREE_STATE_ALPHABET, eve_rng)
    tx = transmit(THREE_STATE_ALPHABET, THREE_STATE_FILTERS, n, alice_rng, bob_rng, tap)

    confirmation = Confirmation(tx.deterministic)
    confirmed = confirmation.confirmed_index
    diagonal = tx.filters[confirmed] == _D45
    key_index = confirmed[~diagonal]
    auth_index = confirmed[diagonal]
    # Key positions have rectilinear filters, where the inference is the
    # sent state (infer_key_state); auth positions must all be detections.
    key_bits = BITS[inferred_index(tx.filters[key_index], tx.detected[key_index])]
    failures = len(auth_index) - int(np.count_nonzero(tx.detected[auth_index]))

    return ThreeStateRun(
        alice=ThreeStateAliceState(tx.sent),
        bob=ThreeStateBobState(tx.filters, tx.detected),
        confirmation=confirmation,
        key_material=KeyMaterial(key_index, key_bits, auth_index),
        alice_bits=BITS[tx.sent[key_index]],
        tamper=_tamper_report(len(auth_index), failures),
        interception=tx.interception,
    )
