"""Hand-derived expected values for the benchmark's correctness checks.

Worked out from the channel law alone (cos^2 of the angle difference on a
45-degree grid) and derived step by step in README.md.  Nothing here is
imported from qkdsim, so the checks do not trust the program's own oracles;
they compare those oracles against these numbers instead.
"""

from __future__ import annotations

from fractions import Fraction

# Honest sessions, per photon sent.
CONFIRMED = Fraction(5, 9)  # three-state: 5 of the 9 (sent, filter) cells read deterministically
KEY = Fraction(4, 9)  # three-state: the 4 confirmed cells under a rectilinear filter
AUTH = Fraction(1, 9)  # three-state: the (45, 45) cell
SIFT = Fraction(1, 2)  # BB84: the filter basis matches the sent basis

RESEND_POLICIES = ("orthogonal", "nothing", "random")
EVE_FILTERS = ("uniform", "z0", "d45", "z90")

# Full interception (fraction 1), per (eve filter, resend policy).
_AUTH_FAILURE_ROWS = {
    "uniform": (Fraction(1, 3), Fraction(1, 2), Fraction(5, 18)),
    "z0": (Fraction(1, 2), Fraction(3, 4), Fraction(5, 12)),
    "d45": (Fraction(0), Fraction(0), Fraction(0)),
    "z90": (Fraction(1, 2), Fraction(3, 4), Fraction(5, 12)),
}
_KEY_ERROR_ROWS = {
    "uniform": (Fraction(1, 6), Fraction(1, 3), Fraction(1, 3)),
    "z0": (Fraction(0), Fraction(1, 4), Fraction(1, 4)),
    "d45": (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
    "z90": (Fraction(0), Fraction(1, 4), Fraction(1, 4)),
}


def _cell(rows: dict, eve_filter: str, policy: str, fraction: float) -> Fraction:
    # Photons the attacker lets through are never disturbed, so both rates
    # are a mixture: fraction x (full-interception value) + (1 - fraction) x 0.
    return rows[eve_filter][RESEND_POLICIES.index(policy)] * Fraction(fraction)


def auth_failure(eve_filter: str, policy: str, fraction: float) -> Fraction:
    """Chance one authentication position reads an erasure."""
    return _cell(_AUTH_FAILURE_ROWS, eve_filter, policy, fraction)


def key_error(eve_filter: str, policy: str, fraction: float) -> Fraction:
    """Chance one confirmed key position yields disagreeing bits."""
    return _cell(_KEY_ERROR_ROWS, eve_filter, policy, fraction)


def three_state_key_count(n: int) -> Fraction:
    """Expected three-state key bits from n photons."""
    return KEY * n


def bb84_key_count(n: int, m: int) -> Fraction:
    """Expected BB84 key bits after m parity rounds, each discarding one bit."""
    return SIFT * n - m
