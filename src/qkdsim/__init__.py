"""Simulator and exact analysis for a three-state key protocol and BB84.

The physical layer models four photon polarizations measured through
detect-or-erase filters on a clocked channel, so a missing detection is
itself a signal.  On top of that sit two protocols — a three-state scheme
whose confirmed diagonal positions double as tamper evidence, and a BB84
baseline certified by parity rounds — plus enumeration oracles for every
supported attack and a seeded Monte Carlo harness that reproduces the
exact numbers empirically.  Each layer is its own module (see the README);
the package re-exports only the exact counterparts the README names.
"""

from .analysis import (
    auth_failure_probability,
    cell_probabilities,
    compare,
    entropy_report,
    key_error_probability,
)

__version__ = "0.1.0"

__all__ = [
    "auth_failure_probability",
    "cell_probabilities",
    "compare",
    "entropy_report",
    "key_error_probability",
]
