"""The benchmark's workloads: each a fixed cycle of operations.

An operation drives qkdsim only through the public functions the CLI uses:
``SessionConfig`` -> ``harness.run_trial`` -> ``report_document`` +
``to_json`` (the path of ``qkdsim simulate``), or ``harness.attack_sweep``
-> ``sweep_to_csv`` (the path of ``qkdsim attack-sweep``).  Functions are
looked up on the ``harness`` module at call time, so the traced run sees
the tracer's wrappers.  Each operation returns the program's output and is
paired with the check that judges it (checks.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import checks
import reference
from qkdsim import harness
from qkdsim.photons import Polarization, ResendPolicy


@dataclass(frozen=True)
class Operation:
    label: str
    photons: int
    run: Callable[[int], Any]  # seed -> program output
    check: Callable[[Any, "checks.RateTally"], None]


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple[Operation, ...]
    warmup: tuple[Operation, ...]  # small operations on the same code paths


def simulate(protocol: str, n: int, m: Optional[int], trials: int, transcripts: bool) -> Operation:
    """One ``qkdsim simulate`` invocation, serialized to JSON text."""

    def run(seed: int) -> str:
        config = harness.SessionConfig(
            protocol=protocol, n=n, m=m, seed=seed, trials=trials, include_transcripts=transcripts
        ).validate()
        reports = [harness.run_trial(config, t) for t in range(trials)]
        return harness.to_json(harness.report_document(config, reports))

    def check(text: str, tally: checks.RateTally) -> None:
        checks.check_session_document(text, protocol, n, m, trials, transcripts, tally)

    return Operation(f"{protocol} n={n}", n * trials, run, check)


def sweep_cell(eve_filter: str, policy: str, fraction: float, n: int, trials: int) -> Operation:
    """One cell of ``qkdsim attack-sweep``: its row and its CSV text."""
    choice = None if eve_filter == "uniform" else Polarization[eve_filter.upper()]
    resend = ResendPolicy(policy)

    def run(seed: int):
        base = harness.SessionConfig(protocol="three_state", n=n, seed=seed, trials=trials)
        rows = harness.attack_sweep(base, [choice], [resend], [fraction])
        return rows[0], harness.sweep_to_csv(rows)

    def check(output, tally: checks.RateTally) -> None:
        row, csv_text = output
        checks.check_sweep_cell(row, csv_text, (eve_filter, policy, fraction), n, trials)

    return Operation(f"{eve_filter}/{policy}@{fraction}", n * trials, run, check)


# honest_bulk: large sessions where per-photon sampling dominates.  n is far
# above the crossover 18m; m is small.  Three three-state and two BB84
# sessions per cycle: an odd count puts the median session inside one
# protocol's cluster of times rather than in the gap between the two.
HONEST_N = 60_000
HONEST_M = 8

# intercept_sweep: every interception cell at full and at half interception.
SWEEP_N = 9_000
SWEEP_TRIALS = 2
SWEEP_FRACTIONS = (1.0, 0.5)

# crossover_batch: small sessions on a grid straddling 18m = 360 photons.
# The grid starts at 120: a BB84 sifted key is Binomial(n, 1/2), and at
# n = 120 it falls to m = 20 bits or below with chance under 1e-12, so no
# trial raises KeyTooShort.
CROSS_M = 20
CROSS_GRID = tuple(range(120, 721, 60))
CROSS_TRIALS = 3

WORKLOADS = {
    "honest_bulk": Workload(
        "honest_bulk",
        cycle=(
            simulate("three_state", HONEST_N, None, 1, False),
            simulate("bb84", HONEST_N, HONEST_M, 1, False),
            simulate("three_state", HONEST_N, None, 1, False),
            simulate("bb84", HONEST_N, HONEST_M, 1, False),
            simulate("three_state", HONEST_N, None, 1, False),
        ),
        warmup=(
            simulate("three_state", 900, None, 1, False),
            simulate("bb84", 900, HONEST_M, 1, False),
        ),
    ),
    "intercept_sweep": Workload(
        "intercept_sweep",
        cycle=tuple(
            sweep_cell(f, p, fraction, SWEEP_N, SWEEP_TRIALS)
            for f in reference.EVE_FILTERS
            for p in reference.RESEND_POLICIES
            for fraction in SWEEP_FRACTIONS
        ),
        warmup=(sweep_cell("uniform", "random", 1.0, 900, 1),),
    ),
    "crossover_batch": Workload(
        "crossover_batch",
        cycle=tuple(
            simulate(protocol, n, CROSS_M if protocol == "bb84" else None, CROSS_TRIALS, True)
            for n in CROSS_GRID
            for protocol in ("three_state", "bb84")
        ),
        warmup=(
            simulate("three_state", CROSS_GRID[0], None, 1, True),
            simulate("bb84", CROSS_GRID[0], CROSS_M, 1, True),
        ),
    ),
}
