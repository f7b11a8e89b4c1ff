"""Correctness checks on the program's outputs, against reference.py.

Exact properties are checked on every operation's output.  Monte Carlo
rates are checked against the hand-derived reference within ``Z`` standard
errors: per sweep cell, and for sessions pooled over a whole run in a
:class:`RateTally`, so that small sessions are judged on enough photons for
the normal approximation to hold.  Every check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import reference
from qkdsim.transcript import Transcript, TranscriptOrderError

# Standard errors a Monte Carlo rate may sit from its reference.  At 6 the
# chance that a correct program fails one check is about 2e-9, so the few
# thousand checks of a full set of runs raise no false alarm.
Z = 6.0


class CheckFailed(Exception):
    """A program output disagrees with the reference or an exact property."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def judge(label: str, observed: int, mean: Fraction, variance: Fraction) -> None:
    """``observed`` is a sum of independent draws with this mean and variance."""
    if variance == 0:
        require(observed == mean, f"{label}: {observed}, expected exactly {mean}")
        return
    z = (observed - float(mean)) / math.sqrt(variance)
    require(abs(z) <= Z, f"{label}: {observed} is {z:+.1f} SE from {float(mean):.1f}")


def binomial(label: str, hits: int, total: int, p: Fraction) -> None:
    """``hits`` out of ``total`` independent draws, each a hit with chance p."""
    judge(label, hits, total * p, total * p * (1 - p))


class RateTally:
    """Pools counts over a run; :meth:`check` judges each pool once."""

    def __init__(self) -> None:
        self.pools: dict[str, list] = {}

    def add(self, label: str, observed: int, mean: Fraction, variance: Fraction) -> None:
        pool = self.pools.setdefault(label, [0, Fraction(0), Fraction(0)])
        pool[0] += observed
        pool[1] += mean
        pool[2] += variance

    def add_binomial(self, label: str, hits: int, total: int, p: Fraction) -> None:
        self.add(label, hits, total * p, total * p * (1 - p))

    def check(self) -> None:
        for label, (observed, mean, variance) in sorted(self.pools.items()):
            judge(label, observed, mean, variance)


def check_session_document(
    text: str,
    protocol: str,
    n: int,
    m: int | None,
    trials: int,
    transcripts: bool,
    tally: RateTally,
) -> None:
    """One ``simulate`` report of honest sessions, as serialized JSON text."""
    doc = json.loads(text)
    require(doc["kind"] == "session_batch", "report kind")
    config = doc["config"]
    require(
        (config["protocol"], config["n"], config["m"], config["trials"])
        == (protocol, n, m, trials),
        f"config block {config}",
    )
    require(len(doc["trials"]) == trials, "one report per trial")
    totals = {"sent": 0, "confirmed": 0, "key": 0, "auth": 0}
    for t in doc["trials"]:
        counts = t["counts"]
        for k in totals:
            totals[k] += counts[k]
        require(counts["sent"] == n, "sent count")
        require(sum(t["outcome_counts"].values()) == n, "one reading per photon")
        require(not t["tamper"]["tamper_detected"] and not t["aborted"], "honest session flagged tampering")
        agreement = t["key_agreement"]
        require(agreement["length"] == counts["key"], "compared key length")
        require(
            agreement["differing"] == 0
            and agreement["matching"] == agreement["length"]
            and agreement["keys_match"],
            f"honest keys disagree in {agreement['differing']} bits",
        )
        if protocol == "three_state":
            require("D135" not in t["joint_counts"], "three-state sender used 135 degrees")
            require(counts["key"] + counts["auth"] == counts["confirmed"], "key/auth split")
            require(
                t["tamper"]["auth_checked"] == counts["auth"] and t["tamper"]["auth_failures"] == 0,
                "authentication positions",
            )
        else:
            require(counts["key"] == counts["confirmed"] - m, "final_key_length != sifted - m")
            require(t["tamper"]["rounds"] == m and counts["auth"] == m, "parity rounds")
        if transcripts:
            _check_transcript(t["transcript"], n, counts["confirmed"], m or 0)
        else:
            require("transcript" not in t, "transcript emitted when not requested")
    aggregate = doc["aggregate"]
    require(aggregate["totals"] == totals and aggregate["trials"] == trials, "aggregate totals")

    photons = n * trials
    if protocol == "three_state":
        tally.add_binomial("three_state confirmed rate", totals["confirmed"], photons, reference.CONFIRMED)
        tally.add_binomial("three_state auth rate", totals["auth"], photons, reference.AUTH)
        # Each session's key count is Binomial(n, 4/9).
        variance = photons * reference.KEY * (1 - reference.KEY)
        tally.add("three_state key count vs 4n/9", totals["key"], trials * reference.three_state_key_count(n), variance)
    else:
        # key = sifted - m with sifted ~ Binomial(n, 1/2).
        variance = photons * reference.SIFT * (1 - reference.SIFT)
        tally.add("bb84 key count vs n/2 - m", totals["key"], trials * reference.bb84_key_count(n, m), variance)


def _check_transcript(entries: list, n: int, confirmed: int, m: int) -> None:
    try:
        transcript = Transcript.from_jsonable(entries)
        transcript.check_wire_order()
    except (TranscriptOrderError, ValueError) as exc:
        raise CheckFailed(f"transcript: {exc}") from exc
    require(len(transcript.announced_filters()) == n, "filter announcement length")
    require(len(transcript.kept_positions()) == confirmed, "kept announcement length")
    require(len(transcript.parity_rounds()) == m, "parity rounds in transcript")


def check_sweep_cell(row, csv_text: str, cell: tuple, n: int, trials: int) -> None:
    """One ``attack-sweep`` cell: its SweepRow and its CSV rendering."""
    eve_filter, policy, fraction = cell
    require(row.policy == f"{eve_filter}/{policy}" and row.fraction == fraction, "cell identity")
    want_failure = reference.auth_failure(eve_filter, policy, fraction)
    want_error = reference.key_error(eve_filter, policy, fraction)
    require(row.oracle_failure == float(want_failure), f"{row.policy}: oracle_failure {row.oracle_failure} != {want_failure}")
    require(row.oracle_key_error == float(want_error), f"{row.policy}: oracle_key_error {row.oracle_key_error} != {want_error}")

    photons = n * trials
    binomial(f"{row.policy} auth positions", row.auth_positions, photons, reference.AUTH)
    failures = round(row.empirical_failure * row.auth_positions)
    binomial(f"{row.policy} @ {fraction} auth failures", failures, row.auth_positions, want_failure)
    # The report gives the key error as a rate only; judge it on the fewest
    # key bits the cell can plausibly have compared, which widens the band.
    if want_error == 0:
        require(row.key_error_rate == 0.0, f"{row.policy}: key errors where none can occur")
    else:
        p_key = float(reference.KEY)
        fewest = photons * p_key - Z * math.sqrt(photons * p_key * (1 - p_key))
        se = math.sqrt(float(want_error * (1 - want_error)) / fewest)
        z = (row.key_error_rate - float(want_error)) / se
        require(abs(z) <= Z, f"{row.policy} @ {fraction}: key error {row.key_error_rate:.4f} is {z:+.1f} SE from {want_error}")

    header, line = csv_text.splitlines()
    require(header.startswith("policy, fraction, empirical_failure"), "CSV header")
    fields = line.split(", ")
    require(fields[:2] == [row.policy, str(fraction)], "CSV cell identity")
    rates = (row.empirical_failure, row.oracle_failure, row.paper_model, row.detection_rate, row.key_error_rate)
    require(fields[2:] == [f"{v:.6f}" for v in rates], "CSV rates match the row")
