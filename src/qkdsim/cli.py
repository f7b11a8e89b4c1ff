"""Command-line front end.

Four subcommands:

* ``simulate``     — run seeded protocol sessions, emit a JSON batch report
* ``analyze``      — print the exact joint distribution / entropy numbers
* ``compare``      — key-length and certification trade-off at a given (n, m)
* ``attack-sweep`` — interception grid vs. the enumeration oracles, as CSV

Option precedence is command line > ``--config`` JSON file > ``QKDSIM_SEED``
environment variable (seed only) > built-in defaults.  Exit codes: 0 on
success, 1 on invalid configuration or runtime error, 2 when a simulated
session aborted on tamper evidence (the report is still written).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any, Optional, Sequence

from .analysis import (
    LOG2_3,
    auth_fraction,
    bb84_certification_probability,
    compare,
    entropy_report,
    equal_confidence_rounds,
    information_rate_chain,
    joint_distribution,
    kept_fraction,
    key_fraction,
    three_state_certification_probability,
)
from .eavesdrop import (
    Attack,
    InterceptResend,
    NoAttack,
    PassiveClassical,
    StuckFilter,
)
from .harness import (
    DEFAULT_FILTER_CHOICES,
    DEFAULT_RESEND_POLICIES,
    SCHEMA_VERSION,
    SessionConfig,
    attack_sweep,
    outcome_label,
    report_document,
    run,
    sweep_to_csv,
    to_json,
)
from .photons import Polarization, ResendPolicy

ENV_SEED = "QKDSIM_SEED"

_FILTER_NAMES = {
    "uniform": None,
    "z0": Polarization.Z0,
    "d45": Polarization.D45,
    "z90": Polarization.Z90,
    "d135": Polarization.D135,
}


# Config-file values that must have an exact JSON type: bool("false") is True
# and int(54.9) is 54, so converting them would hide a mistyped value.
_CONFIG_TYPES = {
    **dict.fromkeys(("seed", "n", "m", "trials"), ((int,), "an integer")),
    **dict.fromkeys(("abort_on_tamper", "include_transcripts"), ((bool,), "true or false")),
    "fraction": ((int, float), "a number"),
}


class _CLIError(Exception):
    """Argument or configuration problem surfaced as exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; our status 2 means
    # "tamper abort", so route parse errors through the normal error path.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _CLIError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qkdsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, formats: Sequence[str]) -> None:
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", default=None, help="JSON file of option defaults")
        p.add_argument("--output", default=None, help="write here instead of stdout")
        p.add_argument("--format", choices=list(formats), default=None)

    sim = sub.add_parser("simulate", help="run seeded protocol sessions")
    sim.add_argument("--protocol", choices=["three-state", "three_state", "bb84"])
    sim.add_argument("--n", type=int, default=None, help="photons per session")
    sim.add_argument("--m", type=int, default=None, help="bb84 parity rounds")
    sim.add_argument(
        "--attack", choices=["none", "passive", "intercept", "stuck"], default=None
    )
    sim.add_argument("--eve-filter", choices=sorted(_FILTER_NAMES), default=None)
    sim.add_argument(
        "--resend-policy", choices=[p.value for p in ResendPolicy], default=None
    )
    sim.add_argument("--fraction", type=float, default=None)
    sim.add_argument(
        "--stuck-angle", choices=["z0", "d45", "z90", "d135"], default=None
    )
    sim.add_argument("--trials", type=int, default=None)
    sim.add_argument(
        "--abort-on-tamper", action=argparse.BooleanOptionalAction, default=None
    )
    sim.add_argument(
        "--include-transcripts", action=argparse.BooleanOptionalAction, default=None
    )
    add_io(sim, formats=["json"])

    ana = sub.add_parser("analyze", help="exact distribution and entropy report")
    add_io(ana, formats=["json"])

    cmp_ = sub.add_parser("compare", help="three-state vs bb84 at a given n, m")
    cmp_.add_argument("--n", type=int, default=None)
    cmp_.add_argument("--m", type=int, default=None)
    add_io(cmp_, formats=["json"])

    sweep = sub.add_parser("attack-sweep", help="interception grid vs oracles")
    sweep.add_argument("--n", type=int, default=None)
    sweep.add_argument("--trials", type=int, default=None)
    sweep.add_argument(
        "--fractions", default=None, help="comma-separated, e.g. 0.25,0.5,1.0"
    )
    sweep.add_argument(
        "--eve-filters", default=None, help="comma-separated subset of uniform,z0,d45,z90"
    )
    sweep.add_argument(
        "--resend-policies",
        default=None,
        help="comma-separated subset of orthogonal,nothing,random",
    )
    add_io(sweep, formats=["csv", "json"])
    return parser


class _Options:
    """Merged view of CLI flags, config-file values, and defaults."""

    def __init__(self, args: argparse.Namespace):
        self._args = args
        self._file: dict[str, Any] = {}
        path = getattr(args, "config", None)
        if path:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    loaded = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise _CLIError(f"config: {exc}") from exc
            if not isinstance(loaded, dict):
                raise _CLIError("config: expected a JSON object of option values")
            for name, (kinds, expected) in _CONFIG_TYPES.items():
                if name in loaded and type(loaded[name]) not in kinds:
                    raise _CLIError(f"{name}: expected {expected}, got {loaded[name]!r}")
            self._file = loaded

    def pick(self, name: str, default: Any = None) -> Any:
        value = getattr(self._args, name, None)
        if value is not None:
            return value
        if name in self._file:
            return self._file[name]
        return default

    def seed(self) -> int:
        value = self.pick("seed")
        if value is None:
            value = os.environ.get(ENV_SEED, 0)
        try:
            return int(value)
        except (TypeError, ValueError) as exc:
            raise _CLIError(f"seed: expected an integer, got {value!r}") from exc


def _build_attack(opts: _Options) -> Attack:
    kind = opts.pick("attack", "none")
    if kind == "none":
        return NoAttack()
    if kind == "passive":
        return PassiveClassical()
    if kind == "stuck":
        angle = str(opts.pick("stuck_angle", "z0")).lower()
        if angle not in _FILTER_NAMES or angle == "uniform":
            raise _CLIError(f"stuck-angle: unknown angle {angle!r}")
        return StuckFilter(angle=_FILTER_NAMES[angle])
    if kind == "intercept":
        filter_name = str(opts.pick("eve_filter", "uniform")).lower()
        if filter_name not in _FILTER_NAMES:
            raise _CLIError(f"eve-filter: unknown choice {filter_name!r}")
        policy_name = str(opts.pick("resend_policy", ResendPolicy.ORTHOGONAL_INFERENCE.value))
        try:
            policy = ResendPolicy(policy_name)
        except ValueError as exc:
            raise _CLIError(f"resend-policy: unknown policy {policy_name!r}") from exc
        return InterceptResend(
            filter_choice=_FILTER_NAMES[filter_name],
            resend=policy,
            fraction=float(opts.pick("fraction", 1.0)),
        )
    raise _CLIError(f"attack: unknown kind {kind!r}")


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _require_int(opts: _Options, name: str) -> int:
    value = opts.pick(name)
    if value is None:
        raise _CLIError(f"{name}: required")
    return value


def _cmd_simulate(args: argparse.Namespace) -> int:
    opts = _Options(args)
    fmt = opts.pick("format", "json")
    if fmt != "json":
        raise _CLIError(f"format: simulate only emits json, got {fmt!r}")
    protocol = opts.pick("protocol")
    if protocol is None:
        raise _CLIError("protocol: required")
    protocol = str(protocol).replace("-", "_")
    config = SessionConfig(
        protocol=protocol,
        n=_require_int(opts, "n"),
        m=opts.pick("m"),
        attack=_build_attack(opts),
        seed=opts.seed(),
        trials=opts.pick("trials", 1),
        abort_on_tamper=opts.pick("abort_on_tamper", True),
        include_transcripts=opts.pick("include_transcripts", False),
    ).validate()
    reports = run(config)
    _write_output(to_json(report_document(config, reports)), opts.pick("output"))
    return 2 if any(r.aborted for r in reports) else 0


def _analyze_document() -> dict[str, Any]:
    joint = joint_distribution()
    report = entropy_report(joint)
    chain = information_rate_chain()

    def entropy_field(bits) -> dict[str, Any]:
        doc = bits.to_jsonable()
        doc["bits_4dp"] = round(float(bits), 4)
        return doc

    cells = {
        sender.name: {
            outcome_label(outcome): str(joint.probability(sender, outcome))
            for outcome in joint.outcomes
        }
        for sender in joint.senders
    }
    marginal = {
        outcome_label(outcome): str(prob)
        for outcome, prob in joint.receiver_marginal().items()
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "exact_analysis",
        "joint_distribution": cells,
        "receiver_marginal": marginal,
        "total_mass": str(joint.total()),
        "entropies": {
            "h_a": entropy_field(report.h_a),
            "h_b": entropy_field(report.h_b),
            "h_ab": entropy_field(report.h_ab),
            "mutual_info": entropy_field(report.mutual_info),
            "equivocation": entropy_field(report.equivocation),
        },
        "information_rate_chain": {
            "per_photon_uncertainty": str(chain.per_photon_uncertainty),
            "after_auth_exclusion": str(chain.after_auth_exclusion),
            "usable_key_rate": str(chain.usable_key_rate),
        },
        "rates": {
            "confirmed": str(kept_fraction()),
            "key": str(key_fraction()),
            "auth": str(auth_fraction()),
        },
        "equal_confidence_rounds_per_photon": LOG2_3 / 9.0,
    }


def _cmd_analyze(args: argparse.Namespace) -> int:
    opts = _Options(args)
    fmt = opts.pick("format", "json")
    if fmt != "json":
        raise _CLIError(f"format: analyze only emits json, got {fmt!r}")
    _write_output(to_json(_analyze_document()), opts.pick("output"))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    opts = _Options(args)
    fmt = opts.pick("format", "json")
    if fmt != "json":
        raise _CLIError(f"format: compare only emits json, got {fmt!r}")
    n = _require_int(opts, "n")
    m = _require_int(opts, "m")
    result = compare(n, m)
    document = {
        "schema_version": SCHEMA_VERSION,
        "kind": "protocol_comparison",
        "n": n,
        "m": m,
        "three_state": {
            "expected_key_bits": str(result.three_state_key),
            "expected_key_bits_floor": math.floor(result.three_state_key),
            "certification_probability": result.three_state_cert,
        },
        "bb84": {
            "expected_key_bits": str(result.bb84_key),
            "expected_key_bits_floor": math.floor(result.bb84_key),
            "certification_probability": result.bb84_cert,
        },
        "key_advantage": str(result.key_advantage),
        "equal_keys": result.key_advantage == 0,
        "favored_on_key": result.favored_on_key,
        "crossover_n": result.crossover_n,
        "equal_confidence_rounds": equal_confidence_rounds(n),
        "certification_models": {
            "three_state": three_state_certification_probability(n),
            "bb84": bb84_certification_probability(m),
        },
    }
    _write_output(to_json(document), opts.pick("output"))
    return 0


def _split_csv(text: str) -> list[str]:
    return [part.strip() for part in str(text).split(",") if part.strip()]


def _cmd_attack_sweep(args: argparse.Namespace) -> int:
    opts = _Options(args)
    fmt = opts.pick("format", "csv")
    if fmt not in ("csv", "json"):
        raise _CLIError(f"format: attack-sweep emits csv or json, got {fmt!r}")

    filters_spec = opts.pick("eve_filters")
    if filters_spec is None:
        filter_choices = DEFAULT_FILTER_CHOICES
    else:
        filter_choices = []
        for name in _split_csv(filters_spec):
            if name.lower() not in _FILTER_NAMES:
                raise _CLIError(f"eve-filters: unknown choice {name!r}")
            filter_choices.append(_FILTER_NAMES[name.lower()])

    policies_spec = opts.pick("resend_policies")
    if policies_spec is None:
        policies = DEFAULT_RESEND_POLICIES
    else:
        try:
            policies = [ResendPolicy(name) for name in _split_csv(policies_spec)]
        except ValueError as exc:
            raise _CLIError(f"resend-policies: {exc}") from exc

    fractions_spec = opts.pick("fractions")
    try:
        fractions = (
            [1.0] if fractions_spec is None else [float(x) for x in _split_csv(fractions_spec)]
        )
        for fraction in fractions:
            InterceptResend(fraction=fraction)  # checks the range before any session runs
    except ValueError as exc:
        raise _CLIError(f"fractions: {exc}") from exc

    base = SessionConfig(
        protocol="three_state",
        n=_require_int(opts, "n"),
        seed=opts.seed(),
        trials=opts.pick("trials", 1),
    )
    rows = attack_sweep(
        base, filter_choices=filter_choices, policies=policies, fractions=fractions
    )
    if fmt == "csv":
        text = sweep_to_csv(rows)
    else:
        text = to_json(
            {
                "schema_version": SCHEMA_VERSION,
                "kind": "attack_sweep",
                "rows": [row.to_jsonable() for row in rows],
            }
        )
    _write_output(text, opts.pick("output"))
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "compare": _cmd_compare,
    "attack-sweep": _cmd_attack_sweep,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_CLIError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
