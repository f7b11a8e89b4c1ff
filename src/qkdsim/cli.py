"""Command-line front end.

Four subcommands:

* ``simulate``     — run seeded protocol sessions, emit a JSON batch report
* ``analyze``      — print the exact joint distribution / entropy numbers
* ``compare``      — key-length and certification trade-off at a given (n, m)
* ``attack-sweep`` — interception grid vs. the enumeration oracles, as CSV
  or JSON (``--format``)

Each subcommand's parser is its only option schema.  A ``--config`` JSON
file's keys are that subcommand's option names with underscores, checked
against the parser's types and choices; its values become the parser's
defaults.  Precedence: command line > config file > ``QKDSIM_SEED`` (the
``--seed`` default, ``simulate`` and ``attack-sweep`` only) > built-in
defaults.  Exit codes: 0 on success, 1 on invalid configuration or runtime
error, 2 when a simulated session aborted on tamper evidence (the report is
still written).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from typing import Any, Callable, Optional, Sequence

from .analysis import (
    LOG2_3,
    auth_fraction,
    compare,
    entropy_report,
    equal_confidence_rounds,
    information_rate_chain,
    joint_distribution,
    kept_fraction,
    key_fraction,
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
    filter_choice_label,
    outcome_label,
    report_document,
    run,
    sweep_to_csv,
    to_json,
)
from .photons import Polarization, ResendPolicy

ENV_SEED = "QKDSIM_SEED"

# "uniform" (a fresh random filter per photon) or an angle, as the sweep labels them.
_FILTERS = {filter_choice_label(choice): choice for choice in (None, *Polarization)}


class _CLIError(Exception):
    """Argument or configuration problem surfaced as exit code 1."""


class _Parser(argparse.ArgumentParser):
    commands: dict[str, argparse.ArgumentParser]

    # argparse exits with status 2 on bad flags; our status 2 means
    # "tamper abort", so route parse errors through the normal error path.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _CLIError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="qkdsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, seeded: bool) -> None:
        if seeded:
            # A string default goes through type=int, so a bad QKDSIM_SEED
            # fails the parse like a bad --seed.
            p.add_argument("--seed", type=int, default=os.environ.get(ENV_SEED, 0))
        p.add_argument("--config", help="JSON file of option defaults")
        p.add_argument("--output", help="write here instead of stdout")

    sim = sub.add_parser("simulate", help="run seeded protocol sessions")
    sim.add_argument("--protocol", choices=["three-state", "three_state", "bb84"])
    sim.add_argument("--n", type=int, help="photons per session")
    sim.add_argument("--m", type=int, help="bb84 parity rounds")
    sim.add_argument(
        "--attack", choices=["none", "passive", "intercept", "stuck"], default="none"
    )
    sim.add_argument("--eve-filter", choices=sorted(_FILTERS), default="uniform")
    sim.add_argument(
        "--resend-policy",
        choices=[p.value for p in ResendPolicy],
        default=ResendPolicy.ORTHOGONAL_INFERENCE.value,
    )
    sim.add_argument("--fraction", type=float, default=1.0)
    sim.add_argument(
        "--stuck-angle", choices=[filter_choice_label(p) for p in Polarization], default="z0"
    )
    sim.add_argument("--trials", type=int, default=1)
    sim.add_argument(
        "--abort-on-tamper", action=argparse.BooleanOptionalAction, default=True
    )
    sim.add_argument(
        "--include-transcripts", action=argparse.BooleanOptionalAction, default=False
    )
    add_io(sim, seeded=True)
    sim.set_defaults(handler=_cmd_simulate)

    ana = sub.add_parser("analyze", help="exact distribution and entropy report")
    add_io(ana, seeded=False)
    ana.set_defaults(handler=_cmd_analyze)

    cmp_ = sub.add_parser("compare", help="three-state vs bb84 at a given n, m")
    cmp_.add_argument("--n", type=int)
    cmp_.add_argument("--m", type=int)
    add_io(cmp_, seeded=False)
    cmp_.set_defaults(handler=_cmd_compare)

    sweep = sub.add_parser("attack-sweep", help="interception grid vs oracles")
    sweep.add_argument("--n", type=int)
    sweep.add_argument("--trials", type=int, default=1)
    sweep.add_argument(
        "--fractions", default="1.0", help="comma-separated, e.g. 0.25,0.5,1.0"
    )
    sweep.add_argument(
        "--eve-filters",
        default=",".join(map(filter_choice_label, DEFAULT_FILTER_CHOICES)),
        help=f"comma-separated subset of {','.join(_FILTERS)}",
    )
    sweep.add_argument(
        "--resend-policies",
        default=",".join(p.value for p in DEFAULT_RESEND_POLICIES),
        help="comma-separated subset of %(default)s",
    )
    sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    add_io(sweep, seeded=True)
    sweep.set_defaults(handler=_cmd_attack_sweep)

    parser.commands = sub.choices
    return parser


def _read_config(path: str, command: argparse.ArgumentParser) -> dict[str, Any]:
    """The option values in a JSON config file, checked against ``command``.

    Keys are the option names with underscores.  A value must have the exact
    JSON type its option parses to: bool("false") is True and int(54.9) is
    54, so converting would hide a mistyped value.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _CLIError(f"config: {exc}") from exc
    if not isinstance(loaded, dict):
        raise _CLIError("config: expected a JSON object of option values")
    actions = {a.dest: a for a in command._actions if a.dest not in ("help", "config")}
    values = {}
    for name, value in loaded.items():
        action = actions.get(name)
        if action is None:
            raise _CLIError(f"{name}: not an option of {command.prog}")
        if isinstance(action, argparse.BooleanOptionalAction):
            ok, expected = type(value) is bool, "true or false"
        elif action.type is int:
            ok, expected = type(value) is int, "an integer"
        elif action.type is float:
            ok, expected = type(value) in (int, float), "a number"
        elif action.choices is not None:
            ok, expected = value in action.choices, f"one of {', '.join(action.choices)}"
        else:
            ok, expected = type(value) is str, "a string"
        if not ok:
            raise _CLIError(f"{name}: expected {expected}, got {value!r}")
        values[name] = value if action.type is None else action.type(value)
    return values


def _build_attack(args: argparse.Namespace) -> Attack:
    # Every attack is built, so a bad value of an option that --attack does
    # not use still fails instead of being ignored.
    return {
        "none": NoAttack(),
        "passive": PassiveClassical(),
        "stuck": StuckFilter(angle=_FILTERS[args.stuck_angle]),
        "intercept": InterceptResend(
            filter_choice=_FILTERS[args.eve_filter],
            resend=ResendPolicy(args.resend_policy),
            fraction=args.fraction,
        ),
    }[args.attack]


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise _CLIError(f"{name}: required")


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_simulate(args: argparse.Namespace) -> int:
    _require(args, "protocol", "n")
    config = SessionConfig(
        protocol=args.protocol.replace("-", "_"),
        n=args.n,
        m=args.m,
        attack=_build_attack(args),
        seed=args.seed,
        trials=args.trials,
        abort_on_tamper=args.abort_on_tamper,
        include_transcripts=args.include_transcripts,
    )
    reports = run(config)
    _write_output(to_json(report_document(config, reports)), args.output)
    return 2 if any(r["aborted"] for r in reports) else 0


def _analyze_document() -> dict[str, Any]:
    joint = joint_distribution()
    report = entropy_report()
    chain = information_rate_chain()

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
            "h_a": report.h_a.to_jsonable(),
            "h_b": report.h_b.to_jsonable(),
            "h_ab": report.h_ab.to_jsonable(),
            "mutual_info": report.mutual_info.to_jsonable(),
            "equivocation": report.equivocation.to_jsonable(),
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
    _write_output(to_json(_analyze_document()), args.output)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    _require(args, "n", "m")
    n, m = args.n, args.m
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
            "three_state": result.three_state_cert,
            "bb84": result.bb84_cert,
        },
    }
    _write_output(to_json(document), args.output)
    return 0


def _split_list(args: argparse.Namespace, name: str, parse: Callable[[str], Any]) -> list:
    """Parse a comma-separated option; errors name it as spelled on the command line."""
    label = name.replace("_", "-")
    text = getattr(args, name)
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise _CLIError(f"{label}: expected at least one entry, got {text!r}")
    try:
        return [parse(item) for item in items]
    except KeyError as exc:
        raise _CLIError(f"{label}: unknown choice {exc}") from exc
    except ValueError as exc:
        raise _CLIError(f"{label}: {exc}") from exc


def _cmd_attack_sweep(args: argparse.Namespace) -> int:
    filter_choices = _split_list(args, "eve_filters", lambda x: _FILTERS[x.lower()])
    policies = _split_list(args, "resend_policies", ResendPolicy)
    # Building each cell's attack checks the range before any session runs.
    fractions = _split_list(
        args, "fractions", lambda x: InterceptResend(fraction=float(x)).fraction
    )
    _require(args, "n")
    base = SessionConfig(protocol="three_state", n=args.n, seed=args.seed, trials=args.trials)
    rows = attack_sweep(
        base, filter_choices=filter_choices, policies=policies, fractions=fractions
    )
    if args.format == "csv":
        text = sweep_to_csv(rows)
    else:
        text = to_json(
            {
                "schema_version": SCHEMA_VERSION,
                "kind": "attack_sweep",
                "rows": [asdict(row) for row in rows],
            }
        )
    _write_output(text, args.output)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # File values become the subcommand's defaults, so flags still win.
            command = parser.commands[args.command]
            command.set_defaults(**_read_config(args.config, command))
            args = parser.parse_args(argv)
        return args.handler(args)
    except (_CLIError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
