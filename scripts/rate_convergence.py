#!/usr/bin/env python3
"""Watch the empirical confirmed/key/auth fractions converge to 5/9, 4/9, 1/9.

Runs honest three-state sessions over a geometric grid of photon counts and
prints the measured fractions next to the exact rates, with binomial
standard errors for scale.
"""

import argparse

from qkdsim.analysis import auth_fraction, kept_fraction, key_fraction, standard_error
from qkdsim.photons import THREE_STATE
from qkdsim.rng import RandomSource, derive_child_seed
from qkdsim.session import run_session


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--start", type=int, default=90, help="smallest n")
    parser.add_argument("--steps", type=int, default=5, help="grid points (x10 each)")
    args = parser.parse_args(argv)

    exact = {
        "confirmed": float(kept_fraction(THREE_STATE)),
        "key": float(key_fraction(THREE_STATE)),
        "auth": float(auth_fraction(THREE_STATE)),
    }
    print(f"exact rates: confirmed {exact['confirmed']:.6f}  "
          f"key {exact['key']:.6f}  auth {exact['auth']:.6f}")
    print(f"{'n':>9}  {'confirmed':>10} {'key':>10} {'auth':>10}  {'max |err|/se':>12}")

    n = args.start
    for step in range(args.steps):
        session = run_session(THREE_STATE, n, RandomSource(derive_child_seed(args.seed, step)))
        confirmed = session.confirmed / n
        key = session.key_count / n
        auth = session.auth_count / n
        worst = max(
            abs(confirmed - exact["confirmed"]) / standard_error(exact["confirmed"], n),
            abs(key - exact["key"]) / standard_error(exact["key"], n),
            abs(auth - exact["auth"]) / standard_error(exact["auth"], n),
        )
        print(f"{n:>9}  {confirmed:>10.5f} {key:>10.5f} {auth:>10.5f}  {worst:>11.2f}σ")
        n *= 10
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
