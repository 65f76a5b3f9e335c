#!/usr/bin/env python3
"""Sweep the efficiency experiment over a grid of shapes, scales, and sizes.

Writes one CSV row per (beta, theta, n) cell with the Monte Carlo variance of
the maximum-likelihood scale estimate, the information bound, and their ratio.

Example:
    python3 scripts/crlb_grid.py --betas 2,4 --thetas 1,3 --sizes 100,1000,10000
"""

import argparse
import sys
from itertools import product

from gennorm_fisher.cli import DEFAULT_SEED, csv_table, emit
from gennorm_fisher.estimation import ExperimentConfig, run_crlb_experiment

COLUMNS = ("beta", "theta", "n", "trials", "mle_mean", "mle_variance",
           "crlb", "efficiency", "variance_stderr", "failed_trials")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--betas", default="2,4,6,8",
                        help="comma-separated even shape values")
    parser.add_argument("--thetas", default="1.0",
                        help="comma-separated true scale values")
    parser.add_argument("--sizes", default="100,1000,10000",
                        help="comma-separated per-trial sample sizes")
    parser.add_argument("--trials", type=int, default=1000,
                        help="trials per cell")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--output", default=None,
                        help="write CSV here instead of stdout")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # as in the CLI: a bad input is an `error:` line and exit 2, found before any cell runs
    try:
        grid = product([int(b) for b in args.betas.split(",")],
                       [float(t) for t in args.thetas.split(",")],
                       [int(n) for n in args.sizes.split(",")])
        configs = [ExperimentConfig(beta=beta, theta_true=theta, n=n, trials=args.trials,
                                    seed=args.seed) for beta, theta, n in grid]
        rows = []
        for c in configs:
            rep = run_crlb_experiment(c)
            rows.append((c.beta, c.theta_true, c.n, c.trials, rep.mle_mean, rep.mle_variance,
                         rep.crlb, rep.efficiency, rep.variance_stderr, rep.failed_trials))
            print(f"beta={c.beta} theta={c.theta_true} n={c.n}: "
                  f"efficiency={rep.efficiency:.4f}", file=sys.stderr)
        emit(csv_table(COLUMNS, rows), args.output)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
