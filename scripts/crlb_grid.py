#!/usr/bin/env python3
"""Sweep the efficiency experiment over a grid of shapes, scales, and sizes.

Writes one CSV row per (beta, theta, n) cell with the Monte Carlo variance of
the maximum-likelihood scale estimate, the information bound, and their ratio.

Example:
    python3 scripts/crlb_grid.py --betas 2,4 --thetas 1,3 --sizes 100,1000,10000
"""

import argparse
import sys

from gennorm_fisher.cli import csv_table, emit
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
    parser.add_argument("--seed", type=int, default=20260819)
    parser.add_argument("--output", default=None,
                        help="write CSV here instead of stdout")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    betas = [int(b) for b in args.betas.split(",")]
    thetas = [float(t) for t in args.thetas.split(",")]
    sizes = [int(n) for n in args.sizes.split(",")]

    rows = []
    for beta in betas:
        for theta in thetas:
            for n in sizes:
                config = ExperimentConfig(beta=beta, theta_true=theta, n=n,
                                          trials=args.trials, seed=args.seed)
                rep = run_crlb_experiment(config)
                rows.append((beta, theta, n, args.trials, rep.mle_mean, rep.mle_variance,
                             rep.crlb, rep.efficiency, rep.variance_stderr,
                             rep.failed_trials))
                print(f"beta={beta} theta={theta} n={n}: "
                      f"efficiency={rep.efficiency:.4f}", file=sys.stderr)

    emit(csv_table(COLUMNS, rows), args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
