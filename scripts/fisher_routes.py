#!/usr/bin/env python3
"""Compare all four Fisher-information routes along a sweep of even shapes.

For each beta the closed form beta/theta^2 is printed next to the two
quadrature routes (variance of the score, negated expected second derivative)
and a Monte Carlo estimate, with relative gaps against the closed form.

Example:
    python3 scripts/fisher_routes.py --betas 2,4,8,16,50,100 --theta 1.3
"""

import argparse
import sys

from gennorm_fisher import METHODS, GenNormParams
from gennorm_fisher.cli import DEFAULT_SEED, csv_table, emit
from gennorm_fisher.exact import require_even_shape

COLUMNS = ("beta", *METHODS, "mc_stderr", "rel_gap_quad", "rel_gap_mc")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--betas", default="2,4,6,8,10,12,16,20,50,100",
                        help="comma-separated even shape values")
    parser.add_argument("--theta", type=float, default=1.0)
    parser.add_argument("--tol", type=float, default=1e-9,
                        help="relative tolerance for the quadrature routes")
    parser.add_argument("--n", type=int, default=10**6,
                        help="Monte Carlo sample size")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--output", default=None,
                        help="write CSV here instead of stdout")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # as in the CLI: a bad input is an `error:` line and exit 2, found before any shape
    # runs; the closed form, and so both gap columns, needs an even shape
    try:
        cells = [GenNormParams(args.theta, require_even_shape(int(b)))
                 for b in args.betas.split(",")]
        rows = []
        for params in cells:
            est = {name: route(params, tol=args.tol, n=args.n, seed=args.seed)
                   for name, route in METHODS.items()}
            closed = est["closed_form"].value
            rel_quad = max(abs(est[m].value - closed)
                           for m in ("quad_score_variance", "quad_neg_hessian")) / closed
            rel_mc = abs(est["mc_score_variance"].value - closed) / closed
            rows.append((params.beta, *(e.value for e in est.values()),
                         est["mc_score_variance"].error_estimate, rel_quad, rel_mc))
            print(f"beta={int(params.beta)}: closed={closed:.6g} quad gap={rel_quad:.2e} "
                  f"mc gap={rel_mc:.2e}", file=sys.stderr)
        emit(csv_table(COLUMNS, rows), args.output)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
