"""Command-line surface: pdf tables, Fisher estimates, moments, estimation,
and the verification batteries.

Tables default to CSV (header row, floats as their shortest round-trip
text); single records default to JSON with the schema

    {command, inputs{}, outputs{}, metadata{seed, tolerances, version}}

Exit codes: 0 success, 1 verification or numerical failure, 2 usage or
input error.

The parser, the exact commands (moments, verify lemma2) and the error
handling use only the numpy-free layer (exact, special_functions); every
other command imports numpy and the numeric modules it calls when it runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field

from . import __version__
from .exact import METHOD_NAMES, GenNormParams, MomentSpec, QuadratureError, exact_moment
from .special_functions import RationalArg, gamma, gamma_rational, require_count, require_real

DEFAULT_SEED = 20260819

# Numeric names the commands import when they run.  They stay attributes of
# this module, loaded from the package on first access and cached, so that
# perfbench's tracer can patch one and restore that same object.
_NUMERIC_NAMES = frozenset({
    "sample", "mle_theta", "run_crlb_experiment", "expected_score_quad", "fisher_closed_form",
    "fisher_mc_score_variance", "fisher_quad_neg_hessian", "fisher_quad_score_variance",
})


def __getattr__(name):
    if name not in _NUMERIC_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


@dataclass
class OutputRecord:
    """Machine-readable result wrapper; serializes losslessly (repr floats)."""

    command: str
    inputs: dict
    outputs: dict
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def emit(text: str, output: str | None) -> None:
    """Write text to the file output, or to stdout when output is None."""
    if output is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def csv_table(columns, rows) -> str:
    """A header row and one line per row tuple; values as str, which for a
    float (numpy's float64 included) is the shortest text that reads back
    exactly."""
    line = ",".join(["%s"] * len(columns))
    return "\n".join([",".join(columns), *map(line.__mod__, rows)]) + "\n"


def _table(args, command: str, inputs: dict, columns: list[str], rows, metadata: dict) -> None:
    if args.format == "csv":
        emit(csv_table(columns, rows), args.output)
    else:
        record = OutputRecord(
            command=command,
            inputs=inputs,
            outputs={"columns": columns, "rows": [list(r) for r in rows]},
            metadata=metadata,
        )
        emit(record.to_json(), args.output)


def _metadata(seed=None, tolerances=None) -> dict:
    return {"seed": seed, "tolerances": tolerances or {}, "version": __version__}


# ---------------------------------------------------------------- pdf

def _cmd_pdf(args) -> int:
    params = GenNormParams(theta=args.theta, beta=args.beta)
    require_count("--count", args.count, 1)
    lo, hi = require_real("--min", args.min), require_real("--max", args.max)
    if args.count == 1 and lo != hi:
        raise ValueError("--count 1 requires --min equal to --max")
    if args.count > 1 and not lo < hi:
        raise ValueError("--min must be strictly below --max for --count >= 2")
    if math.isinf(hi - lo):
        raise ValueError(f"the span --max - --min overflows: --min {lo!r}, --max {hi!r}")

    import numpy as np

    from .distribution import log_pdf_z

    # linspace may overflow on its last node, (count-1) * step, which it then
    # sets to --max; an x/theta past the double range has density 0
    with np.errstate(over="ignore"):
        grid = np.array([lo]) if args.count == 1 else np.linspace(lo, hi, args.count)
        z = grid / params.theta
    # the same vectorized kernel the quadrature routes and log_pdf evaluate
    log_density = (log_pdf_z(params.beta, z) - math.log(params.theta)).tolist()
    xs = grid.tolist()
    try:
        density = list(map(math.exp, log_density))
    except OverflowError:
        x = xs[log_density.index(max(log_density))]
        raise OverflowError(f"the density at x={x!r} exceeds the double range") from None
    inputs = {"theta": params.theta, "beta": params.beta,
              "min": args.min, "max": args.max, "count": args.count}
    _table(args, "pdf", inputs, ["x", "pdf", "log_pdf"], zip(xs, density, log_density),
           _metadata())
    return 0


# ---------------------------------------------------------------- fisher

def _parse_methods(spec: str, beta: float) -> list[str]:
    if spec == "all":
        even = float(beta).is_integer() and int(beta) % 2 == 0
        # the closed form is only defined for even integer shapes
        return [m for m in METHOD_NAMES if even or m != "closed_form"]
    methods = {m.strip() for m in spec.split(",") if m.strip()}
    if not methods:
        raise ValueError("--methods must name at least one method")
    unknown = sorted(methods.difference(METHOD_NAMES))
    if unknown:
        raise ValueError(f"unknown methods {unknown}; choose from {sorted(METHOD_NAMES)}")
    return [m for m in METHOD_NAMES if m in methods]


def _cmd_fisher(args) -> int:
    params = GenNormParams(theta=args.theta, beta=args.beta)
    methods = _parse_methods(args.methods, params.beta)
    from .fisher import METHODS

    # ValueError (closed form at a non-even shape, an underflowed value) -> exit 2
    estimates = [METHODS[m](params, tol=args.tol, n=args.n, seed=args.seed) for m in methods]
    rows = [(est.method, est.value, est.error_estimate) for est in estimates]
    inputs = {"theta": params.theta, "beta": params.beta, "methods": methods,
              "tol": args.tol, "n": args.n}
    _table(args, "fisher", inputs, ["method", "value", "error_estimate"], rows,
           _metadata(seed=args.seed, tolerances={"tol": args.tol}))
    return 0


# ---------------------------------------------------------------- moments

def _cmd_moments(args) -> int:
    params = GenNormParams(theta=args.theta, beta=args.beta)
    parts = [part.strip() for part in args.k.split(",") if part.strip()]
    if not parts:
        raise ValueError("--k must list at least one moment order")
    try:
        orders = [int(part) for part in parts]
    except ValueError as exc:
        raise ValueError(f"--k entries must be integers: {exc}") from None
    rows = [(k, exact_moment(MomentSpec(k=k, params=params))) for k in orders]
    inputs = {"theta": params.theta, "beta": params.beta, "k": orders}
    _table(args, "moments", inputs, ["k", "value"], rows, _metadata())
    return 0


# ---------------------------------------------------------------- estimate

def _read_samples(path: str):
    import numpy as np

    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read sample file {path!r}: {exc}") from None
    values = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue  # blank lines ignored
        try:
            values.append(float(text))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: not a number: {text!r}") from None
    if not values:
        raise ValueError(f"sample file {path!r} contains no numbers")
    return np.asarray(values, dtype=np.float64)


def _cmd_estimate(args) -> int:
    from .distribution import sample_abs
    from .estimation import mle_theta
    from .fisher import score_z

    if (args.input is None) == (not args.simulate):
        raise ValueError("provide exactly one of --input FILE or --simulate")
    if args.simulate:
        params = GenNormParams(theta=args.theta, beta=args.beta)
        draws = sample_abs(params, args.n, args.seed)  # theta_hat and the score use |x| only
        source = {"generator": {"theta": params.theta, "beta": params.beta,
                                "n": args.n, "seed": args.seed}}
    else:
        draws = _read_samples(args.input)
        source = {"file": args.input}
    theta_hat = mle_theta(draws, args.beta)
    draws /= theta_hat
    residual = float(score_z(args.beta, draws, out=draws).sum()) / theta_hat
    outputs = {"theta_hat": theta_hat, "score_residual": residual,
               "n_samples": int(draws.size)}
    inputs = {"beta": args.beta, **source}
    if args.format == "csv":
        emit(csv_table(list(outputs), [tuple(outputs.values())]), args.output)
    else:
        record = OutputRecord("estimate", inputs, outputs,
                              _metadata(seed=args.seed if args.simulate else None))
        emit(record.to_json(), args.output)
    return 0


# ---------------------------------------------------------------- verify

class _CheckPrinter:
    def __init__(self):
        self.failures = 0
        self.count = 0

    def check(self, name: str, ok: bool, observed, expected, tol: str) -> None:
        self.count += 1
        if not ok:
            self.failures += 1
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name} observed={observed} expected={expected} tol={tol}")

    def finish(self, suite: str) -> int:
        passed = self.count - self.failures
        print(f"{suite}: {passed}/{self.count} checks passed")
        return 0 if self.failures == 0 else 1


def _verify_lemma2(printer: _CheckPrinter) -> None:
    for n in range(1, 7):
        for p in range(1, 7):
            direct = gamma(n + 1.0 / p)
            via_identity = gamma_rational(RationalArg(n=n, p=p))
            rel = abs(via_identity - direct) / direct
            printer.check(f"lemma2[n={n},p={p}]", rel <= 1e-12, via_identity, direct, "rel 1e-12")


_GRID_BETAS = (2, 4, 6, 8)
_GRID_THETAS = (0.5, 1.0, 2.0)


def _verify_theorem1(printer: _CheckPrinter, tol: float, n: int, seed: int) -> None:
    from .fisher import (
        fisher_closed_form,
        fisher_mc_score_variance,
        fisher_quad_neg_hessian,
        fisher_quad_score_variance,
    )

    cell = 0
    for beta in _GRID_BETAS:
        for theta in _GRID_THETAS:
            params = GenNormParams(theta=theta, beta=float(beta))
            closed = fisher_closed_form(params).value
            sv = fisher_quad_score_variance(params, tol=tol).value
            nh = fisher_quad_neg_hessian(params, tol=tol).value
            mc = fisher_mc_score_variance(params, n=n, seed=seed + cell)
            tag = f"theorem1[beta={beta},theta={theta}]"
            printer.check(f"{tag} score-variance", abs(sv - closed) / closed <= 1e-7,
                          sv, closed, "rel 1e-7")
            printer.check(f"{tag} neg-hessian", abs(nh - closed) / closed <= 1e-7,
                          nh, closed, "rel 1e-7")
            printer.check(f"{tag} monte-carlo", abs(mc.value - closed) <= 4 * mc.error_estimate,
                          mc.value, closed, "4 standard errors")
            cell += 1


def _verify_equivalence(printer: _CheckPrinter, tol: float) -> None:
    from .fisher import expected_score_quad, fisher_quad_neg_hessian, fisher_quad_score_variance

    for beta in _GRID_BETAS:
        for theta in _GRID_THETAS:
            params = GenNormParams(theta=theta, beta=float(beta))
            sv = fisher_quad_score_variance(params, tol=tol).value
            nh = fisher_quad_neg_hessian(params, tol=tol).value
            mean_score = expected_score_quad(params).value
            tag = f"equivalence[beta={beta},theta={theta}]"
            printer.check(f"{tag} routes", abs(nh - sv) <= 2e-8 * sv, nh, sv, "abs 2e-8*value")
            printer.check(f"{tag} zero-mean-score", abs(mean_score) <= 1e-9,
                          mean_score, 0.0, "abs 1e-9")


def _verify_crlb(printer: _CheckPrinter, beta: float, theta: float, n: int,
                 trials: int, seed: int) -> None:
    from .estimation import ExperimentConfig, run_crlb_experiment

    config = ExperimentConfig(beta=beta, theta_true=theta, n=n, trials=trials, seed=seed)
    report = run_crlb_experiment(config)
    tag = f"crlb[beta={config.beta},theta={config.theta_true}]"
    printer.check(f"{tag} efficiency", 0.9 <= report.efficiency <= 1.1,
                  report.efficiency, 1.0, "band [0.9, 1.1]")
    printer.check(f"{tag} failed-trials", report.failed_trials == 0,
                  report.failed_trials, 0, "exact")


# Each suite with the options it reads and their defaults.  On the parser
# every verify option defaults to None ("not given"), so a suite can reject
# an option it does not read.
_VERIFY_SUITES = {
    "lemma2": (_verify_lemma2, {}),
    "theorem1": (_verify_theorem1, {"tol": 1e-9, "n": 1_000_000, "seed": DEFAULT_SEED}),
    "equivalence": (_verify_equivalence, {"tol": 1e-9}),
    "crlb": (_verify_crlb, {"beta": 2.0, "theta": 1.0, "n": 10_000, "trials": 1000,
                            "seed": DEFAULT_SEED}),
}
_VERIFY_OPTIONS = ("theta", "beta", "seed", "tol", "n", "trials")


def _cmd_verify(args) -> int:
    run_suite, defaults = _VERIFY_SUITES[args.suite]
    given = {name: getattr(args, name) for name in _VERIFY_OPTIONS
             if getattr(args, name) is not None}
    unread = [name for name in given if name not in defaults]
    if unread:
        readers = {name: "/".join(suite for suite, (_, reads) in _VERIFY_SUITES.items()
                                  if name in reads) for name in unread}
        raise ValueError(f"verify {args.suite} does not read "
                         + ", ".join(f"--{name} (verify {r} only)" for name, r in readers.items()))
    printer = _CheckPrinter()
    run_suite(printer, **{**defaults, **given})
    return printer.finish(args.suite)


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gennorm-fisher",
        description="Generalized normal distribution tools: density tables, "
                    "Fisher information, moments, estimation, verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed_default=None, fmt_default="csv"):
        # --seed only where a command draws samples, --format/--output only
        # where it emits a table or record: argparse rejects the others
        p.add_argument("--theta", type=float, default=1.0, help="scale parameter (default 1)")
        p.add_argument("--beta", type=float, default=2.0, help="shape parameter (default 2)")
        if seed_default is not None:
            p.add_argument("--seed", type=int, default=seed_default,
                           help=f"RNG seed (default {seed_default})")
        if fmt_default is not None:
            p.add_argument("--format", choices=("csv", "json"), default=fmt_default,
                           help=f"output format (default {fmt_default})")
            p.add_argument("--output", default=None, help="write to file instead of stdout")

    p_pdf = sub.add_parser("pdf", help="density table over an x grid")
    add_common(p_pdf)
    p_pdf.add_argument("--min", type=float, required=True, help="grid start")
    p_pdf.add_argument("--max", type=float, required=True, help="grid end")
    p_pdf.add_argument("--count", type=int, required=True,
                       help="grid points; 1 allowed when min == max")
    p_pdf.set_defaults(func=_cmd_pdf)

    p_fisher = sub.add_parser("fisher", help="Fisher information estimates")
    add_common(p_fisher, seed_default=0)
    p_fisher.add_argument("--methods", default="all",
                          help=f"comma list from {', '.join(METHOD_NAMES)}; 'all' selects "
                               "every method valid for the given beta (default all)")
    p_fisher.add_argument("--tol", type=float, default=1e-9,
                          help="relative quadrature tolerance (default 1e-9)")
    p_fisher.add_argument("--n", type=int, default=1_000_000,
                          help="Monte Carlo sample count (default 1e6)")
    p_fisher.set_defaults(func=_cmd_fisher)

    p_moments = sub.add_parser("moments", help="exact moments E[X^k]")
    add_common(p_moments)
    p_moments.add_argument("--k", required=True, help="comma list of moment orders")
    p_moments.set_defaults(func=_cmd_moments)

    p_est = sub.add_parser("estimate", help="maximum-likelihood scale estimate")
    add_common(p_est, seed_default=0, fmt_default="json")
    p_est.add_argument("--input", default=None,
                       help="sample file: one number per line, blank lines ignored")
    p_est.add_argument("--simulate", action="store_true",
                       help="draw samples from (theta, beta) instead of reading a file")
    p_est.add_argument("--n", type=int, default=1_000_000,
                       help="sample count for --simulate (default 1e6)")
    p_est.set_defaults(func=_cmd_estimate)

    p_verify = sub.add_parser("verify", help="run a verification battery")
    p_verify.add_argument("suite", choices=tuple(_VERIFY_SUITES))
    # no defaults here: each suite applies its own (_VERIFY_SUITES)
    p_verify.add_argument("--theta", type=float, help="crlb scale parameter (default 1)")
    p_verify.add_argument("--beta", type=float, help="crlb shape parameter (default 2)")
    p_verify.add_argument("--seed", type=int,
                          help=f"theorem1 and crlb RNG seed (default {DEFAULT_SEED})")
    p_verify.add_argument("--tol", type=float,
                          help="theorem1 and equivalence relative quadrature tolerance "
                               "(default 1e-9)")
    p_verify.add_argument("--n", type=int,
                          help="Monte Carlo draws (theorem1, default 1e6) or per-trial "
                               "samples (crlb, default 1e4)")
    p_verify.add_argument("--trials", type=int, help="crlb trials (default 1000)")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OverflowError) as exc:  # domain, input, degenerate data
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
