"""Command-line surface: pdf tables, Fisher estimates, moments, estimation,
the verification batteries and the paper's two sweeps.

One writer, _write_result, emits every table and record: CSV (header row,
floats as their shortest round-trip text) or JSON with the schema

    {command, inputs{}, outputs{}, metadata{seed, tolerances, version}}

`fisher`, `verify theorem1` and `verify shapes` run the routes of
fisher.METHODS.  A verify suite yields one (name, ok, observed, expected,
tol) record per check, and _cmd_verify prints each as it comes, then the
summary.  A sweep table yields
its CSV rows, each after a progress line on stderr, into an --output file
opened before the first.  Exit codes: 0 success,
1 a failed check or a numerical failure, 2 usage or input error (an option the
command's mode does not read, or an --output that cannot be written, included).

The parser, the exact commands (moments, verify lemma2) and the error
handling use only the numpy-free layer (exact, special_functions); every
other command imports numpy and the numeric modules it calls when it runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

from . import __version__
from .exact import MC_MIN_DRAWS, METHOD_NAMES, GenNormParams, MomentSpec, QuadratureError
from .exact import exact_moment, fisher_information, fisher_moment_identity, mle_moments_exact
from .exact import require_even_shape, require_mc_draws, require_tol
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


@contextlib.contextmanager
def _output(path: str | None):
    """The stream a result is written to: stdout when path is None, else the
    file path, opened (and truncated) on entry; a file that cannot be opened
    or written is a ValueError (exit 2)."""
    if path is None:
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ValueError(f"cannot write {path!r}: {exc}") from None


def csv_table(columns, rows) -> str:
    """A header row and one line per row tuple; values as str, which for a
    float (numpy's float64 included) is the shortest text that reads back
    exactly."""
    line = ",".join(["%s"] * len(columns))
    return "\n".join([",".join(columns), *map(line.__mod__, rows)]) + "\n"


def _write_result(args, command: str, inputs: dict, outputs: dict, seed=None, tolerances=None):
    """Emit a result in args.format to args.output: outputs is {columns, rows}
    for a table (rows any iterable of tuples, which JSON writes as a list), or
    named values that CSV writes as a one-row table.  The target is opened
    before the rows are made, so a sweep whose --output cannot be written
    fails before its first cell."""
    with _output(args.output) as out:
        if args.format == "csv":
            table = outputs if "rows" in outputs else {"columns": list(outputs),
                                                       "rows": [tuple(outputs.values())]}
            text = csv_table(table["columns"], table["rows"])
        else:
            metadata = {"seed": seed, "tolerances": tolerances or {}, "version": __version__}
            text = json.dumps({"command": command, "inputs": inputs, "outputs": outputs,
                               "metadata": metadata}, indent=2, default=list)
        out.write(text if text.endswith("\n") else text + "\n")


def _option_names(modes: dict) -> dict:
    """The options any mode of a command reads, in the order the modes name
    them: modes maps each mode to its options' defaults, {mode: {option: default}}."""
    return dict.fromkeys(name for defaults in modes.values() for name in defaults)


def _add_mode_options(parser, modes: dict) -> None:
    """Register each option of modes once, typed by its default and defaulting
    to None ("not given"); its help names each reading mode's default."""
    for name in _option_names(modes):
        readers = {mode: defaults[name] for mode, defaults in modes.items() if name in defaults}
        parser.add_argument(f"--{name}", type=type(next(iter(readers.values()))), default=None,
                            help="; ".join(f"{mode} default {d}" for mode, d in readers.items()))


def _mode_options(args, mode: str, modes: dict) -> dict:
    """The options that mode of args.command reads (modes as in _option_names),
    with the values given.  The parser defaults each option of modes to None
    ("not given"), so one given to a mode that does not read it is an error."""
    given = {name: getattr(args, name) for name in _option_names(modes)
             if getattr(args, name) is not None}
    unread = [name for name in given if name not in modes[mode]]
    if unread:
        readers = ("/".join(m for m in modes if name in modes[m]) for name in unread)
        raise ValueError(f"{args.command} {mode} does not read " + ", ".join(
            f"--{name} ({args.command} {r} only)" for name, r in zip(unread, readers)))
    return {**modes[mode], **given}


def _comma_list(option: str, text: str, convert) -> list:
    """The entries of a comma list, blanks skipped, each through convert (int
    or float); an empty list or a bad entry is an error that names option."""
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise ValueError(f"{option} must list at least one value")
    try:
        return [convert(part) for part in parts]
    except ValueError as exc:
        kind = "integers" if convert is int else "real numbers"
        raise ValueError(f"{option} entries must be {kind}: {exc}") from None


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
    _write_result(args, "pdf", inputs, {"columns": ["x", "pdf", "log_pdf"],
                                        "rows": zip(xs, density, log_density)})
    return 0


# ---------------------------------------------------------------- fisher

def _parse_methods(spec: str, beta: float) -> list[str]:
    if spec == "all":
        try:
            require_even_shape(beta)
        except ValueError:  # the closed form's own guard
            return [m for m in METHOD_NAMES if m != "closed_form"]
        return list(METHOD_NAMES)
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
    # the routes' own checks of --tol and --n, and the scale of their values,
    # before any runs, whatever --methods selects; the Monte Carlo route's
    # bound on --n, before any runs, if it is selected
    require_tol(args.tol)
    require_count("n", args.n, MC_MIN_DRAWS)
    fisher_information(params.beta, params.theta)
    if "mc_score_variance" in methods:
        require_mc_draws(args.n, params.beta)
    from .fisher import METHODS

    # ValueError (the closed form at a non-even shape) -> exit 2
    estimates = [METHODS[m](params, tol=args.tol, n=args.n, seed=args.seed) for m in methods]
    rows = [(est.method, est.value, est.error_estimate) for est in estimates]
    inputs = {"theta": params.theta, "beta": params.beta, "methods": methods,
              "tol": args.tol, "n": args.n}
    outputs = {"columns": ["method", "value", "error_estimate"], "rows": rows}
    _write_result(args, "fisher", inputs, outputs, seed=args.seed, tolerances={"tol": args.tol})
    return 0


# ---------------------------------------------------------------- moments

def _cmd_moments(args) -> int:
    params = GenNormParams(theta=args.theta, beta=args.beta)
    orders = _comma_list("--k", args.k, int)
    rows = [(k, exact_moment(MomentSpec(k=k, params=params))) for k in orders]
    inputs = {"theta": params.theta, "beta": params.beta, "k": orders}
    _write_result(args, "moments", inputs, {"columns": ["k", "value"], "rows": rows})
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


_ESTIMATE_MODES = {"--input": {}, "--simulate": {"theta": 1.0, "n": 1_000_000, "seed": 0}}


def _cmd_estimate(args) -> int:
    from .distribution import sample_abs
    from .estimation import mle_theta
    from .fisher import score_z

    if (args.input is None) == (not args.simulate):
        raise ValueError("provide exactly one of --input FILE or --simulate")
    mode = "--simulate" if args.simulate else "--input"
    vars(args).update(_mode_options(args, mode, _ESTIMATE_MODES))
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
    _write_result(args, "estimate", {"beta": args.beta, **source}, outputs, seed=args.seed)
    return 0


# ---------------------------------------------------------------- verify

def _verify_lemma2():
    for n in range(1, 7):
        for p in range(1, 7):
            direct = gamma(n + 1.0 / p)
            via_identity = gamma_rational(RationalArg(n=n, p=p))
            ok = abs(via_identity - direct) / direct <= 1e-12
            yield f"lemma2[n={n},p={p}]", ok, via_identity, direct, "rel 1e-12"


def _grid(betas=(2, 4, 6, 8)):
    """The cells the route suites walk, betas by theta in {0.5, 1, 2} (the
    even betas for theorem1 and equivalence): index, [beta,theta] tag, params."""
    cells = [(beta, theta) for beta in betas for theta in (0.5, 1.0, 2.0)]
    for cell, (beta, theta) in enumerate(cells):
        yield cell, f"[beta={beta},theta={theta}]", GenNormParams(theta=theta, beta=float(beta))


# (route, check name, tolerance) for each route theorem1 and shapes check against
# the exact value: "rel L" is |value - exact| / exact <= L, "K standard errors"
# is |value - exact| <= K * error_estimate.
_ROUTE_CHECKS = (
    ("quad_score_variance", "score-variance", "rel 1e-7"),
    ("quad_neg_hessian", "neg-hessian", "rel 1e-7"),
    ("mc_score_variance", "monte-carlo", "4 standard errors"),
)


def _route_checks(suite: str, betas, exact, *, seed: int, tol: float, n: int):
    """The checks of _ROUTE_CHECKS at each cell of _grid(betas), against
    exact(params); cell i's Monte Carlo route draws from seed + i."""
    from .fisher import METHODS

    for cell, tag, params in _grid(betas):
        expected = exact(params)
        estimates = {route: METHODS[route](params, tol=tol, n=n, seed=seed + cell)
                     for route, _, _ in _ROUTE_CHECKS}
        for route, check, tolerance in _ROUTE_CHECKS:
            est = estimates[route]
            head, rest = tolerance.split(" ", 1)
            if head == "rel":
                ok = abs(est.value - expected) / expected <= float(rest)
            else:  # "K standard errors"
                ok = abs(est.value - expected) <= float(head) * est.error_estimate
            yield f"{suite}{tag} {check}", ok, est.value, expected, tolerance


def _verify_theorem1(*, seed: int = DEFAULT_SEED, tol: float = 1e-9, n: int = 1_000_000):
    from .fisher import fisher_closed_form

    return _route_checks("theorem1", (2, 4, 6, 8), lambda params: fisher_closed_form(params).value,
                         seed=seed, tol=tol, n=n)


def _verify_shapes(*, seed: int = DEFAULT_SEED, tol: float = 1e-9, n: int = 1_000_000):
    """Theorem 1 at shapes that are not even, against the moment identity."""
    return _route_checks("shapes", (0.5, 1, 1.5, 3, 5),
                         lambda params: fisher_moment_identity(params.beta, params.theta),
                         seed=seed, tol=tol, n=n)


def _verify_equivalence(*, tol: float = 1e-9):
    from .fisher import expected_score_quad, fisher_quad_neg_hessian, fisher_quad_score_variance

    for _, tag, params in _grid():
        sv = fisher_quad_score_variance(params, tol=tol).value
        nh = fisher_quad_neg_hessian(params, tol=tol).value
        mean_score = expected_score_quad(params).value
        yield f"equivalence{tag} routes", abs(nh - sv) <= 2e-8 * sv, nh, sv, "abs 2e-8*value"
        yield (f"equivalence{tag} zero-mean-score", abs(mean_score) <= 1e-9, mean_score, 0.0,
               "abs 1e-9")


def _verify_crlb(*, theta: float = 1.0, beta: float = 2.0, n: int = 10_000, trials: int = 1000,
                 seed: int = DEFAULT_SEED):
    from .estimation import ExperimentConfig, run_crlb_experiment

    config = ExperimentConfig(beta=beta, theta_true=theta, n=n, trials=trials, seed=seed)
    report = run_crlb_experiment(config)
    tag = f"crlb[beta={config.beta},theta={config.theta_true}]"
    yield (f"{tag} efficiency", 0.9 <= report.efficiency <= 1.1, report.efficiency, 1.0,
           "band [0.9, 1.1]")
    yield f"{tag} failed-trials", report.failed_trials == 0, report.failed_trials, 0, "exact"


# Each suite's keyword arguments are the options it reads, with their defaults.
_VERIFY_SUITES = {"lemma2": _verify_lemma2, "theorem1": _verify_theorem1,
                  "shapes": _verify_shapes, "equivalence": _verify_equivalence,
                  "crlb": _verify_crlb}


def _verify_modes() -> dict:
    return {suite: run.__kwdefaults__ or {} for suite, run in _VERIFY_SUITES.items()}


def _cmd_verify(args) -> int:
    options = _mode_options(args, args.suite, _verify_modes())
    checks = _VERIFY_SUITES[args.suite](**options)
    passed = count = 0
    for count, (name, ok, observed, expected, tol) in enumerate(checks, 1):
        passed += bool(ok)
        print("PASS" if ok else "FAIL", f"{name} observed={observed} expected={expected} tol={tol}")
    print(f"{args.suite}: {passed}/{count} checks passed")
    return 0 if passed == count else 1


# ---------------------------------------------------------------- sweep

def _sweep_crlb(*, betas: str = "2,4,6,8", thetas: str = "1.0", sizes: str = "100,1000,10000",
                trials: int = 1000, seed: int = DEFAULT_SEED):
    """The efficiency experiment over the (beta, theta, n) grid, simulated and exact, by cell."""
    from itertools import product

    from .estimation import ExperimentConfig, run_crlb_experiment

    grid = product(_comma_list("--betas", betas, float), _comma_list("--thetas", thetas, float),
                   _comma_list("--sizes", sizes, int))
    configs = [ExperimentConfig(beta=beta, theta_true=theta, n=n, trials=trials, seed=seed)
               for beta, theta, n in grid]  # every cell is checked before the first runs
    exact = [mle_moments_exact(c.beta, c.theta_true, c.n) for c in configs]
    for c, law in zip(configs, exact):
        rep = run_crlb_experiment(c)
        print(f"beta={c.beta} theta={c.theta_true} n={c.n}: efficiency={rep.efficiency:.4f}",
              file=sys.stderr)
        yield (c.beta, c.theta_true, c.n, c.trials, rep.mle_mean, rep.mle_variance, rep.crlb,
               rep.efficiency, rep.variance_stderr, rep.failed_trials, law.variance, law.efficiency)


def _sweep_routes(*, betas: str = "2,4,6,8,10,12,16,20,50,100", theta: float = 1.0,
                  tol: float = 1e-9, n: int = 1_000_000, seed: int = DEFAULT_SEED):
    """The four information routes along a sweep of even shapes (the closed
    form, and so both gap columns, needs one), one row per shape."""
    from .fisher import METHODS

    cells = [GenNormParams(theta, require_even_shape(b))
             for b in _comma_list("--betas", betas, int)]
    for params in cells:  # every cell's information and draws are checked before the first runs
        fisher_information(params.beta, params.theta)
        require_mc_draws(n, params.beta)
    for params in cells:
        est = {name: route(params, tol=tol, n=n, seed=seed) for name, route in METHODS.items()}
        closed = est["closed_form"].value
        rel_quad = max(abs(est[m].value - closed)
                       for m in ("quad_score_variance", "quad_neg_hessian")) / closed
        rel_mc = abs(est["mc_score_variance"].value - closed) / closed
        print(f"beta={int(params.beta)}: closed={closed:.6g} quad gap={rel_quad:.2e} "
              f"mc gap={rel_mc:.2e}", file=sys.stderr)
        yield (params.beta, *(e.value for e in est.values()),
               est["mc_score_variance"].error_estimate, rel_quad, rel_mc)


# Each table's columns and row generator, whose keyword arguments are the options it reads.
_SWEEPS = {
    "crlb": (("beta", "theta", "n", "trials", "mle_mean", "mle_variance", "crlb", "efficiency",
              "variance_stderr", "failed_trials", "exact_variance", "exact_efficiency"),
             _sweep_crlb),
    "routes": (("beta", *METHOD_NAMES, "mc_stderr", "rel_gap_quad", "rel_gap_mc"), _sweep_routes),
}


def _sweep_modes() -> dict:
    return {table: run.__kwdefaults__ for table, (_, run) in _SWEEPS.items()}


def _cmd_sweep(args) -> int:
    options = _mode_options(args, args.table, _sweep_modes())
    columns, run = _SWEEPS[args.table]
    _write_result(args, "sweep", options, {"columns": columns, "rows": run(**options)})
    return 0


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gennorm-fisher",
        description="Generalized normal distribution tools: density tables, "
                    "Fisher information, moments, estimation, verification, sweeps.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):  # every command that writes a table or a record
        p.add_argument("--output", default=None, help="write to file instead of stdout")

    def add_common(p, fmt_default="csv", theta=True):
        # theta=False where the command's modes register --theta (_add_mode_options)
        if theta:
            p.add_argument("--theta", type=float, default=1.0,
                           help="scale parameter (default %(default)s)")
        p.add_argument("--beta", type=float, default=2.0,
                       help="shape parameter (default %(default)s)")
        p.add_argument("--format", choices=("csv", "json"), default=fmt_default,
                       help="output format (default %(default)s)")
        add_output(p)

    p_pdf = sub.add_parser("pdf", help="density table over an x grid")
    add_common(p_pdf)
    p_pdf.add_argument("--min", type=float, required=True, help="grid start")
    p_pdf.add_argument("--max", type=float, required=True, help="grid end")
    p_pdf.add_argument("--count", type=int, required=True,
                       help="grid points; 1 allowed when min == max")
    p_pdf.set_defaults(func=_cmd_pdf)

    p_fisher = sub.add_parser("fisher", help="Fisher information estimates")
    add_common(p_fisher)
    p_fisher.add_argument("--methods", default="all",
                          help=f"comma list from {', '.join(METHOD_NAMES)}; 'all' selects "
                               "every method valid for the given beta (default %(default)s)")
    p_fisher.add_argument("--tol", type=float, default=1e-9,
                          help="relative quadrature tolerance (default %(default)s)")
    p_fisher.add_argument("--n", type=int, default=1_000_000,
                          help="Monte Carlo sample count (default %(default)s)")
    p_fisher.add_argument("--seed", type=int, default=0, help="RNG seed (default %(default)s)")
    p_fisher.set_defaults(func=_cmd_fisher)

    p_moments = sub.add_parser("moments", help="exact moments E[X^k]")
    add_common(p_moments)
    p_moments.add_argument("--k", required=True, help="comma list of moment orders")
    p_moments.set_defaults(func=_cmd_moments)

    p_est = sub.add_parser("estimate", help="maximum-likelihood scale estimate")
    add_common(p_est, fmt_default="json", theta=False)
    p_est.add_argument("--input", default=None,
                       help="sample file: one number per line, blank lines ignored")
    p_est.add_argument("--simulate", action="store_true",
                       help="draw samples from (theta, beta) instead of reading a file")
    _add_mode_options(p_est, _ESTIMATE_MODES)
    p_est.set_defaults(func=_cmd_estimate)

    p_verify = sub.add_parser("verify", help="run a verification battery")
    p_verify.add_argument("suite", choices=tuple(_VERIFY_SUITES))
    _add_mode_options(p_verify, _verify_modes())
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="CSV table of the crlb experiment or the routes "
                                           "along a grid")
    p_sweep.add_argument("table", choices=tuple(_SWEEPS))
    _add_mode_options(p_sweep, _sweep_modes())
    add_output(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep, format="csv")

    return parser


def main(argv=None) -> int:
    # The package makes no BLAS call, so numpy's BLAS need not start a thread
    # per CPU when a command imports numpy.  A value the user set is kept.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for --help
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader left early (`| head`): stop as SIGPIPE would
        # stdout goes to devnull, so the interpreter's last flush finds no pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except (ValueError, OverflowError) as exc:  # domain, input, degenerate data
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
