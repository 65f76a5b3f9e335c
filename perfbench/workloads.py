"""Benchmark workloads: the op list each seed makes, how an op runs, and the
independent oracle that checks its output.

An op is one call of a public function of the package, or one CLI process.
Ops are plain data, so the op list is a pure function of (workload, seed).
The oracles use only the standard library (``math.lgamma``), never the
package under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("crlb_grid", "quad_rough", "quad_smooth", "cli_session")

CRLB_BETAS = (2, 4, 8)
CRLB_NS = (100, 10_000)
CRLB_TRIALS = 1000
ROUGH_BETAS = (0.5, 0.75, 1.0, 1.25, 1.5)
SMOOTH_BETAS = (2.5, 3.0, 5.0, 16.0, 64.0, 1000.0)
SWEEP_BETAS = tuple(range(2, 101, 2))
QUAD_ROUTES = (
    "pdf_normalization",
    "fisher_quad_score_variance",
    "fisher_quad_neg_hessian",
    "expected_score_quad",
)
# Expected-score quadrature stops on an absolute tolerance, so its node count
# depends on theta.  Over this range every route at every shape above keeps
# one node count, which keeps the work of a pass the same for every seed.
THETA_RANGE = (0.75, 1.4)
# Check lines each verify suite prints (lemma2: 6x6 grid; theorem1: 12 cells
# x 3 routes; equivalence: 12 cells x 2; crlb: efficiency and failed trials).
VERIFY_CHECKS = {"lemma2": 36, "theorem1": 36, "equivalence": 24, "crlb": 2}
PDF_COUNT = 100_001
Z_MAX = 5.0  # statistical checks accept a deviation of at most 5 standard errors


@dataclass(frozen=True)
class Op:
    """One operation: `kind` names the public function or is "cli"."""

    kind: str
    args: tuple

    @property
    def label(self) -> str:
        if self.kind == "cli":
            argv = self.args
            return argv[1] if argv[0] == "verify" else argv[0]
        return f"{self.kind}{self.args}"


def _theta(rng: random.Random) -> float:
    lo, hi = THETA_RANGE
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def make_ops(workload: str, seed: int) -> list[Op]:
    """The ops of one pass, in order; the same (workload, seed) gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "crlb_grid":
        return [
            Op("run_crlb_experiment", (beta, 1.0, n, CRLB_TRIALS, rng.randrange(2**32)))
            for beta in CRLB_BETAS
            for n in CRLB_NS
        ]
    if workload == "quad_rough":
        ops = []
        for beta in ROUGH_BETAS:
            theta = _theta(rng)
            ops.extend(Op(route, (beta, theta)) for route in QUAD_ROUTES)
        return ops
    if workload == "quad_smooth":
        ops = [Op("fisher_beta_sweep", (_theta(rng), SWEEP_BETAS))]
        for beta in SMOOTH_BETAS:
            theta = _theta(rng)
            ops.extend(Op(route, (beta, theta)) for route in QUAD_ROUTES)
            ops.append(Op("abs_moment_quad", (beta, theta, 2.0)))
        return ops
    if workload == "cli_session":
        s = str(rng.randrange(2**31))
        return [
            Op("cli", ("verify", "lemma2")),
            Op("cli", ("verify", "theorem1")),
            Op("cli", ("verify", "equivalence")),
            Op("cli", ("verify", "crlb", "--beta", "2", "--theta", "1")),
            Op("cli", ("fisher", "--beta", "1", "--seed", s)),
            Op("cli", ("estimate", "--simulate", "--beta", "4", "--n", "1000000", "--seed", s)),
            Op("cli", ("pdf", "--min", "-5", "--max", "5", "--count", str(PDF_COUNT))),
            Op("cli", ("moments", "--k", "0,2,4,8")),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# ------------------------------------------------------------------ oracles


def fisher_exact(beta: float, theta: float) -> float:
    """I(theta) = beta/theta^2, which holds for every beta > 0."""
    return beta / theta**2


def abs_moment_exact(beta: float, theta: float, order: float) -> float:
    """E|X|^order = theta^order * Gamma((order+1)/beta) / Gamma(1/beta)."""
    return theta**order * math.exp(math.lgamma((order + 1.0) / beta) - math.lgamma(1.0 / beta))


def density_exact(beta: float, theta: float, x: float) -> float:
    return beta / (2.0 * theta * math.gamma(1.0 / beta)) * math.exp(-abs(x / theta) ** beta)


def mle_moments_exact(beta: float, theta: float, n: int) -> tuple[float, float]:
    """Exact mean and variance of the scale MLE from n draws.

    theta_hat/theta = (beta*G/n)^(1/beta) with G ~ Gamma(n/beta), so
    E[theta_hat^k] = theta^k (beta/n)^(k/beta) Gamma(n/beta + k/beta) / Gamma(n/beta).
    """
    a = n / beta
    l1 = math.lgamma(a + 1.0 / beta) - math.lgamma(a)
    l2 = math.lgamma(a + 2.0 / beta) - math.lgamma(a)
    mean = theta * (beta / n) ** (1.0 / beta) * math.exp(l1)
    return mean, mean * mean * math.expm1(l2 - 2.0 * l1)


def _rel_err(observed: float, expected: float) -> float:
    return abs(observed - expected) / abs(expected)


def _check_value(op: Op, value: float) -> str | None:
    kind = op.kind
    if kind == "pdf_normalization":
        return None if abs(value - 1.0) <= 1e-9 else f"normalization {value!r} != 1 (abs 1e-9)"
    if kind == "expected_score_quad":
        return None if abs(value) <= 1e-9 else f"mean score {value!r} != 0 (abs 1e-9)"
    if kind in ("fisher_quad_score_variance", "fisher_quad_neg_hessian"):
        want = fisher_exact(*op.args)
        return None if _rel_err(value, want) <= 1e-7 else f"{value!r} != {want!r} (rel 1e-7)"
    if kind == "abs_moment_quad":
        want = abs_moment_exact(*op.args)
        return None if _rel_err(value, want) <= 1e-9 else f"{value!r} != {want!r} (rel 1e-9)"
    raise ValueError(f"no scalar oracle for {kind}")


def _check_sweep(op: Op, rows) -> str | None:
    theta, betas = op.args
    if [row[0] for row in rows] != list(betas):
        return f"sweep shapes {[row[0] for row in rows]} != {list(betas)}"
    for beta, closed, quad in rows:
        want = fisher_exact(beta, theta)
        if _rel_err(closed, want) > 1e-12 or _rel_err(quad, want) > 1e-7:
            return f"sweep beta={beta}: closed {closed!r}, quad {quad!r}, exact {want!r}"
    return None


def _check_crlb(op: Op, report) -> str | None:
    beta, theta, n, trials, _ = op.args
    if report.failed_trials != 0:
        return f"{report.failed_trials} failed trials"
    mean, var = mle_moments_exact(beta, theta, n)
    z_var = (report.mle_variance - var) / report.variance_stderr
    z_mean = (report.mle_mean - mean) / math.sqrt(var / trials)
    if abs(z_var) > Z_MAX or abs(z_mean) > Z_MAX:
        return f"MLE variance z={z_var:.2f}, mean z={z_mean:.2f} against the exact law"
    return None


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _check_cli(argv: tuple, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    command = argv[0]
    if command == "verify":
        suite = argv[1]
        lines = out.splitlines()
        want = VERIFY_CHECKS[suite]
        if len(lines) != want + 1 or not all(line.startswith("PASS ") for line in lines[:-1]):
            return f"verify {suite}: expected {want} PASS lines and a summary"
        if lines[-1] != f"{suite}: {want}/{want} checks passed":
            return f"verify {suite}: summary {lines[-1]!r}"
        return None
    if command == "fisher":
        header, rows = _csv_rows(out)
        got = {row[0]: (float(row[1]), float(row[2])) for row in rows}
        if header != ["method", "value", "error_estimate"] or sorted(got) != sorted(
            ("quad_score_variance", "quad_neg_hessian", "mc_score_variance")
        ):
            return f"fisher: unexpected table {header} {sorted(got)}"
        want = fisher_exact(1.0, 1.0)
        value, stderr = got["mc_score_variance"]
        if abs(value - want) > Z_MAX * stderr:
            return f"fisher: Monte Carlo {value!r} not within {Z_MAX} stderr of {want!r}"
        for method in ("quad_score_variance", "quad_neg_hessian"):
            if _rel_err(got[method][0], want) > 1e-7:
                return f"fisher: {method} {got[method][0]!r} != {want!r}"
        return None
    if command == "estimate":
        outputs = json.loads(out)["outputs"]
        mean, var = mle_moments_exact(4.0, 1.0, 1_000_000)
        if outputs["n_samples"] != 1_000_000:
            return f"estimate: n_samples {outputs['n_samples']}"
        if abs(outputs["theta_hat"] - mean) > Z_MAX * math.sqrt(var):
            return f"estimate: theta_hat {outputs['theta_hat']!r} far from {mean!r}"
        return None
    if command == "pdf":
        header, rows = _csv_rows(out)
        if header != ["x", "pdf", "log_pdf"] or len(rows) != PDF_COUNT:
            return f"pdf: {len(rows) + 1} lines, expected {PDF_COUNT + 1}"
        step = 10.0 / (PDF_COUNT - 1)
        for i, (x, dens, log_dens) in enumerate(rows):
            x, dens, log_dens = float(x), float(dens), float(log_dens)
            want = density_exact(2.0, 1.0, x)
            if abs(x - (-5.0 + i * step)) > 1e-12 or _rel_err(dens, want) > 1e-12:
                return f"pdf: row {i} reads x={x!r} pdf={dens!r}, expected {want!r}"
            if abs(log_dens - math.log(want)) > 1e-12 * max(1.0, abs(log_dens)):
                return f"pdf: row {i} log_pdf {log_dens!r}"
        return None
    if command == "moments":
        header, rows = _csv_rows(out)
        if header != ["k", "value"] or [row[0] for row in rows] != ["0", "2", "4", "8"]:
            return f"moments: unexpected table {header} {rows}"
        for k, value in rows:
            want = abs_moment_exact(2.0, 1.0, float(k))
            if _rel_err(float(value), want) > 1e-12:
                return f"moments: k={k} reads {value}, expected {want!r}"
        return None
    raise ValueError(f"no oracle for command {command!r}")


def check(op: Op, output) -> str | None:
    """None when the op's output matches its oracle, else what went wrong."""
    if op.kind == "cli":
        code, out = output
        return _check_cli(op.args, code, out)
    if op.kind == "run_crlb_experiment":
        return _check_crlb(op, output)
    if op.kind == "fisher_beta_sweep":
        return _check_sweep(op, output)
    return _check_value(op, output.value)


# ------------------------------------------------------------------ runners


def call_in_process(op: Op):
    """Call the op's public function, looked up on the package at call time."""
    import gennorm_fisher as gf
    import gennorm_fisher.cli  # the package does not import its cli submodule itself

    if op.kind == "run_crlb_experiment":
        beta, theta, n, trials, seed = op.args
        config = gf.ExperimentConfig(beta=beta, theta_true=theta, n=n, trials=trials, seed=seed)
        return gf.run_crlb_experiment(config)
    if op.kind == "fisher_beta_sweep":
        return gf.fisher_beta_sweep(*op.args)
    if op.kind == "cli":
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = gf.cli.main(list(op.args))
        return code, buffer.getvalue()
    beta, theta, *rest = op.args
    return getattr(gf, op.kind)(gf.GenNormParams(theta=theta, beta=beta), *rest)


def cli_subprocess_caller(env: dict) -> Callable[[Op], tuple[int, str]]:
    """A caller that runs each CLI op as its own interpreter process."""

    def call(op: Op) -> tuple[int, str]:
        proc = subprocess.run(
            [sys.executable, "-m", "gennorm_fisher.cli", *op.args],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            check=False,
        )
        return proc.returncode, proc.stdout

    return call


def package_env(src: str) -> dict:
    """The environment for child interpreters: the package importable from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ------------------------------------------------------------------ reference


_REF_X = np.random.default_rng(0).standard_normal(100_000)
_REF_BUFFER = np.empty_like(_REF_X)


def _decay_sum(x: np.ndarray, buf: np.ndarray) -> float:
    """sum(exp(-|x|^1.5)), computed in place in buf.

    In place, because a fresh temporary of this size would come from mmap or
    from the heap depending on what the op before it freed, and its page
    faults would make the kernel's time depend on the op.
    """
    np.abs(x, out=buf)
    np.power(buf, 1.5, out=buf)
    np.negative(buf, out=buf)
    np.exp(buf, out=buf)
    return float(buf.sum())


def reference_kernel() -> float:
    """A fixed piece of work that never touches the package.

    It mixes what the workloads spend their time on: a Python-level loop,
    elementwise numpy on an array that fits in the L2 cache, and many small
    seeded generators.  Each op is timed beside runs of it, and an op's cost
    is its CPU time over the kernel's, so a host that runs slower for a
    while (other tenants on the same cores, caches and memory) slows both
    and leaves the ratio where it was.
    """
    total = 0
    for i in range(20_000):
        total += i * i
    value = _decay_sum(_REF_X, _REF_BUFFER)
    for i in range(50):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(i)))
        value += float(rng.standard_gamma(2.0, 200).sum())
    return value + total


def streaming_reference_kernel() -> float:
    """reference_kernel, then the same elementwise work on 48 MB arrays.

    quad_rough's large ops sweep arrays of 10^6-3*10^7 nodes, far beyond
    the caches, and make a fresh array for each intermediate; close to half
    of their CPU time is the system's, faulting in new pages.  Their time
    follows the host's memory traffic and page handling as well as its core
    speed, and the in-cache kernel alone tracks only the last.  Here too the
    input and each intermediate are fresh arrays, above glibc's largest mmap
    threshold, so each is mapped, faulted in and unmapped as in the ops.
    """
    x = np.full(6_000_000, -0.7)
    return reference_kernel() + float(np.exp(-np.abs(x) ** 1.5).sum())


REFERENCE_KERNELS = {"quad_rough": streaming_reference_kernel}


def reference_for(workload: str) -> Callable[[], float]:
    """The reference kernel an op of `workload` is measured against."""
    return REFERENCE_KERNELS.get(workload, reference_kernel)


# Kernel CPU time run after an op, as a share of the op's CPU time.
REFERENCE_SHARE = 0.1


def cpu_seconds() -> float:
    """CPU time (user + system) of this process and of its finished children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reference_seconds(kernel: Callable[[], float], at_least: float = 0.0) -> float:
    """Mean CPU seconds of a run of a reference kernel.

    The kernel runs once, and again until its runs add up to `at_least`
    CPU seconds, so that a long op is compared with the host's speed over
    a stretch of time rather than over one short run.
    """
    runs, start = 0, cpu_seconds()
    while True:
        kernel()
        runs += 1
        spent = cpu_seconds() - start
        if spent >= at_least:
            return spent / runs


@dataclass
class OpOutcome:
    op: Op
    seconds: float  # wall time
    cpu_s: float
    cost: float  # CPU time over the reference kernel's CPU time beside it
    status: str  # "ok", "unconverged" (documented QuadratureError) or "failed"
    detail: str = ""
    stdout_bytes: int = 0


@dataclass
class PassResult:
    outcomes: list[OpOutcome] = field(default_factory=list)
    # mean CPU seconds of a kernel run, before the first op and after each op
    reference_s: list[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """Time spent in the ops of the pass; the output checks are not timed."""
        return sum(o.seconds for o in self.outcomes)

    @property
    def cpu_s(self) -> float:
        return sum(o.cpu_s for o in self.outcomes)

    def count(self, status: str) -> int:
        return sum(o.status == status for o in self.outcomes)


def _call_and_check(op: Op, call: Callable[[Op], object]) -> tuple[str, str, int]:
    """Run one op and check its output: (status, detail, stdout bytes)."""
    from gennorm_fisher import QuadratureError

    try:
        output = call(op)
    except QuadratureError as exc:
        return "unconverged", str(exc), 0
    except Exception as exc:  # any other error is a failed op, and the pass goes on
        return "failed", f"{type(exc).__name__}: {exc}", 0
    try:
        problem = check(op, output)
    except (ValueError, KeyError, IndexError, TypeError) as exc:  # output too malformed to read
        problem = f"unreadable output: {type(exc).__name__}: {exc}"
    nbytes = len(output[1].encode()) if op.kind == "cli" else 0
    return ("ok" if problem is None else "failed"), problem or "", nbytes


class _TimedCall:
    """Wraps `call` so that run_pass times the call alone, not its check."""

    def __init__(self, call):
        self.call, self.seconds, self.cpu = call, 0.0, 0.0

    def __call__(self, op):
        start, cpu = time.perf_counter(), cpu_seconds()
        try:
            return self.call(op)
        finally:
            self.cpu = cpu_seconds() - cpu
            self.seconds = time.perf_counter() - start


def run_pass(
    ops: list[Op], call: Callable[[Op], object], kernel: Callable[[], float] = reference_kernel
) -> PassResult:
    """Run the ops one after another (a closed loop), timing and checking each.

    The reference kernel (reference_for the workload) runs before the first
    op and after every op, for at least REFERENCE_SHARE of the op's CPU
    time; an op's cost divides its CPU time by the mean of the kernel's
    times before and after it.
    """
    result = PassResult()
    timed = _TimedCall(call)
    result.reference_s.append(reference_seconds(kernel))
    for op in ops:
        status, detail, nbytes = _call_and_check(op, timed)
        result.reference_s.append(reference_seconds(kernel, REFERENCE_SHARE * timed.cpu))
        cost = timed.cpu / statistics.fmean(result.reference_s[-2:])
        result.outcomes.append(OpOutcome(op, timed.seconds, timed.cpu, cost, status, detail, nbytes))
    return result
