"""One workload's fresh process: set up, print "ready", then measure.

Started by run.py, never by hand.  Set-up is the interpreter start, the
imports, making the op list from the seed, and a warm-up call per route.
The "ready" line marks the end of set-up; with --setup-only the process
exits there.  Otherwise it pins itself to one CPU, runs the reference
kernel for HOT_CPU_S, and then runs whole passes of the op list, one op at
a time with the reference kernel between ops (workloads.run_pass).  It
starts a new pass only while the median pass so far still fits before the
deadline (so it always runs at least one).  With --trace 1 each
untraced pass is followed by one with the tracer installed.  The last line
of its output is a JSON summary of every pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import gennorm_fisher  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HOT_CPU_S = 0.5  # CPU seconds of reference kernel run before the first pass
PROBES = 5  # fresh interpreters per import-time metric of the traced cli run
_IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import gennorm_fisher; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)


def warm_up(workload: str) -> None:
    """Touch every code path a pass uses once, on cheap inputs."""
    if workload == "crlb_grid":
        gennorm_fisher.run_crlb_experiment(
            gennorm_fisher.ExperimentConfig(beta=2, theta_true=1.0, n=100, trials=3, seed=0)
        )
    elif workload in ("quad_rough", "quad_smooth"):
        for route in (*workloads.QUAD_ROUTES, "abs_moment_quad"):
            args = (2.0, 1.0, 2.0) if route == "abs_moment_quad" else (2.0, 1.0)
            workloads.call_in_process(workloads.Op(route, args))
        gennorm_fisher.fisher_beta_sweep(1.0, (2, 4))
    elif workload == "cli_session":
        workloads.call_in_process(workloads.Op("cli", ("moments", "--k", "2")))


def _summary(result: workloads.PassResult) -> dict:
    return {
        "wall_s": result.wall_s,
        "cpu_s": result.cpu_s,
        "reference_s": result.reference_s,
        "op_s": [o.seconds for o in result.outcomes],
        "op_cost": [o.cost for o in result.outcomes],
        "attempted": len(result.outcomes),
        "failed": result.count("failed"),
        "unconverged": result.count("unconverged"),
        "problems": [f"{o.op.label}: {o.detail}" for o in result.outcomes if o.status == "failed"],
    }


def _traced_pass(ops, call, kernel) -> tuple[workloads.PassResult, dict]:
    with tracing.Tracer() as tracer:
        result = workloads.run_pass(ops, call, kernel)
    stdout_bytes = {o.op.label: o.stdout_bytes for o in result.outcomes if o.op.kind == "cli"}
    return result, tracing.layer_metrics(tracer.spans, stdout_bytes)


def measure(ops, call, kernel, seconds: float, trace: bool) -> dict:
    """Run passes for about `seconds` and summarize each.

    With trace, every round is an untraced pass followed by a traced one, so
    both sides of trace_overhead_frac see the same stretch of machine time;
    the rounds then run for 2 * seconds.
    """
    untraced, traced, layers, durations = [], [], [], []
    # The core runs slower for a while after set-up than under steady load,
    # which would bias the kernel run before the first op; the kernel's own
    # first run (allocation, caches) is not part of the program's set-up.
    workloads.reference_seconds(kernel, HOT_CPU_S)
    deadline = time.perf_counter() + (2 * seconds if trace else seconds)
    while True:
        start = time.perf_counter()
        untraced.append(_summary(workloads.run_pass(ops, call, kernel)))
        if trace:
            result, metrics = _traced_pass(ops, call, kernel)
            traced.append(_summary(result))
            layers.append(metrics)
        durations.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.median(durations) > deadline:
            break
    if not trace:
        return {"untraced": untraced}
    combined, unstable = tracing.combine_passes(layers)
    return {"untraced": untraced, "traced": traced, "layers": combined, "unstable_counts": unstable}


def startup_probes(env: dict) -> dict[str, float]:
    """Median interpreter start, numpy import and package import over fresh processes."""
    interpreter, numpy_import, package_import = [], [], []
    for _ in range(PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        interpreter.append(time.perf_counter() - start)
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=env, check=True, capture_output=True, text=True
        ).stdout.split()
        numpy_import.append(float(out[0]))
        package_import.append(float(out[1]))
    return {
        "cli.interpreter_s": statistics.median(interpreter),
        "cli.numpy_import_s": statistics.median(numpy_import),
        "cli.package_import_s": statistics.median(package_import),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    ops = workloads.make_ops(args.workload, args.seed)
    warm_up(args.workload)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # One CPU for the ops, the reference kernel beside them and the CLI
    # children, so that an op and its kernel run see the same core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    env = workloads.package_env(str(SRC))
    if args.workload == "cli_session" and not args.trace:
        call = workloads.cli_subprocess_caller(env)
    else:
        # the traced cli session runs in-process through gennorm_fisher.cli.main
        call = workloads.call_in_process
    kernel = workloads.reference_for(args.workload)
    summary = measure(ops, call, kernel, args.seconds, bool(args.trace))
    if args.trace and args.workload == "cli_session":
        summary["layers"].update(startup_probes(env))
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_session" else resource.RUSAGE_SELF
    summary["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
