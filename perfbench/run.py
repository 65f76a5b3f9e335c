"""Benchmark of the gennorm_fisher package: one workload per run, checked
against independent oracles.

    python3 perfbench/run.py --workload quad_smooth --seed 1 --seconds 20 --trace 0

--workload all runs every workload in turn.  --trace 0 prints the
end-to-end metrics, after one line of op latencies that are not gated;
--trace 1 prints the per-layer metrics of a traced run.  Each metric is
printed on its own line with its unit, then a provenance line, and last one
JSON object {correct, attempted, failed, metrics}.
Run it from anywhere; it finds the package in ../src relative to itself and
exits 2, printing no result, when the package is not there.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

E2E_UNITS = {
    "setup_s": "s",
    "pass_cost": "ref",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}
# Op latency is printed beside the metrics, at the median and at the highest
# percentile with at least ten ops beyond it in a 20 s run, with the wall and
# CPU time of a pass.  None of them is gated: on a shared host they move with
# the load of other tenants (the fastest pass of crlb_grid moved by 45 %
# between runs of the same code), while pass_cost does not.
TAIL_PERCENTILE = {"crlb_grid": 75, "quad_rough": 50, "quad_smooth": 99, "cli_session": 70}
# Fresh processes timed per run, half before the measuring process and half
# after it, so that they sample the host at both ends of the run; setup_s is
# their median.
SETUP_SAMPLES = 9
RUN_TIMEOUT_S = 170


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _time_to_ready(proc: subprocess.Popen, start: float) -> float:
    line = proc.stdout.readline()
    if line.strip() != "ready":
        raise RuntimeError(f"worker did not get ready: {line!r}")
    return time.perf_counter() - start


def _worker_argv(workload: str, seed: int, seconds: int, trace: int) -> list[str]:
    return [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]


def setup_probe(workload: str, seed: int, env: dict) -> float:
    """Seconds from launching a fresh process to the workload's first timed op.

    For cli_session that is a fresh interpreter importing the package, which
    is what every CLI command pays before it starts work.
    """
    start = time.perf_counter()
    if workload == "cli_session":
        subprocess.run([sys.executable, "-c", "import gennorm_fisher"], env=env, check=True)
        return time.perf_counter() - start
    argv = _worker_argv(workload, seed, 0, 0) + ["--setup-only"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True) as proc:
        ready = _time_to_ready(proc, start)
        if proc.wait(timeout=60) != 0:
            raise RuntimeError(f"setup probe exited with {proc.returncode}")
    return ready


def run_worker(workload: str, seed: int, seconds: int, trace: int, env: dict, deadline: float):
    """Start the measuring process; return its set-up time and its summary."""
    start = time.perf_counter()
    with subprocess.Popen(
        _worker_argv(workload, seed, seconds, trace), env=env, stdout=subprocess.PIPE, text=True
    ) as proc:
        try:
            ready = _time_to_ready(proc, start)
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return ready, json.loads(out.strip().splitlines()[-1])


def op_costs(passes: list[dict]) -> list[float]:
    """Each op's median cost over the passes of a run."""
    return [statistics.median(costs) for costs in zip(*(p["op_cost"] for p in passes))]


def end_to_end(workload: str, setup: list[float], summary: dict) -> dict[str, float]:
    """The gated metrics; pass_cost is the sum of each op's median cost.

    An op's cost is its CPU time over that of the reference kernel run
    beside it (workloads.run_pass), in the same process, so a host that
    runs slower for a while moves both and the cost stays.
    """
    passes = summary["untraced"]
    attempted = sum(p["attempted"] for p in passes)
    not_ok = sum(p["failed"] + p["unconverged"] for p in passes)
    op_s = [t for p in passes for t in p["op_s"]]
    tail = TAIL_PERCENTILE[workload]
    print(
        f"{workload:<12} not gated: median pass {statistics.median(p['wall_s'] for p in passes)!r} s wall,"
        f" {statistics.median(p['cpu_s'] for p in passes)!r} s CPU over {len(passes)} passes;"
        f" reference kernel {statistics.median(r for p in passes for r in p['reference_s']) * 1e3!r} ms CPU;"
        f" op p50 {percentile(op_s, 50) * 1e3!r} ms and p{tail} {percentile(op_s, tail) * 1e3!r} ms"
        f" over {len(op_s)} ops"
    )
    return {
        "setup_s": statistics.median(setup),
        "pass_cost": sum(op_costs(passes)),
        "ok_frac": (attempted - not_ok) / attempted,
        "peak_rss_mb": summary["peak_rss_kb"] / 1024.0,
    }


def per_layer(summary: dict) -> dict[str, float]:
    layers = dict(summary["layers"])
    traced, untraced = (sum(op_costs(summary[k])) for k in ("traced", "untraced"))
    layers["trace_overhead_frac"] = traced / untraced - 1.0
    return layers


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    env = workloads.package_env(str(SRC))
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    probes = 0 if trace else SETUP_SAMPLES if workload == "cli_session" else SETUP_SAMPLES - 1
    setup = [setup_probe(workload, seed, env) for _ in range(probes // 2)]
    ready, summary = run_worker(workload, seed, seconds, trace, env, deadline)
    if workload != "cli_session":
        setup.append(ready)
    setup += [setup_probe(workload, seed, env) for _ in range(probes - probes // 2)]

    passes = summary["untraced"] + summary.get("traced", [])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for problem in sorted({q for p in passes for q in p["problems"]}):
        print(f"FAILED {workload} {problem}", file=sys.stderr)
    for name in summary.get("unstable_counts", []):
        print(f"FAILED {workload} count {name} differs between traced passes", file=sys.stderr)
    if trace:
        metrics, units = per_layer(summary), tracing.LAYER_UNITS
    else:
        metrics, units = end_to_end(workload, setup, summary), E2E_UNITS
    return {
        "correct": failed == 0 and not summary.get("unstable_counts"),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def provenance(seed: int) -> dict:
    """Machine, toolchain and source identity of a run (/proc is only read)."""
    cpu = {}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("model name", "cache size") and key not in cpu:
                    cpu[key] = value.strip()
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.get("model name"),
        "cpu_cache": cpu.get("cache size"),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "gennorm_fisher" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        for metric, m in results[name]["metrics"].items():
            print(f"{name:<12} {metric:<42} {m['value']!r} {m['unit']}")
    print("provenance " + json.dumps(provenance(args.seed)))
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": m for name, r in results.items() for metric, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
