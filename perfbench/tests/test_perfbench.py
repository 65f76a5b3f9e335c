"""Tests of the benchmark itself: op lists, oracles, span arithmetic, counts.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


# ------------------------------------------------------------------ op lists


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_list_is_a_pure_function_of_the_seed(workload):
    assert workloads.make_ops(workload, 7) == workloads.make_ops(workload, 7)
    assert workloads.make_ops(workload, 7) != workloads.make_ops(workload, 8)


def test_op_list_is_the_same_in_a_fresh_interpreter():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
        "print(repr([workloads.make_ops(w, 7) for w in workloads.WORKLOADS]))"
    )
    here = repr([workloads.make_ops(w, 7) for w in workloads.WORKLOADS])
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", code, str(BENCH)], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == here


def test_ops_have_the_documented_shape():
    assert len(workloads.make_ops("crlb_grid", 0)) == 6
    assert len(workloads.make_ops("quad_rough", 0)) == 20
    assert len(workloads.make_ops("quad_smooth", 0)) == 1 + 6 * 5
    assert len(workloads.make_ops("cli_session", 0)) == 8
    lo, hi = workloads.THETA_RANGE
    for op in workloads.make_ops("quad_rough", 3):
        assert lo <= op.args[1] <= hi
    with pytest.raises(ValueError):
        workloads.make_ops("nope", 0)


# ------------------------------------------------------------------ oracles


def test_a_wrong_oracle_value_counts_as_a_failed_op(monkeypatch):
    ops = workloads.make_ops("quad_smooth", 1)
    right = workloads.run_pass(ops, workloads.call_in_process)
    assert right.count("failed") == 0 and right.count("ok") == len(ops)

    exact = workloads.abs_moment_exact
    monkeypatch.setattr(workloads, "abs_moment_exact", lambda *a: exact(*a) * (1 + 1e-6))
    wrong = workloads.run_pass(ops, workloads.call_in_process)
    failed = [o.op.kind for o in wrong.outcomes if o.status == "failed"]
    assert failed == ["abs_moment_quad"] * len(workloads.SMOOTH_BETAS)


def test_a_raising_op_counts_as_failed_and_quadrature_error_as_unconverged():
    from gennorm_fisher import QuadratureError

    def call(op):
        if op.kind == "pdf_normalization":
            raise QuadratureError("budget", partial=1.0, error_estimate=1.0)
        raise ValueError("boom")

    ops = workloads.make_ops("quad_rough", 0)[:4]
    result = workloads.run_pass(ops, call)
    assert [o.status for o in result.outcomes] == ["unconverged", "failed", "failed", "failed"]


def test_unreadable_output_counts_as_a_failed_op():
    ops = workloads.make_ops("cli_session", 0)
    result = workloads.run_pass(ops, lambda op: (0, ""))
    assert result.count("failed") == len(ops)


def test_cli_checks_reject_wrong_output():
    summary = "lemma2: 36/36 checks passed"
    good = "PASS x\n" * 36 + summary + "\n"
    assert workloads.check(workloads.Op("cli", ("verify", "lemma2")), (0, good)) is None
    assert workloads.check(workloads.Op("cli", ("verify", "lemma2")), (1, good))
    bad = "PASS x\n" * 35 + "FAIL x\n" + "lemma2: 35/36 checks passed\n"
    assert workloads.check(workloads.Op("cli", ("verify", "lemma2")), (0, bad))
    short = "x,pdf,log_pdf\n0.0,1.0,0.0\n"
    op = workloads.Op("cli", ("pdf", "--min", "-5", "--max", "5", "--count", "100001"))
    assert workloads.check(op, (0, short))


def test_exact_mle_law_matches_a_direct_gamma_simulation():
    beta, theta, n = 4.0, 1.3, 100
    mean, var = workloads.mle_moments_exact(beta, theta, n)
    rng = np.random.default_rng(0)
    g = rng.standard_gamma(n / beta, size=400_000)
    draws = theta * (beta * g / n) ** (1.0 / beta)
    assert abs(draws.mean() - mean) < 5 * np.sqrt(var / draws.size)
    assert abs(draws.var() / var - 1.0) < 0.02


def test_op_cost_is_cpu_time_in_units_of_the_reference_kernel():
    def call(op):
        for _ in range(3):
            workloads.reference_kernel()
        return (0, "")

    ops = workloads.make_ops("cli_session", 0)[:5]
    result = workloads.run_pass(ops, call)
    assert len(result.reference_s) == len(ops) + 1
    costs = sorted(o.cost for o in result.outcomes)
    assert 2.0 < costs[len(costs) // 2] < 4.5  # three kernel runs cost about 3
    assert all(o.cpu_s > 0 and o.seconds > 0 for o in result.outcomes)


# ------------------------------------------------------------------ spans


def test_self_time_subtracts_the_children_it_covers():
    spans = [
        Span("root", 0, 100, -1),
        Span("a", 10, 40, 0),
        Span("a.child", 20, 30, 1),
        Span("b", 50, 90, 0),
        Span("c", 60, 95, 0),  # overlaps b: the shared interval counts once
    ]
    assert tracing.self_times(spans) == [100 - 30 - 45, 30 - 10, 10, 40, 35]


def test_layer_metrics_on_synthetic_spans():
    spans = [
        Span("fisher.quad_score_variance", 0, 1000, -1),
        Span("quadrature.integrate_decaying", 100, 900, 0),
        Span("quadrature.integrand", 200, 400, 1, {"nodes": 33}),
        Span("quadrature.integrand", 500, 700, 1, {"nodes": 32}),
        Span("quadrature.integrate_decaying", 2000, 3000, -1, {"error": "QuadratureError"}),
        Span("quadrature.integrand", 2100, 2600, 4, {"nodes": 35}),
        Span("distribution.sample", 4000, 4100, -1, {"draws": 10, "branch": "beta_le1"}),
    ]
    m = tracing.layer_metrics(spans, {"pdf": 12})
    assert m["quadrature.calls"] == 2
    assert m["quadrature.nodes"] == 100
    assert m["quadrature.failed"] == 1
    assert m["quadrature.useful_node_frac"] == pytest.approx(0.65)
    assert m["quadrature.ns_per_node"] == pytest.approx(1800 / 100)
    assert m["quadrature.integrand_s"] == pytest.approx(900e-9)
    assert m["quadrature.self_s"] == pytest.approx((800 - 400 + 1000 - 500) * 1e-9)
    assert m["quadrature.failed_s"] == pytest.approx(1000e-9)
    assert m["fisher.quad.self_s"] == pytest.approx(200e-9)
    assert m["distribution.sample.ns_per_draw.beta_le1"] == pytest.approx(10.0)
    assert m["distribution.sample.ns_per_draw.beta_gt1"] == 0.0
    assert m["cli.pdf.stdout_bytes"] == 12
    assert set(m) | {"trace_overhead_frac"} == set(tracing.LAYER_UNITS)


def test_tracer_restores_every_patched_name():
    import importlib

    before = [getattr(importlib.import_module(mod), attr) for mod, attr, _, _ in tracing.PATCHES]
    with tracing.Tracer():
        pass
    after = [getattr(importlib.import_module(mod), attr) for mod, attr, _, _ in tracing.PATCHES]
    assert before == after


def _traced_counts(ops):
    with tracing.Tracer() as tracer:
        result = workloads.run_pass(ops, workloads.call_in_process)
    assert result.count("failed") == 0
    m = tracing.layer_metrics(tracer.spans, {})
    return {k: v for k, v in m.items() if tracing.LAYER_UNITS[k] == "count"}


def test_counts_repeat_exactly_between_traced_runs_of_one_seed():
    smooth = workloads.make_ops("quad_smooth", 5)
    first = _traced_counts(smooth)
    assert first["quadrature.calls"] == 50 + 6 * 5
    assert first == _traced_counts(workloads.make_ops("quad_smooth", 5))

    crlb = workloads.make_ops("crlb_grid", 5)[:2]  # beta=2 at n=100 and n=10^4
    first = _traced_counts(crlb)
    assert first["estimation.trial_seed.calls"] == 2 * workloads.CRLB_TRIALS
    assert first["distribution.sample.draws"] == (100 + 10_000) * workloads.CRLB_TRIALS
    assert first == _traced_counts(workloads.make_ops("crlb_grid", 5)[:2])


# ------------------------------------------------------------------ run.py


def test_percentile_matches_numpy():
    values = list(np.random.default_rng(1).exponential(size=37))
    for p in (0, 25, 50, 70, 99, 100):
        assert run.percentile(values, p) == pytest.approx(np.percentile(values, p))


def test_benchmark_json_lists_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_exits_2_without_printing_a_result_when_the_package_is_missing(tmp_path):
    import shutil

    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quad_smooth", "--seed", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2 and out.stdout == ""
