"""Spans around the calls into each layer of the package, and the per-layer
metrics computed from them.

The tracer replaces a layer's public functions at the names where their
callers look them up (for example ``gennorm_fisher.fisher.integrate_decaying``)
and restores them afterwards; the package itself is not changed.  Spans are
kept in memory and reduced to metrics at the end of each traced pass.
Everything runs in one thread, so spans nest strictly and a layer never
waits on another.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

CLI_COMMANDS = ("lemma2", "theorem1", "equivalence", "crlb", "fisher", "estimate", "pdf", "moments")

# Every per-layer metric, with its unit.  Count metrics must repeat exactly
# between traced passes (and runs) of one seed.
LAYER_UNITS = {
    "quadrature.calls": "count",
    "quadrature.nodes": "count",
    "quadrature.ns_per_node": "ns",
    "quadrature.integrand_s": "s",
    "quadrature.self_s": "s",
    "quadrature.failed": "count",
    "quadrature.failed_s": "s",
    "quadrature.useful_node_frac": "frac",
    "distribution.sample.calls": "count",
    "distribution.sample.draws": "count",
    "distribution.sample.ns_per_draw.beta_gt1": "ns",
    "distribution.sample.ns_per_draw.beta_le1": "ns",
    "fisher.mc_score_variance.self_s": "s",
    "fisher.quad.self_s": "s",
    "estimation.trial_seed.calls": "count",
    "estimation.trial_seed.s": "s",
    "estimation.run_crlb_experiment.self_s": "s",
    "estimation.mle_theta.s": "s",
    "estimation.mle_theta.ns_per_sample": "ns",
    "special_functions.calls": "count",
    "special_functions.s": "s",
    "cli.interpreter_s": "s",
    "cli.numpy_import_s": "s",
    "cli.package_import_s": "s",
    **{f"cli.{c}.self_s": "s" for c in CLI_COMMANDS},
    **{f"cli.{c}.stdout_bytes": "bytes" for c in CLI_COMMANDS},
    "trace_overhead_frac": "frac",
}

_FISHER_QUAD = ("fisher.quad_score_variance", "fisher.quad_neg_hessian", "fisher.expected_score_quad")


def _sample_attrs(args, kwargs) -> dict:
    params = args[0] if args else kwargs["params"]
    count = args[1] if len(args) > 1 else kwargs["count"]
    return {"draws": count, "branch": "beta_gt1" if params.beta > 1.0 else "beta_le1"}


def _mle_attrs(args, kwargs) -> dict:
    samples = args[0] if args else kwargs["samples"]
    return {"samples": len(samples)}


def _cli_attrs(args, kwargs) -> dict:
    argv = args[0] if args else kwargs["argv"]
    return {"command": argv[1] if argv[0] == "verify" else argv[0]}


def _integrand_attrs(args, kwargs) -> dict:
    return {"nodes": int(args[0].size)}


# (module, attribute, span name, attribute function).  Each entry is a name a
# caller resolves at call time: the benchmark looks functions up on the
# package, and the modules look each other's functions up in their globals.
PATCHES = (
    ("gennorm_fisher.fisher", "integrate_decaying", "quadrature.integrate_decaying", None),
    ("gennorm_fisher.distribution", "integrate_decaying", "quadrature.integrate_decaying", None),
    ("gennorm_fisher", "pdf_normalization", "distribution.pdf_normalization", None),
    ("gennorm_fisher", "abs_moment_quad", "distribution.abs_moment_quad", None),
    ("gennorm_fisher.fisher", "sample", "distribution.sample", _sample_attrs),
    ("gennorm_fisher.estimation", "sample", "distribution.sample", _sample_attrs),
    ("gennorm_fisher.cli", "sample", "distribution.sample", _sample_attrs),
    ("gennorm_fisher.cli", "exact_moment", "distribution.exact_moment", None),
    ("gennorm_fisher", "fisher_quad_score_variance", "fisher.quad_score_variance", None),
    ("gennorm_fisher", "fisher_quad_neg_hessian", "fisher.quad_neg_hessian", None),
    ("gennorm_fisher", "expected_score_quad", "fisher.expected_score_quad", None),
    ("gennorm_fisher", "fisher_beta_sweep", "fisher.beta_sweep", None),
    ("gennorm_fisher.fisher", "fisher_quad_score_variance", "fisher.quad_score_variance", None),
    ("gennorm_fisher.fisher", "fisher_closed_form", "fisher.closed_form", None),
    ("gennorm_fisher.cli", "fisher_closed_form", "fisher.closed_form", None),
    ("gennorm_fisher.cli", "fisher_quad_score_variance", "fisher.quad_score_variance", None),
    ("gennorm_fisher.cli", "fisher_quad_neg_hessian", "fisher.quad_neg_hessian", None),
    ("gennorm_fisher.cli", "fisher_mc_score_variance", "fisher.mc_score_variance", None),
    ("gennorm_fisher.cli", "expected_score_quad", "fisher.expected_score_quad", None),
    ("gennorm_fisher", "run_crlb_experiment", "estimation.run_crlb_experiment", None),
    ("gennorm_fisher.cli", "run_crlb_experiment", "estimation.run_crlb_experiment", None),
    ("gennorm_fisher.estimation", "trial_seed", "estimation.trial_seed", None),
    ("gennorm_fisher.estimation", "mle_theta", "estimation.mle_theta", _mle_attrs),
    ("gennorm_fisher.cli", "mle_theta", "estimation.mle_theta", _mle_attrs),
    ("gennorm_fisher.distribution", "log_gamma", "special_functions.log_gamma", None),
    ("gennorm_fisher.cli", "gamma", "special_functions.gamma", None),
    ("gennorm_fisher.cli", "gamma_rational", "special_functions.gamma_rational", None),
    ("gennorm_fisher.cli", "main", "cli.main", _cli_attrs),
)


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int  # index of the enclosing span, -1 at the top
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records a span for every call through the functions it wraps."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, attrs_fn=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = attrs_fn(args, kwargs) if attrs_fn else {}
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, 0, 0, parent, attrs)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter_ns()
                self._stack.pop()

        return traced

    def _wrap_quadrature(self, fn):
        # The integrand gets its own span, which splits the rule's own work
        # from the kernel time of the integrand it evaluates.
        def integrate(f, *args, **kwargs):
            return fn(self.wrap("quadrature.integrand", f, _integrand_attrs), *args, **kwargs)

        return self.wrap("quadrature.integrate_decaying", functools.wraps(fn)(integrate))

    def install(self) -> None:
        for module_name, attr, span_name, attrs_fn in PATCHES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            if span_name == "quadrature.integrate_decaying":
                setattr(module, attr, self._wrap_quadrature(fn))
            else:
                setattr(module, attr, self.wrap(span_name, fn, attrs_fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of its interval its child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0
        cursor = span.start
        for child in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], stdout_bytes: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in s, per-item costs in ns).

    A layer the pass never entered reads 0 on every metric.  The cli.*_import
    and interpreter metrics are measured separately and read 0 here.
    """
    own = self_times(spans)
    dur = defaultdict(int)
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    for span, s in zip(spans, own):
        key = span.name
        if span.name == "cli.main":
            key = f"cli.{span.attrs['command']}"
        dur[key] += span.end - span.start
        self_ns[key] += s
        calls[key] += 1

    quad_index = {i for i, s in enumerate(spans) if s.name == "quadrature.integrate_decaying"}
    failed = {i for i in quad_index if spans[i].attrs.get("error") == "QuadratureError"}
    nodes = failed_nodes = 0
    for span in spans:
        if span.name == "quadrature.integrand":
            nodes += span.attrs["nodes"]
            if span.parent in failed:
                failed_nodes += span.attrs["nodes"]
    draws = defaultdict(int)
    draw_ns = defaultdict(int)
    samples = 0
    for span in spans:
        if span.name == "distribution.sample":
            draws[span.attrs["branch"]] += span.attrs["draws"]
            draw_ns[span.attrs["branch"]] += span.end - span.start
        elif span.name == "estimation.mle_theta":
            samples += span.attrs["samples"]

    special = [k for k in calls if k.startswith("special_functions.")]
    m = {
        "quadrature.calls": len(quad_index),
        "quadrature.nodes": nodes,
        "quadrature.ns_per_node": _ratio(dur["quadrature.integrate_decaying"], nodes),
        "quadrature.integrand_s": dur["quadrature.integrand"] * 1e-9,
        "quadrature.self_s": self_ns["quadrature.integrate_decaying"] * 1e-9,
        "quadrature.failed": len(failed),
        "quadrature.failed_s": sum(spans[i].end - spans[i].start for i in failed) * 1e-9,
        "quadrature.useful_node_frac": _ratio(nodes - failed_nodes, nodes),
        "distribution.sample.calls": calls["distribution.sample"],
        "distribution.sample.draws": draws["beta_gt1"] + draws["beta_le1"],
        "distribution.sample.ns_per_draw.beta_gt1": _ratio(draw_ns["beta_gt1"], draws["beta_gt1"]),
        "distribution.sample.ns_per_draw.beta_le1": _ratio(draw_ns["beta_le1"], draws["beta_le1"]),
        "fisher.mc_score_variance.self_s": self_ns["fisher.mc_score_variance"] * 1e-9,
        "fisher.quad.self_s": sum(self_ns[k] for k in _FISHER_QUAD) * 1e-9,
        "estimation.trial_seed.calls": calls["estimation.trial_seed"],
        "estimation.trial_seed.s": dur["estimation.trial_seed"] * 1e-9,
        "estimation.run_crlb_experiment.self_s": self_ns["estimation.run_crlb_experiment"] * 1e-9,
        "estimation.mle_theta.s": dur["estimation.mle_theta"] * 1e-9,
        "estimation.mle_theta.ns_per_sample": _ratio(dur["estimation.mle_theta"], samples),
        "special_functions.calls": sum(calls[k] for k in special),
        "special_functions.s": sum(dur[k] for k in special) * 1e-9,
        "cli.interpreter_s": 0.0,
        "cli.numpy_import_s": 0.0,
        "cli.package_import_s": 0.0,
    }
    for command in CLI_COMMANDS:
        m[f"cli.{command}.self_s"] = self_ns[f"cli.{command}"] * 1e-9
        m[f"cli.{command}.stdout_bytes"] = stdout_bytes.get(command, 0)
    return m


def combine_passes(per_pass: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each metric over traced passes, and the count metrics that
    did not repeat exactly from pass to pass."""
    combined, unstable = {}, []
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        if LAYER_UNITS[name] in ("count", "bytes"):
            if len(set(values)) != 1:
                unstable.append(name)
            combined[name] = values[0]
        else:
            combined[name] = statistics.median(values)
    return combined, unstable
