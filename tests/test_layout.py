"""The sweep scripts run end to end, modules use only each other's public
names, and every name the benchmark's tracer patches exists."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_script(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_crlb_grid_script(tmp_path):
    script = _load_script("crlb_grid")
    out = tmp_path / "grid.csv"
    argv = ["--betas", "2,4", "--thetas", "1.5", "--sizes", "10,20", "--trials", "5",
            "--output", str(out)]
    assert script.main(argv) == 0
    header, rows = _read_csv(out)
    assert header == list(script.COLUMNS)
    assert len(rows) == 4 and all(len(row) == len(header) for row in rows)
    assert [row[:3] for row in rows] == [["2", "1.5", "10"], ["2", "1.5", "20"],
                                         ["4", "1.5", "10"], ["4", "1.5", "20"]]


def test_fisher_routes_script(tmp_path):
    script = _load_script("fisher_routes")
    out = tmp_path / "routes.csv"
    assert script.main(["--betas", "2,4", "--theta", "1.3", "--n", "200",
                        "--output", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["beta", "closed_form", "quad_score_variance", "quad_neg_hessian",
                      "mc_score_variance", "mc_stderr", "rel_gap_quad", "rel_gap_mc"]
    assert [float(row[0]) for row in rows] == [2.0, 4.0]
    for row in rows:
        assert float(row[1]) == pytest.approx(float(row[0]) / 1.3**2, rel=1e-12)
        assert float(row[6]) <= 1e-7


def _private_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("gennorm_fisher"):
            continue  # third-party and standard-library imports
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.endswith("__"):
                yield f"{path.relative_to(ROOT)}: {alias.name}"


def test_no_module_imports_a_private_name():
    files = sorted((ROOT / "src" / "gennorm_fisher").glob("*.py"))
    files += sorted((ROOT / "scripts").glob("*.py"))
    assert files
    assert [hit for path in files for hit in _private_imports(path)] == []


def test_tracer_patch_targets_resolve(monkeypatch):
    # perfbench/tracing.py replaces these names while it runs; a missing one
    # makes `perfbench/run.py --trace 1` fail when it installs the tracer
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    assert tracing.PATCHES
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracing.PATCHES
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
