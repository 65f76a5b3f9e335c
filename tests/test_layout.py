"""The sweep scripts run end to end, modules use only each other's public
names, the exact commands start without numpy, the package loads its names
on first access, and every name the benchmark's tracer patches exists."""

import ast
import importlib
import importlib.util
import os
import subprocess
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



@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (None, 0),  # the package import alone
        (["verify", "lemma2"], 0),
        (["moments", "--k", "0,2"], 0),
        (["--help"], 0),
        (["--version"], 0),
        (["pdf", "--min", "0"], 2),
        (["fisher", "--methods", "sorcery"], 2),
        (["pdf", "--min", "1", "--max", "0", "--count", "5"], 2),
    ],
)
def test_exact_commands_start_without_numpy(argv, exit_code):
    # in a fresh interpreter, since this one has imported numpy
    run = ("import gennorm_fisher; code = 0" if argv is None
           else f"from gennorm_fisher.cli import main; code = main({argv!r})")
    probe = f"import sys\n{run}\nprint('numpy' in sys.modules, file=sys.stderr)\nsys.exit(code)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == exit_code, proc.stderr
    assert proc.stderr.endswith("False\n"), proc.stderr


def _public_names_by_module():
    names = {}
    for path in sorted((ROOT / "src" / "gennorm_fisher").glob("*.py")):
        if path.stem != "__init__":
            module = importlib.import_module(f"gennorm_fisher.{path.stem}")
            for name in getattr(module, "__all__", ()):
                names.setdefault(name, []).append(module)
    return names


def test_each_package_name_is_the_object_of_every_module_that_exports_it():
    import gennorm_fisher

    exported = _public_names_by_module()
    for name in gennorm_fisher.__all__:
        if name == "__version__":
            continue
        assert exported.get(name), f"{name} is exported by no module"
        value = getattr(gennorm_fisher, name)
        assert all(getattr(module, name) is value for module in exported[name]), name


def test_the_lazy_package_lists_imports_and_rejects_names():
    import gennorm_fisher
    import gennorm_fisher.cli

    assert set(gennorm_fisher.__all__) <= set(dir(gennorm_fisher))
    namespace = {}
    exec("from gennorm_fisher import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(gennorm_fisher.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        gennorm_fisher.no_such_name  # noqa: B018
    assert not hasattr(gennorm_fisher.cli, "no_such_name")
