"""The sweep tables run end to end through the CLI, modules use only each
other's public names, only distribution raises an array to the shape, only
special_functions takes log Gamma, the exact commands start without numpy and
the others with one BLAS thread, the package loads its names on first access,
and every name the benchmark's tracer patches exists."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gennorm_fisher import mle_moments_exact
from gennorm_fisher.cli import main
from gennorm_fisher.exact import QuadratureError

ROOT = Path(__file__).resolve().parents[1]


def _read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_sweep_crlb(tmp_path):
    out = tmp_path / "grid.csv"
    argv = ["sweep", "crlb", "--betas", "2,4", "--thetas", "1.5", "--sizes", "10,20",
            "--trials", "5", "--output", str(out)]
    assert main(argv) == 0
    header, rows = _read_csv(out)
    assert header == ["beta", "theta", "n", "trials", "mle_mean", "mle_variance", "crlb",
                      "efficiency", "variance_stderr", "failed_trials", "exact_variance",
                      "exact_efficiency"]
    assert len(rows) == 4 and all(len(row) == len(header) for row in rows)
    assert [row[:3] for row in rows] == [["2", "1.5", "10"], ["2", "1.5", "20"],
                                         ["4", "1.5", "10"], ["4", "1.5", "20"]]
    for row in rows:  # the exact columns are mle_moments_exact's, to the last digit
        law = mle_moments_exact(int(row[0]), 1.5, int(row[2]))
        assert row[-2:] == [repr(law.variance), repr(law.efficiency)]


def test_sweep_crlb_at_every_shape(capsys):
    # real shapes, from the Laplace shape toward the uniform; an integral one prints as an int
    assert main(["sweep", "crlb", "--betas", "1,2.5,1e6", "--sizes", "10", "--trials", "3"]) == 0
    header, *rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert [row[0] for row in rows] == ["1", "2.5", "1000000"]
    assert [float(row[-1]) for row in rows] == [
        mle_moments_exact(beta, 1.0, 10).efficiency for beta in (1.0, 2.5, 1e6)]


def test_sweep_crlb_writes_a_huge_integral_shape_as_a_float(capsys):
    # 1e20 wrote its 21 digits; 2 and 1000000 keep theirs
    assert main(["sweep", "crlb", "--betas", "1e20,2,1e6", "--sizes", "10", "--trials", "3"]) == 0
    header, *rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert [row[0] for row in rows] == ["1e+20", "2", "1000000"]


def test_sweep_routes(tmp_path):
    out = tmp_path / "routes.csv"
    assert main(["sweep", "routes", "--betas", "2,4", "--theta", "1.3", "--n", "200",
                 "--output", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["beta", "closed_form", "quad_score_variance", "quad_neg_hessian",
                      "mc_score_variance", "mc_stderr", "rel_gap_quad", "rel_gap_mc"]
    assert [float(row[0]) for row in rows] == [2.0, 4.0]
    for row in rows:
        assert float(row[1]) == pytest.approx(float(row[0]) / 1.3**2, rel=1e-12)
        assert float(row[6]) <= 1e-7


def test_a_sweep_writes_a_progress_line_per_cell_and_the_table_to_stdout(capsys):
    assert main(["sweep", "routes", "--betas", "2, 4,", "--n", "200"]) == 0
    captured = capsys.readouterr()
    assert [line.split(":")[0] for line in captured.err.splitlines()] == ["beta=2", "beta=4"]
    assert captured.out.startswith("beta,closed_form,") and captured.out.count("\n") == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        (["crlb", "--betas", "2.5,x", "--trials", "3"],
         "error: --betas entries must be real numbers: could not convert string to float: 'x'\n"),
        (["crlb", "--betas", "2,4", "--sizes", "10,0", "--trials", "3"],
         "error: n must be an integer >= 1, got 0\n"),
        (["crlb", "--sizes", "10,x", "--trials", "3"],
         "error: --sizes entries must be integers: invalid literal for int() with base 10: 'x'\n"),
        (["crlb", "--thetas", "1,y", "--trials", "3"],
         "error: --thetas entries must be real numbers: could not convert string to float: 'y'\n"),
        (["crlb", "--thetas", " , "], "error: --thetas must list at least one value\n"),
        (["routes", "--betas", "2,3", "--n", "200"],
         "error: shape beta must be a positive even integer, got 3\n"),
        (["routes", "--betas", "2,x", "--n", "200"],
         "error: --betas entries must be integers: invalid literal for int() with base 10: 'x'\n"),
        (["routes", "--betas", "4,2", "--n", "200", "--theta", "1e154"],
         "error: theta=1e+154 puts the information beta/theta**2 = 2e-308 outside the finite, "
         "normal doubles at beta=2.0\n"),
        (["crlb", "--theta", "2"], "error: sweep crlb does not read --theta (sweep routes only)\n"),
        (["routes", "--trials", "3", "--sizes", "10"], "error: sweep routes does not read "
         "--sizes (sweep crlb only), --trials (sweep crlb only)\n"),
        (["crlb", "--betas", "2", "--thetas", "1,1e160", "--sizes", "10", "--trials", "3"],
         "error: theta_true=1e+160 puts the bound theta_true**2/(n*beta) = inf outside the "
         "finite, normal doubles at n=10, beta=2\n"),
        (["crlb", "--betas", "2,1e-5", "--sizes", "1", "--trials", "3"],
         "error: the moments of the MLE at beta=1e-05, theta=1.0, n=1 are not all positive "
         "finite doubles\n"),
        (["routes", "--betas", "2,100", "--n", "500"],
         "error: n=500 is below 6*beta + 2 = 602.0 at beta=100.0, where the Monte Carlo "
         "route's relative standard error exceeds 1\n"),
    ],
)
def test_a_sweep_checks_every_cell_before_the_sweep(capsys, argv, message):
    # the CLI's rule: a usage error is one line on stderr and exit 2, and no cell has run
    assert main(["sweep", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message


@pytest.mark.parametrize("argv", [
    ["crlb", "--betas", "2", "--sizes", "10", "--trials", "3"],
    ["routes", "--betas", "2", "--n", "200"],
])
def test_a_sweep_with_an_unwritable_output_exits_2(capsys, tmp_path, argv):
    assert main(["sweep", *argv, "--output", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the error line alone: no cell ran, so no progress line came before it
    assert captured.err.startswith(f"error: cannot write {str(tmp_path)!r}: ")
    assert captured.err.count("\n") == 1


def test_a_route_that_fails_in_a_sweep_is_a_numerical_failure(capsys, monkeypatch):
    from gennorm_fisher import fisher

    def unconverged(params, *, tol, n, seed):
        raise QuadratureError("no convergence", 1.5, 0.25)

    monkeypatch.setattr(fisher, "METHODS", {**fisher.METHODS, "quad_neg_hessian": unconverged})
    assert main(["sweep", "routes", "--betas", "2", "--n", "200"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numerical failure: no convergence "
                            "(last difference 2.500e-01, partial value 1.5)\n")


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
    assert files
    assert [hit for path in files for hit in _private_imports(path)] == []


def _powers_of_the_shape(path):
    # a ** or **= whose exponent, or an np.power whose second argument, is
    # named beta, bf or b (a bare name or an attribute)
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
            exponent = node.right if isinstance(node, ast.BinOp) else node.value
        elif isinstance(node, ast.Call) and len(node.args) > 1 and (
                getattr(node.func, "attr", None) or getattr(node.func, "id", None)) == "power":
            exponent = node.args[1]
        else:
            continue
        name = getattr(exponent, "id", None) or getattr(exponent, "attr", None)
        if name in ("beta", "bf", "b"):
            yield f"{path.relative_to(ROOT)}:{node.lineno}"


def test_only_distribution_raises_to_the_shape():
    # distribution.standardized_power is the one power kernel: no other
    # module raises anything to the power of the shape
    files = sorted((ROOT / "src" / "gennorm_fisher").glob("*.py"))
    assert files
    hits = [hit for path in files if path.stem != "distribution"
            for hit in _powers_of_the_shape(path)]
    assert hits == []
    assert list(_powers_of_the_shape(ROOT / "src" / "gennorm_fisher" / "distribution.py"))


def _callers(path, names):
    # "module.function" for each call of a function named in names (bare, or an
    # attribute such as math.lgamma), by its innermost enclosing function
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (
                getattr(node.func, "attr", None) or getattr(node.func, "id", None)) in names:
            owners = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            owner = min(owners, key=lambda f: f.end_lineno - f.lineno).name if owners else ""
            yield f"{path.stem}.{owner}"


def test_only_special_functions_takes_log_gamma():
    # special_functions owns log Gamma, every ratio of Gammas and the density's
    # log-normalizer: it makes every call of math.lgamma and of log_gamma, and
    # exact.py, home of the moments and of the MLE's law, takes no log-Gamma of
    # its own
    files = sorted((ROOT / "src" / "gennorm_fisher").glob("*.py"))
    callers = {hit for path in files for hit in _callers(path, ("lgamma", "log_gamma"))}
    assert callers and all(c.startswith("special_functions.") for c in callers)
    exact_py = ROOT / "src" / "gennorm_fisher" / "exact.py"
    assert list(_callers(exact_py, ("lgamma", "log_gamma", "gamma"))) == []


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


_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _run_fresh(probe, **variables):
    # a fresh interpreter with the BLAS thread variables unset, then set to variables
    env = {name: value for name, value in os.environ.items() if name not in _BLAS_THREADS}
    env.update(variables)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=60)


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (None, 0),  # the package import and its closed forms
        (["verify", "lemma2"], 0),
        (["moments", "--k", "0,2"], 0),
        (["sweep", "crlb", "--theta", "2"], 2),
        (["--help"], 0),
        (["--version"], 0),
        (["pdf", "--min", "0"], 2),
        (["fisher", "--methods", "sorcery"], 2),
        (["pdf", "--min", "1", "--max", "0", "--count", "5"], 2),
    ],
)
def test_exact_commands_start_without_numpy(argv, exit_code):
    # in a fresh interpreter, since this one has imported numpy
    run = ("import gennorm_fisher as gf\n"
           "from gennorm_fisher.exact import cramer_rao_bound, fisher_information\n"
           "p = gf.GenNormParams(1.0, 2.0)\n"
           "gf.mle_moments_exact(2, 1.0, 10), gf.fisher_closed_form(p)\n"
           "gf.fisher_moment_identity(3, 1.0), gf.fisher_moment_identity(2.5, 1.0)\n"
           "fisher_information(2.0, 1.0), cramer_rao_bound(2.0, 1.0, 10)\n"
           "code = 0"
           if argv is None
           else f"from gennorm_fisher.cli import main; code = main({argv!r})")
    probe = f"import sys\n{run}\nprint('numpy' in sys.modules, file=sys.stderr)\nsys.exit(code)"
    proc = _run_fresh(probe)
    assert proc.returncode == exit_code, proc.stderr
    assert proc.stderr.endswith("False\n"), proc.stderr


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_a_command_starts_numpy_with_one_blas_thread():
    probe = (
        "import os, sys\n"
        "import gennorm_fisher.cli\n"
        f"unset = not any(name in os.environ for name in {_BLAS_THREADS!r})\n"
        "code = gennorm_fisher.cli.main(['fisher', '--methods', 'closed_form'])\n"
        "print(unset, 'numpy' in sys.modules, len(os.listdir('/proc/self/task')), file=sys.stderr)\n"
        "sys.exit(code)"
    )
    proc = _run_fresh(probe)
    assert proc.returncode == 0, proc.stderr
    # the import alone sets nothing; the command imports numpy, on one thread
    assert proc.stderr == "True True 1\n"


def test_a_blas_thread_count_the_user_set_is_kept():
    probe = (
        "import os, sys\n"
        "from gennorm_fisher.cli import main\n"
        "code = main(['fisher', '--methods', 'closed_form'])\n"
        f"print(*[os.environ[name] for name in {_BLAS_THREADS!r}], file=sys.stderr)\n"
        "sys.exit(code)"
    )
    proc = _run_fresh(probe, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "2 3\n"


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
