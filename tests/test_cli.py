"""End-to-end command-line tests (in-process, asserting exit codes and output)."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gennorm_fisher import GenNormParams, __version__, fisher_moment_identity, log_pdf, mle_theta
from gennorm_fisher import pdf, sample
from gennorm_fisher import ExperimentConfig, QuadratureError, run_crlb_experiment
from gennorm_fisher import cli
from gennorm_fisher.cli import csv_table, main
from gennorm_fisher.fisher import score_z


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestPdfCommand:
    def test_single_point_laplace_peak(self, capsys):
        code, out, _ = run(capsys, "pdf", "--theta", "1", "--beta", "1",
                           "--min", "0", "--max", "0", "--count", "1")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "pdf", "log_pdf"]
        assert rows == [["0.0", "0.5", "-0.6931471805599453"]]

    def test_symmetric_grid(self, capsys):
        code, out, _ = run(capsys, "pdf", "--theta", "1", "--beta", "2",
                           "--min", "-3", "--max", "3", "--count", "21")
        assert code == 0
        _, rows = parse_csv(out)
        dens = [float(r[1]) for r in rows]
        # grid endpoints mirror exactly; interior nodes only up to linspace rounding
        for a, b in zip(dens, dens[::-1]):
            assert a == pytest.approx(b, rel=1e-9)

    def test_large_shape_approaches_uniform(self, capsys):
        code, out, _ = run(capsys, "pdf", "--theta", "1", "--beta", "64",
                           "--min", "-2", "--max", "2", "--count", "81")
        assert code == 0
        _, rows = parse_csv(out)
        for r in rows:
            x, density = float(r[0]), float(r[1])
            if abs(x) < 0.9:
                assert abs(density - 0.5) <= 0.01
            elif abs(x) > 1.1:
                assert density <= 1e-3

    @pytest.mark.parametrize(
        "beta, lo, hi, count",
        [(3.5, -2, 2, 9), (0.5, -2, 2, 9), (2.0, -2, 2, 9), (64.0, -2, 2, 9),
         (0.5, 0.7, 0.7, 1), (2.0, 0.7, 0.7, 1), (64.0, 0.7, 0.7, 1)],
    )
    def test_csv_round_trip(self, capsys, beta, lo, hi, count):
        code, out, _ = run(capsys, "pdf", "--theta", "1.3", "--beta", str(beta),
                           "--min", str(lo), "--max", str(hi), "--count", str(count))
        assert code == 0
        params = GenNormParams(1.3, beta)
        # the text of each value is its repr, which reads back exactly
        lines = [f"{x!r},{pdf(params, x)!r},{log_pdf(params, x)!r}"
                 for x in np.linspace(lo, hi, count).tolist()]
        assert out == "\n".join(["x,pdf,log_pdf", *lines]) + "\n"

    @pytest.mark.filterwarnings("error")  # numpy's overflow warning would raise here
    def test_unrepresentable_density_is_usage_error(self, capsys):
        # at theta = 1e-310 the density at x = 0 is 5.6e309; at x = 0.5 and 1,
        # x/theta overflows and the density is 0
        code, out, err = run(capsys, "pdf", "--min", "0", "--max", "1", "--count", "3",
                             "--theta", "1e-310")
        assert code == 2 and out == ""
        assert err == "error: the density at x=0.0 exceeds the double range\n"

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "pdf", "--format", "json", "--theta", "1",
                           "--beta", "2", "--min", "-1", "--max", "1", "--count", "5")
        assert code == 0
        record = json.loads(out)
        assert record["command"] == "pdf"
        assert set(record) == {"command", "inputs", "outputs", "metadata"}
        assert record["metadata"]["version"]
        params = GenNormParams(1.0, 2.0)
        for x, density, log_density in record["outputs"]["rows"]:
            assert density == pdf(params, x)
            assert log_density == log_pdf(params, x)

    def test_grid_validation(self, capsys):
        code, _, err = run(capsys, "pdf", "--min", "0", "--max", "1", "--count", "1")
        assert code == 2
        assert err.startswith("error:")
        code, _, _ = run(capsys, "pdf", "--min", "1", "--max", "0", "--count", "5")
        assert code == 2
        code, _, _ = run(capsys, "pdf", "--min", "0", "--max", "1", "--count", "0")
        assert code == 2

    def test_invalid_params(self, capsys):
        code, _, err = run(capsys, "pdf", "--theta", "-1", "--min", "0",
                           "--max", "1", "--count", "5")
        assert code == 2
        assert "theta" in err

    @pytest.mark.filterwarnings("error")  # numpy's linspace warnings would raise here
    @pytest.mark.parametrize(
        "bounds, message",
        [(("--min=-inf", "--max", "0", "--count", "3"), "--min must be finite, got -inf"),
         (("--min", "0", "--max", "inf", "--count", "3"), "--max must be finite, got inf"),
         (("--min=-inf", "--max=-inf", "--count", "1"), "--min must be finite, got -inf"),
         (("--min", "nan", "--max", "nan", "--count", "1"), "--min must be finite, got nan"),
         (("--min=-1e308", "--max", "1e308", "--count", "3"),
          "the span --max - --min overflows: --min -1e+308, --max 1e+308")],
        ids=["min", "max", "single-point", "nan", "span"],
    )
    def test_non_finite_bounds_are_usage_errors(self, capsys, bounds, message):
        code, out, err = run(capsys, "pdf", *bounds)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lo, hi", [("0", "1.7976931348623157e308"),
                                        ("-1.7976931348623157e308", "0")])
    def test_a_span_at_the_top_of_the_double_range_prints_its_bounds(self, capsys, lo, hi):
        # linspace overflows on its last node before setting it to --max
        code, out, _ = run(capsys, "pdf", f"--min={lo}", f"--max={hi}", "--count", "4")
        assert code == 0
        _, rows = parse_csv(out)
        with np.errstate(over="ignore"):
            grid = np.linspace(float(lo), float(hi), 4).tolist()
        assert [float(r[0]) for r in rows] == grid
        assert [r[1] for r in rows if r[0] != "0.0"] == ["0.0"] * 3

    def test_a_shape_whose_reciprocal_overflows_is_named(self, capsys):
        code, out, err = run(capsys, "pdf", "--min", "0", "--max", "0", "--count", "1",
                             "--beta", "1e-310")
        assert code == 2 and out == ""
        assert err == "error: beta=1e-310 is too small: 1/beta overflows the double range\n"

    @pytest.mark.parametrize("argv, cell", [
        (("pdf", "--min", "0", "--max", "0", "--count", "1", "--theta", "1", "--beta", "1"),
         ("pdf", "0.5")),
        (("sweep", "routes", "--betas", "2", "--n", "200"), ("closed_form", "2.0")),
    ], ids=["pdf", "sweep"])
    def test_output_file(self, capsys, tmp_path, argv, cell):
        # every writing command takes the one --output option
        target = tmp_path / "table.csv"
        code, out, _ = run(capsys, *argv, "--output", str(target))
        assert code == 0 and out == ""
        header, rows = parse_csv(target.read_text())
        column, value = cell
        assert rows[0][header.index(column)] == value


class TestFisherCommand:
    def test_all_methods_even_shape(self, capsys):
        code, out, _ = run(capsys, "fisher", "--theta", "1", "--beta", "2",
                           "--n", "100000")
        assert code == 0
        _, rows = parse_csv(out)
        methods = [r[0] for r in rows]
        assert methods == ["closed_form", "quad_score_variance",
                           "quad_neg_hessian", "mc_score_variance"]
        by_method = {r[0]: (float(r[1]), float(r[2])) for r in rows}
        assert by_method["closed_form"] == (2.0, 0.0)
        assert by_method["quad_score_variance"][0] == pytest.approx(2.0, rel=1e-7)
        mc_value, mc_err = by_method["mc_score_variance"]
        assert abs(mc_value - 2.0) <= 4.0 * mc_err

    def test_theta_two(self, capsys):
        code, out, _ = run(capsys, "fisher", "--theta", "2", "--beta", "2",
                           "--methods", "closed_form")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == 0.5

    def test_closed_form_odd_shape_is_usage_error(self, capsys):
        code, _, err = run(capsys, "fisher", "--beta", "3", "--methods", "closed_form")
        assert code == 2
        assert "even" in err

    def test_quad_route_for_odd_shape(self, capsys):
        code, out, _ = run(capsys, "fisher", "--beta", "3", "--tol", "1e-9",
                           "--methods", "quad_score_variance")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1
        value, err_est = float(rows[0][1]), float(rows[0][2])
        assert math.isfinite(value) and value > 0.0
        assert err_est <= 1e-9 * value

    def test_all_skips_closed_form_for_odd_shape(self, capsys):
        code, out, _ = run(capsys, "fisher", "--beta", "3", "--n", "1000",
                           "--methods", "all")
        assert code == 0
        _, rows = parse_csv(out)
        assert "closed_form" not in [r[0] for r in rows]

    @pytest.mark.parametrize("theta, information", [("1e200", "0.0"), ("1e-200", "inf")])
    @pytest.mark.parametrize("method", ["closed_form", "quad_score_variance", "mc_score_variance"])
    def test_underflowed_information_is_usage_error(self, capsys, monkeypatch, method, theta,
                                                    information):
        # beta/theta**2 past the double range either way names theta, before any route runs
        from gennorm_fisher import fisher

        monkeypatch.setattr(fisher, "METHODS", {})  # a route that ran would be a KeyError
        code, out, err = run(capsys, "fisher", "--theta", theta, "--methods", method)
        assert (code, out) == (2, "")
        assert err == (f"error: theta={float(theta)!r} puts the information beta/theta**2 = "
                       f"{information} outside the finite, normal doubles at beta=2.0\n")

    @pytest.mark.parametrize("argv", [
        ("estimate", "--simulate", "--n", "100"),
    ])
    def test_draws_that_overflow_name_theta_and_beta(self, capsys, argv):
        # G**(1/beta) with G near 200 is past the double range at beta = 0.005
        assert run(capsys, *argv, "--beta", "0.005") == (
            2, "", "error: a draw overflows the double range at theta=1.0, beta=0.005\n")

    @pytest.mark.parametrize("theta", ["1", "2"])
    def test_the_monte_carlo_route_runs_where_the_magnitudes_overflow(self, capsys, theta):
        # the route takes the powers of the draws, never |z| = G**200 at beta = 0.005
        code, out, err = run(capsys, "fisher", "--beta", "0.005", "--theta", theta,
                             "--methods", "mc_score_variance", "--n", "1000")
        assert (code, err) == (0, "")
        (method, value, stderr), = parse_csv(out)[1]
        target = 0.005 / float(theta) ** 2
        assert method == "mc_score_variance"
        assert abs(float(value) - target) <= 4.0 * float(stderr)

    def test_the_monte_carlo_route_below_eps_is_usage_error(self, capsys):
        assert run(capsys, "fisher", "--beta", "1e-17", "--methods", "mc_score_variance",
                   "--n", "100") == (
            2, "", "error: beta=1e-17 is below eps = 2.2e-16, where the Monte Carlo score "
                   "keeps less than half the digits of its spread\n")

    @pytest.mark.parametrize("argv", [("--seed", "3"), ("--methods", "mc_score_variance",
                                                      "--n", "1000")])
    def test_too_few_draws_for_the_shape_is_a_usage_error(self, capsys, monkeypatch, argv):
        # the Monte Carlo route printed 2542.9 +- 2339.5 against 10**6 at the
        # default n; its bound is checked before any route runs
        from gennorm_fisher import fisher

        monkeypatch.setattr(fisher, "METHODS", {})  # a route that ran would be a KeyError
        n = dict(zip(argv[::2], argv[1::2])).get("--n", "1000000")
        assert run(capsys, "fisher", "--beta", "1e6", *argv) == (
            2, "", f"error: n={n} is below 6*beta + 2 = 6000002.0 at beta=1000000.0, where the "
                   "Monte Carlo route's relative standard error exceeds 1\n")

    def test_the_draw_bound_holds_only_where_the_route_runs(self, capsys):
        code, out, err = run(capsys, "fisher", "--beta", "1e6", "--n", "1000",
                             "--methods", "quad_score_variance")
        assert (code, err) == (0, "")
        assert float(parse_csv(out)[1][0][1]) == pytest.approx(1e6, rel=1e-7)

    def test_methods_that_name_no_method(self, capsys):
        assert run(capsys, "fisher", "--methods", " , ") == (
            2, "", "error: --methods must name at least one method\n")

    def test_unknown_method(self, capsys):
        code, _, err = run(capsys, "fisher", "--methods", "sorcery")
        assert code == 2
        assert "sorcery" in err

    @pytest.mark.parametrize("methods", ["closed_form", "quad_neg_hessian", "mc_score_variance",
                                         "all"])
    @pytest.mark.parametrize("argv, message", [
        (("--tol", "5", "--n", "3"), "tol must be in (0, 1e-2], got 5.0"),
        (("--tol", "0"), "tol must be in (0, 1e-2], got 0.0"),
        (("--tol", "nan"), "tol must be finite, got nan"),
        (("--n", "99"), "n must be an integer >= 100, got 99"),
    ])
    def test_tol_and_n_are_checked_before_any_route_runs(self, capsys, monkeypatch, methods,
                                                         argv, message):
        from gennorm_fisher import fisher

        monkeypatch.setattr(fisher, "METHODS", {})  # a route that ran would be a KeyError
        code, out, err = run(capsys, "fisher", "--methods", methods, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestMomentsCommand:
    def test_odd_orders_vanish(self, capsys):
        code, out, _ = run(capsys, "moments", "--theta", "2", "--beta", "1.7",
                           "--k", "1,3,5")
        assert code == 0
        _, rows = parse_csv(out)
        assert [float(r[1]) for r in rows] == [0.0, 0.0, 0.0]

    def test_known_values(self, capsys):
        code, out, _ = run(capsys, "moments", "--theta", "1", "--beta", "2",
                           "--k", "0,2")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == 1.0
        assert float(rows[1][1]) == pytest.approx(0.5, rel=1e-13)

    @pytest.mark.parametrize(
        "argv, named",
        [(("--k", "400", "--beta", "0.5"), "E[X^400] at theta=1.0, beta=0.5"),
         (("--k", "2", "--theta", "1e200"), "E[X^2] at theta=1e+200, beta=2.0")],
        ids=["order", "theta"],
    )
    def test_unrepresentable_moment_is_usage_error(self, capsys, argv, named):
        code, out, err = run(capsys, "moments", *argv)
        assert code == 2 and out == ""
        assert err == f"error: {named} exceeds the double range\n"

    def test_a_shape_whose_reciprocal_overflows_is_named(self, capsys):
        code, out, err = run(capsys, "moments", "--k", "0", "--beta", "1e-310")
        assert code == 2 and out == ""
        assert err == "error: beta=1e-310 is too small: 1/beta overflows the double range\n"

    def test_bad_order_list(self, capsys):
        assert run(capsys, "moments", "--k", "2,x") == (
            2, "", "error: --k entries must be integers: invalid literal for int() with "
                   "base 10: 'x'\n")
        assert run(capsys, "moments", "--k", " , ") == (
            2, "", "error: --k must list at least one value\n")
        assert run(capsys, "moments", "--k", "-2")[0] == 2

    def test_blank_order_entries_are_skipped(self, capsys):
        assert run(capsys, "moments", "--k", " 0,, 2,") == run(capsys, "moments", "--k", "0,2")


class TestEstimateCommand:
    def test_two_point_file(self, capsys, tmp_path):
        f = tmp_path / "samples.txt"
        f.write_text("1\n\n-1\n")  # blank line ignored
        code, out, _ = run(capsys, "estimate", "--beta", "2", "--input", str(f))
        assert code == 0
        record = json.loads(out)
        assert record["outputs"]["theta_hat"] == math.sqrt(2.0)
        assert abs(record["outputs"]["score_residual"]) <= 1e-12
        assert record["outputs"]["n_samples"] == 2

    def test_simulated_input(self, capsys):
        code, out, _ = run(capsys, "estimate", "--beta", "4", "--simulate",
                           "--theta", "2", "--n", "100000", "--seed", "7")
        assert code == 0
        record = json.loads(out)
        band = 4.0 * math.sqrt(4.0 / (100000 * 4.0))
        assert abs(record["outputs"]["theta_hat"] - 2.0) <= band

    @pytest.mark.parametrize("beta", [0.5, 2.0, 4.0])
    def test_simulated_input_equals_signed_draws(self, capsys, beta):
        # the gammas alone, the normals and the boost
        code, out, _ = run(capsys, "estimate", "--beta", str(beta), "--simulate",
                           "--theta", "1.7", "--n", "1000", "--seed", "3")
        assert code == 0
        draws = sample(GenNormParams(1.7, beta), 1000, 3)
        theta_hat = mle_theta(draws, beta)
        residual = float(score_z(beta, draws / theta_hat).sum()) / theta_hat
        assert json.loads(out)["outputs"] == {"theta_hat": theta_hat, "score_residual": residual,
                                              "n_samples": 1000}

    def test_all_zero_file_is_degenerate(self, capsys, tmp_path):
        f = tmp_path / "zeros.txt"
        f.write_text("0\n0\n0\n")
        code, _, err = run(capsys, "estimate", "--beta", "2", "--input", str(f))
        assert code == 2
        assert "zero" in err

    def test_a_shape_whose_reciprocal_overflows_is_named(self, capsys, tmp_path):
        f = tmp_path / "two.txt"
        f.write_text("1\n2\n")
        code, out, err = run(capsys, "estimate", "--beta", "1e-310", "--input", str(f))
        assert code == 2 and out == ""
        assert err == "error: beta=1e-310 is too small: 1/beta overflows the double range\n"

    def test_underflowing_estimate_is_degenerate(self, capsys, tmp_path):
        f = tmp_path / "tiny.txt"
        f.write_text("0\n" * 39 + "1e-322\n")
        code, out, err = run(capsys, "estimate", "--beta", "0.5", "--input", str(f))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "underflows" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("source, theta_hat", [
        (("--simulate", "--n", "1000", "--theta", "1e-320"), "9.857e-321"),
        (("--input", "tiny.txt"), "3.055e-320"),
    ], ids=["simulate", "input"])
    def test_a_subnormal_estimate_is_named(self, capsys, tmp_path, monkeypatch, source,
                                           theta_hat, fmt):
        # the residual is in units of 1/theta_hat: it printed inf, and the
        # JSON record held Infinity
        monkeypatch.chdir(tmp_path)
        (tmp_path / "tiny.txt").write_text("1e-320\n2e-320\n-3e-320\n")
        code, out, err = run(capsys, "estimate", "--beta", "2", *source, "--format", fmt)
        assert (code, out) == (2, "")
        assert err == (f"error: theta_hat={theta_hat} is below the normal doubles, where the "
                       "score residual, in units of 1/theta_hat, can overflow\n")

    def test_empty_and_unparsable_files(self, capsys, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("\n\n")
        assert run(capsys, "estimate", "--beta", "2", "--input", str(empty))[0] == 2
        bad = tmp_path / "bad.txt"
        bad.write_text("1.0\npotato\n")
        code, _, err = run(capsys, "estimate", "--beta", "2", "--input", str(bad))
        assert code == 2 and "potato" in err
        assert run(capsys, "estimate", "--beta", "2", "--input",
                   str(tmp_path / "missing.txt"))[0] == 2

    def test_requires_exactly_one_source(self, capsys, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text("1\n")
        assert run(capsys, "estimate", "--beta", "2")[0] == 2
        assert run(capsys, "estimate", "--beta", "2", "--input", str(f),
                   "--simulate")[0] == 2

    @pytest.mark.parametrize("option, value", [("--theta", "5"), ("--n", "3"), ("--seed", "9")])
    def test_input_rejects_the_options_only_simulate_reads(self, capsys, tmp_path, option, value):
        f = tmp_path / "s.txt"
        f.write_text("1\n-1\n")
        code, out, err = run(capsys, "estimate", "--input", str(f), "--beta", "2", option, value)
        assert code == 2 and out == ""
        assert err == f"error: estimate --input does not read {option} (estimate --simulate only)\n"

    def test_input_names_every_unread_option(self, capsys, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text("1\n-1\n")
        code, out, err = run(capsys, "estimate", "--input", str(f), "--beta", "2",
                             "--theta", "5", "--n", "3", "--seed", "9")
        assert code == 2 and out == ""
        assert err == ("error: estimate --input does not read --theta (estimate --simulate only), "
                       "--n (estimate --simulate only), --seed (estimate --simulate only)\n")

    def test_simulate_defaults_are_theta_1_n_1e6_seed_0(self, capsys):
        code, out, _ = run(capsys, "estimate", "--simulate")
        assert code == 0
        record = json.loads(out)
        assert record["inputs"]["generator"] == {"theta": 1.0, "beta": 2.0, "n": 1_000_000,
                                                 "seed": 0}
        assert record["metadata"]["seed"] == 0
        argv = ("estimate", "--simulate", "--n", "100")
        assert run(capsys, *argv) == run(capsys, *argv, "--theta", "1", "--seed", "0")

    def test_csv_format(self, capsys, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text("1\n-1\n")
        code, out, _ = run(capsys, "estimate", "--beta", "2", "--input", str(f),
                           "--format", "csv")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["theta_hat", "score_residual", "n_samples"]
        assert float(rows[0][0]) == math.sqrt(2.0)


class TestVerifyCommand:
    def test_lemma_identity_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "lemma2")
        assert code == 0
        assert "36/36 checks passed" in out
        assert "FAIL" not in out

    def test_equivalence_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "equivalence")
        assert code == 0
        assert "24/24 checks passed" in out

    def test_closed_form_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "theorem1", "--n", "200000")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "theorem1: 36/36 checks passed"
        # each check's name and tolerance text, in order
        checks = [(line.split(" observed=")[0], line.split(" tol=")[1]) for line in lines[:-1]]
        assert checks == [
            (f"PASS theorem1[beta={beta},theta={theta}] {name}", tol)
            for beta in (2, 4, 6, 8)
            for theta in (0.5, 1.0, 2.0)
            for name, tol in (("score-variance", "rel 1e-7"), ("neg-hessian", "rel 1e-7"),
                              ("monte-carlo", "4 standard errors"))
        ]

    def test_shapes_suite(self, capsys):
        # theorem1's three checks at shapes that are not even, against the
        # moment identity
        code, out, err = run(capsys, "verify", "shapes")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[-1] == "shapes: 45/45 checks passed"
        checks = [(line.split(" observed=")[0], line.split(" tol=")[1]) for line in lines[:-1]]
        assert checks == [
            (f"PASS shapes[beta={beta},theta={theta}] {name}", tol)
            for beta in (0.5, 1, 1.5, 3, 5)
            for theta in (0.5, 1.0, 2.0)
            for name, tol in (("score-variance", "rel 1e-7"), ("neg-hessian", "rel 1e-7"),
                              ("monte-carlo", "4 standard errors"))
        ]
        expected = [float(line.split(" expected=")[1].split()[0]) for line in lines[:-1]]
        assert expected == [fisher_moment_identity(beta, theta)
                            for beta in (0.5, 1, 1.5, 3, 5) for theta in (0.5, 1.0, 2.0)
                            for _ in range(3)]

    def test_shapes_reads_theorem1s_options(self, capsys):
        argv = ("verify", "shapes", "--n", "1000", "--tol", "1e-8")
        assert run(capsys, *argv) == run(capsys, *argv, "--seed", str(cli.DEFAULT_SEED))
        assert run(capsys, *argv)[1] != run(capsys, *argv, "--seed", "3")[1]
        code, out, err = run(capsys, "verify", "shapes", "--trials", "3")
        assert (code, out) == (2, "") and "verify shapes does not read --trials" in err

    def test_crlb_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "crlb", "--beta", "2", "--theta", "1")
        assert code == 0
        assert "efficiency" in out and "FAIL" not in out

    def test_crlb_defaults_are_beta_2_theta_1(self, capsys):
        argv = ("verify", "crlb", "--n", "200", "--trials", "20")
        default = run(capsys, *argv)[:2]
        assert "crlb[beta=2,theta=1.0] efficiency" in default[1]
        assert default == run(capsys, *argv, "--beta", "2", "--theta", "1")[:2]

    @pytest.mark.parametrize("beta, tag", [("2.5", "2.5"), ("4.9", "4.9"), ("3", "3"),
                                           ("1e6", "1000000")])
    def test_crlb_runs_at_every_shape(self, capsys, beta, tag):
        # run as given, not truncated to an even shape; an integral one prints as an int
        code, out, err = run(capsys, "verify", "crlb", "--beta", beta, "--n", "100",
                             "--trials", "50")
        report = run_crlb_experiment(ExperimentConfig(float(beta), 1.0, 100, 50, cli.DEFAULT_SEED))
        ok = 0.9 <= report.efficiency <= 1.1
        assert (code, err) == (0 if ok else 1, "")
        assert out.splitlines()[0] == (f"{'PASS' if ok else 'FAIL'} crlb[beta={tag},theta=1.0] "
                                       f"efficiency observed={report.efficiency} expected=1.0 "
                                       "tol=band [0.9, 1.1]")

    def test_crlb_passes_at_the_laplace_shape(self, capsys):
        # the defaults, n = 10**4 and 1000 trials, where the exact efficiency is 1
        code, out, err = run(capsys, "verify", "crlb", "--beta", "1")
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "crlb: 2/2 checks passed"
        assert out.startswith("PASS crlb[beta=1,theta=1.0] efficiency observed=1.0013787")

    def test_crlb_names_a_huge_integral_shape_as_a_float(self, capsys):
        # an integral shape from 2**53 printed all 301 digits of 1e300
        code, out, err = run(capsys, "verify", "crlb", "--beta", "1e300", "--n", "10",
                             "--trials", "3")
        assert (code, err) == (1, "")
        assert out.startswith("FAIL crlb[beta=1e+300,theta=1.0] efficiency observed=")

    def test_crlb_at_a_shape_whose_ratio_law_overflows_is_a_usage_error(self, capsys):
        # the float power printed "error: (34, 'Numerical result out of range')"
        assert run(capsys, "verify", "crlb", "--beta", "1e-6", "--n", "1", "--trials", "50") == (
            2, "", "error: the moments of the MLE at beta=1e-06, theta=1.0, n=1 are not all "
                   "positive finite doubles\n")

    def test_crlb_fails_toward_the_uniform(self, capsys):
        # at beta = 10**6 the MLE's exact efficiency at n = 10**4 is 0.01: the
        # bound is far from attained, and the check says so
        code, out, _ = run(capsys, "verify", "crlb", "--beta", "1e6", "--trials", "100")
        assert code == 1
        assert out.startswith("FAIL crlb[beta=1000000,theta=1.0] efficiency observed=0.01")

    @pytest.mark.parametrize("theta", ["1e-320", "1e-170", "1e160"])
    def test_crlb_unrepresentable_bound_is_usage_error(self, capsys, theta):
        code, out, err = run(capsys, "verify", "crlb", "--theta", theta, "--n", "100", "--trials", "5")
        assert code == 2 and out == "" and "theta_true" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "lemma2", "--beta", "7"),
            ("verify", "theorem1", "--theta", "3"),
            ("verify", "equivalence", "--beta", "2", "--theta", "1"),
        ],
    )
    def test_beta_and_theta_are_crlb_only(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "verify crlb only" in err

    def test_unknown_suite_is_usage_error(self, capsys):
        assert run(capsys, "verify", "fermat")[0] == 2

    def test_output_option_is_rejected(self, capsys, tmp_path):
        # verify prints its checks; an --output it would ignore is a usage error
        target = tmp_path / "f"
        code, out, err = run(capsys, "verify", "lemma2", "--output", str(target))
        assert code == 2 and out == "" and "--output" in err
        assert not target.exists()

    @pytest.mark.parametrize(
        "suite, checks",
        [
            ("lemma2", [(f"lemma2[n={n},p={p}]", "rel 1e-12")
                        for n in range(1, 7) for p in range(1, 7)]),
            ("equivalence", [(f"equivalence[beta={beta},theta={theta}] {name}", tol)
                             for beta in (2, 4, 6, 8) for theta in (0.5, 1.0, 2.0)
                             for name, tol in (("routes", "abs 2e-8*value"),
                                               ("zero-mean-score", "abs 1e-9"))]),
            ("crlb", [("crlb[beta=2,theta=1.0] efficiency", "band [0.9, 1.1]"),
                      ("crlb[beta=2,theta=1.0] failed-trials", "exact")]),
            ("attainment", [(f"attainment[beta={beta},n={n}] {name}", tol)
                            for beta in (0.5, 1, 2, 8, 64, 1024) for n in (1, 10, 100)
                            for name, tol in (("crlb-le-b2", "b2 >= crlb"),
                                              ("b2-le-umvue", "b2 <= umvue + 4 ulp"))]),
        ],
    )
    def test_each_suite_prints_its_checks_in_order(self, capsys, suite, checks):
        code, out, err = run(capsys, "verify", suite)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[-1] == f"{suite}: {len(checks)}/{len(checks)} checks passed"
        assert [(line.split(" observed=")[0], line.split(" tol=")[1]) for line in lines[:-1]] == [
            (f"PASS {name}", tol) for name, tol in checks
        ]

    @pytest.fixture
    def neg_hessian(self, monkeypatch):
        """Replace the route that verify equivalence checks against the score
        variance; returns a setter taking the replacement's body."""
        from gennorm_fisher import fisher

        true_route = fisher.fisher_quad_neg_hessian
        calls = []

        def install(body):
            def route(params, **kwargs):
                calls.append(params)
                return body(len(calls), true_route(params, **kwargs))
            monkeypatch.setattr(fisher, "fisher_quad_neg_hessian", route)
        return install

    def test_a_failing_check_prints_fail_and_exits_1(self, capsys, neg_hessian):
        neg_hessian(lambda call, est: dataclasses.replace(est, value=2 * est.value))
        code, out, err = run(capsys, "verify", "equivalence")
        assert code == 1 and err == ""
        lines = out.splitlines()
        assert lines[-1] == "equivalence: 12/24 checks passed"
        assert [line.split(" ")[0] for line in lines[:-1]] == ["FAIL", "PASS"] * 12
        assert all(line.split(" observed=")[0].endswith(" routes") for line in lines[:-1:2])

    def test_checks_print_as_they_run(self, capsys, neg_hessian):
        # a route that fails mid-suite leaves the checks before it on stdout
        expected = run(capsys, "verify", "equivalence")[1].splitlines(keepends=True)[:2]

        def fail_second(call, est):
            if call == 2:
                raise QuadratureError("no convergence", partial=1.0, error_estimate=0.5)
            return est
        neg_hessian(fail_second)
        code, out, err = run(capsys, "verify", "equivalence")
        assert code == 1 and out == "".join(expected)
        assert [line.split(" ")[0] for line in expected] == ["PASS", "PASS"]
        assert err == ("numerical failure: no convergence (last difference 5.000e-01, "
                       "partial value 1.0)\n")


class TestUnreadOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "lemma2", "--format", "json"),
            ("pdf", "--min", "0", "--max", "0", "--count", "1", "--seed", "3"),
            ("moments", "--k", "2", "--seed", "3"),
        ],
    )
    def test_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "argv, option",
        [
            (("verify", "lemma2", "--seed", "3"), "--seed"),
            (("verify", "lemma2", "--tol", "5"), "--tol"),
            (("verify", "lemma2", "--n", "7"), "--n"),
            (("verify", "lemma2", "--trials", "2"), "--trials"),
            (("verify", "equivalence", "--n", "7"), "--n"),
            (("verify", "equivalence", "--seed", "3"), "--seed"),
            (("verify", "equivalence", "--trials", "2"), "--trials"),
            (("verify", "theorem1", "--trials", "2"), "--trials"),
            (("verify", "crlb", "--tol", "1e-9"), "--tol"),
            (("verify", "attainment", "--n", "7"), "--n"),
        ],
    )
    def test_a_verify_suite_rejects_options_it_does_not_read(self, capsys, argv, option):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"verify {argv[1]} does not read {option} (verify " in err

    def test_lemma2_names_every_unread_option(self, capsys):
        code, out, err = run(capsys, "verify", "lemma2", "--seed", "3", "--tol", "5",
                             "--n", "7", "--trials", "2")
        assert code == 2 and out == ""
        assert all(option in err for option in ("--seed", "--tol", "--n", "--trials"))

    def test_a_suite_reads_its_options_with_their_defaults(self, capsys):
        default = run(capsys, "verify", "equivalence")
        assert default[0] == 0
        assert run(capsys, "verify", "equivalence", "--tol", "1e-9") == default
        argv = ("verify", "crlb", "--n", "300", "--trials", "30")
        assert run(capsys, *argv) == run(capsys, *argv, "--seed", "20260819")


class TestModeOptions:
    """A verify suite's or sweep table's keyword defaults are its options."""

    @pytest.fixture(autouse=True)
    def wide_help(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # argparse wraps help to the terminal width

    @staticmethod
    def option_help(capsys, command):
        """{option: help text} from `command --help`, one option per line."""
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        lines = out.split("options:\n", 1)[1].splitlines()
        return {line.split()[0]: " ".join(line.split()[2:]) for line in lines
                if line.startswith("  --") and line.split()[0] != "--output"}

    @pytest.mark.parametrize("command, table", [
        ("verify", {suite: run.__kwdefaults__ or {} for suite, run in cli._VERIFY_SUITES.items()}),
        ("sweep", {table: run.__kwdefaults__ for table, (_, run) in cli._SWEEPS.items()}),
    ])
    def test_help_names_each_mode_default(self, capsys, command, table):
        shown = self.option_help(capsys, command)
        readers = {}
        for mode, defaults in table.items():
            for name, default in defaults.items():
                readers.setdefault(f"--{name}", []).append(f"{mode} default {default}")
        assert shown == {option: "; ".join(items) for option, items in readers.items()}

    def test_help_of_the_shared_options(self, capsys):
        verify = self.option_help(capsys, "verify")
        assert verify["--n"] == (
            "theorem1 default 1000000; shapes default 1000000; crlb default 10000")
        assert verify["--theta"] == "crlb default 1.0"
        sweep = self.option_help(capsys, "sweep")
        assert sweep["--betas"] == "crlb default 2,4,6,8; routes default 2,4,6,8,10,12,16,20,50,100"
        assert self.option_help(capsys, "estimate")["--n"] == "--simulate default 1000000"

    def test_a_new_suite_declares_its_options(self, capsys, monkeypatch):
        def scaled(*, scale: float = 0.5, n: int = 3):
            yield "scaled", True, scale, n, "exact"

        monkeypatch.setitem(cli._VERIFY_SUITES, "scaled", scaled)
        assert run(capsys, "verify", "scaled") == (
            0, "PASS scaled observed=0.5 expected=3 tol=exact\nscaled: 1/1 checks passed\n", "")
        assert run(capsys, "verify", "scaled", "--scale", "2")[1].startswith(
            "PASS scaled observed=2.0 expected=3 ")
        assert "--scale SCALE" in run(capsys, "verify", "--help")[1]
        for suite in ("lemma2", "theorem1", "shapes", "equivalence", "crlb", "attainment"):
            assert run(capsys, "verify", suite, "--scale", "2") == (
                2, "", f"error: verify {suite} does not read --scale (verify scaled only)\n")

    def test_a_new_table_declares_its_options(self, capsys, monkeypatch):
        def scaled(*, scale: float = 0.5):
            yield (scale,)

        monkeypatch.setitem(cli._SWEEPS, "scaled", (("scale",), scaled))
        assert run(capsys, "sweep", "scaled") == (0, "scale\n0.5\n", "")
        assert run(capsys, "sweep", "scaled", "--scale", "2") == (0, "scale\n2.0\n", "")
        for table in ("crlb", "routes"):
            assert run(capsys, "sweep", table, "--scale", "2") == (
                2, "", f"error: sweep {table} does not read --scale (sweep scaled only)\n")


class TestRecords:
    """Every table and record command writes one schema."""

    @pytest.fixture
    def samples(self, tmp_path):
        path = tmp_path / "samples.txt"
        path.write_text("1.5\n-0.25\n2\n")
        return str(path)

    @pytest.mark.parametrize(
        "argv, seed, tolerances",
        [
            (("pdf", "--min", "-1", "--max", "1", "--count", "3"), None, {}),
            (("fisher", "--beta", "3", "--n", "1000", "--seed", "5", "--tol", "1e-8"), 5,
             {"tol": 1e-8}),
            (("moments", "--k", "0,1,2"), None, {}),
            (("estimate", "--simulate", "--n", "500", "--seed", "9"), 9, {}),
            (("estimate", "--input", "SAMPLES"), None, {}),
        ],
        ids=["pdf", "fisher", "moments", "estimate-simulate", "estimate-input"],
    )
    def test_json_schema_and_metadata(self, capsys, samples, argv, seed, tolerances):
        argv = [samples if arg == "SAMPLES" else arg for arg in argv]
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        record = json.loads(out)
        assert list(record) == ["command", "inputs", "outputs", "metadata"]
        assert record["command"] == argv[0]
        assert record["metadata"] == {"seed": seed, "tolerances": tolerances,
                                      "version": __version__}
        if argv[0] == "estimate":
            # the same outputs as the one row of the CSV under its header
            code, out, _ = run(capsys, *argv, "--format", "csv")
            assert code == 0
            outputs = record["outputs"]
            assert out == ("theta_hat,score_residual,n_samples\n"
                           f"{outputs['theta_hat']!r},{outputs['score_residual']!r},"
                           f"{outputs['n_samples']}\n")
        else:
            assert list(record["outputs"]) == ["columns", "rows"]

    @pytest.mark.parametrize("argv", [("pdf", "--min", "0", "--max", "1", "--count", "2"),
                                      ("estimate", "--simulate", "--n", "100")],
                             ids=["pdf", "estimate"])
    @pytest.mark.parametrize("target", ["directory", "missing-directory"])
    def test_an_unwritable_output_is_a_usage_error(self, capsys, tmp_path, argv, target):
        path = str(tmp_path if target == "directory" else tmp_path / "no" / "such" / "x.csv")
        code, out, err = run(capsys, *argv, "--output", path)
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {path!r}: ") and err.count("\n") == 1


class TestCsvTable:
    def test_values_print_as_str(self):
        rows = [(1, 0.1, "a"), (np.float64(1e-300), np.float64(2.5), np.int64(3))]
        assert csv_table(["x", "y", "z"], rows) == "x,y,z\n1,0.1,a\n1e-300,2.5,3\n"


class TestInvocation:
    def test_no_arguments(self, capsys):
        assert run(capsys)[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "transmogrify")[0] == 2

    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0


def _cli_process(args, stdout, unbuffered):
    # python -m gennorm_fisher.cli in a fresh interpreter, on this tree's src
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-m", "gennorm_fisher.cli", *args], env=env,
                            stdout=stdout, stderr=subprocess.PIPE)


class TestClosedPipe:
    # a reader that leaves early (`| head -1`) ends the command quietly with
    # 141, as SIGPIPE would end a C program: no traceback, nothing on stderr
    def test_reader_leaves_after_the_first_line(self):
        # 5.5 MB of CSV: the command is still writing when the pipe closes
        proc = _cli_process(["pdf", "--min", "-5", "--max", "5", "--count", "100001"],
                            subprocess.PIPE, unbuffered=False)
        assert proc.stdout.readline() == b"x,pdf,log_pdf\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (141, b"")

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_reader_left_before_the_first_write(self, unbuffered):
        # unbuffered, the first print meets the closed pipe; buffered, the
        # flush at the end of the command does
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _cli_process(["verify", "lemma2"], write_end, unbuffered)
        finally:
            os.close(write_end)
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (141, b"")
