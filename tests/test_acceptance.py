"""Acceptance gate: one check per release criterion, one printed line each.

Run `pytest tests/test_acceptance.py -s -v` to see the per-criterion lines.
Every criterion is a hard assertion; the printed line carries the observed
margin so a near-miss is visible long before it becomes a failure.
"""

import math

from gennorm_fisher import (
    GenNormParams,
    abs_moment_quad,
    exact_moment,
    expected_score_quad,
    fisher_beta_sweep,
    fisher_closed_form,
    fisher_mc_score_variance,
    fisher_quad_neg_hessian,
    fisher_quad_score_variance,
    gamma,
    gamma_rational,
    pdf_normalization,
    run_crlb_experiment,
    sample,
)
from gennorm_fisher.estimation import ExperimentConfig

SEED = 20260819
EVEN_SHAPES = (2, 4, 6, 8)
SCALES = (0.5, 1.0, 2.0)


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:2d}] {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


class TestAcceptance:
    def test_01_closed_form_matches_quadrature_on_grid(self):
        worst = 0.0
        for beta in EVEN_SHAPES:
            for theta in SCALES:
                params = GenNormParams(theta, beta)
                target = beta / theta**2
                for route in (fisher_quad_score_variance, fisher_quad_neg_hessian):
                    rel = abs(route(params, tol=1e-9).value - target) / target
                    worst = max(worst, rel)
        report(1, "Fisher information closed form vs both quadrature routes, "
                  "beta in {2,4,6,8} x theta in {0.5,1,2}, rel err <= 1e-7",
               worst <= 1e-7, f"worst rel err {worst:.3e}")

    def test_02_gaussian_case_all_four_routes(self):
        params = GenNormParams(1.0, 2.0)
        closed = fisher_closed_form(params).value
        ok = closed == 2.0
        sv = fisher_quad_score_variance(params, tol=1e-9).value
        nh = fisher_quad_neg_hessian(params, tol=1e-9).value
        ok = ok and abs(sv - 2.0) <= 1e-7 * 2.0 and abs(nh - 2.0) <= 1e-7 * 2.0
        mc = fisher_mc_score_variance(params, 10**6, SEED)
        mc_gap = abs(mc.value - 2.0)
        ok = ok and mc_gap <= 4.0 * mc.error_estimate
        report(2, "beta=2, theta=1: closed form exactly 2, quadratures within "
                  "1e-7, Monte Carlo within 4 standard errors",
               ok, f"mc={mc.value:.6f} se={mc.error_estimate:.2e}")

    def test_03_score_variance_equals_neg_hessian(self):
        worst = 0.0
        for beta in EVEN_SHAPES:
            for theta in SCALES:
                params = GenNormParams(theta, beta)
                sv = fisher_quad_score_variance(params, tol=1e-9).value
                nh = fisher_quad_neg_hessian(params, tol=1e-9).value
                worst = max(worst, abs(nh - sv) / sv)
        report(3, "two quadrature routes agree pairwise, rel gap <= 2e-8",
               worst <= 2e-8, f"worst rel gap {worst:.3e}")

    def test_04_expected_score_vanishes(self):
        worst = 0.0
        for beta in EVEN_SHAPES:
            for theta in SCALES:
                val = expected_score_quad(GenNormParams(theta, beta)).value
                worst = max(worst, abs(val))
        report(4, "expected score is zero within 1e-9 across the grid",
               worst <= 1e-9, f"worst |E[score]| {worst:.3e}")

    def test_05_rational_gamma_identity(self):
        worst = 0.0
        for n in range(1, 7):
            for p in range(1, 7):
                direct = gamma(n + 1.0 / p)
                via_identity = gamma_rational(n, p)
                worst = max(worst, abs(via_identity - direct) / direct)
        report(5, "gamma at n + 1/p via multifactorial identity matches direct "
                  "evaluation, n,p in {1..6}^2, rel err <= 1e-12",
               worst <= 1e-12, f"worst rel err {worst:.3e}")

    def test_06_sampler_matches_exact_moments(self):
        ok = True
        details = []
        for beta, k in ((2.0, 2), (4.0, 4)):
            params = GenNormParams(1.0, beta)
            draws = sample(params, 10**6, SEED)
            powers = draws**k
            observed = powers.mean()
            se = powers.std(ddof=1) / math.sqrt(powers.size)
            target = exact_moment(params, k)
            ok = ok and abs(observed - target) <= 4.0 * se
            details.append(f"k={k}: {observed:.5f} vs {target:.5f}")
        for k in (1, 3, 5, 7):
            ok = ok and exact_moment(GenNormParams(1.0, 2.0), k) == 0.0
        report(6, "simulated even moments within 4 standard errors of exact "
                  "values; odd moments exactly zero",
               ok, "; ".join(details))

    def test_07_density_normalization(self):
        worst = 0.0
        for theta in SCALES:
            for beta in (1.0, 2.0, 4.0, 8.0, 64.0):
                mass = pdf_normalization(GenNormParams(theta, beta), abs_tol=1e-11)
                worst = max(worst, abs(mass.value - 1.0))
        report(7, "density integrates to 1 within 1e-10 for theta in {0.5,1,2} "
                  "x beta in {1,2,4,8,64}",
               worst <= 1e-10, f"worst |mass-1| {worst:.3e}")

    def test_08_abs_moment_identity(self):
        worst = 0.0
        for beta in EVEN_SHAPES:
            for theta in SCALES:
                params = GenNormParams(theta, beta)
                target = theta**beta / beta
                quad = abs_moment_quad(params, beta, rel_tol=1e-11).value
                worst = max(worst, abs(quad - target) / target)
        report(8, "E|X|^beta equals theta^beta / beta by quadrature, rel err "
                  "<= 1e-9", worst <= 1e-9, f"worst rel err {worst:.3e}")

    def test_09_large_shape_sweep(self):
        rows = fisher_beta_sweep(1.0, [20, 50, 100], tol=1e-9)
        worst = max(abs(quad - closed) / closed for _, closed, quad in rows)
        closed_values = [closed for _, closed, _ in rows]
        increasing = all(a < b for a, b in zip(closed_values, closed_values[1:]))
        report(9, "closed form tracks quadrature at beta in {20,50,100} within "
                  "1e-6 and information grows with beta",
               worst <= 1e-6 and increasing, f"worst rel err {worst:.3e}")

    def test_10_estimator_attains_the_information_bound(self):
        ok = True
        details = []
        for beta in (2, 4):
            for theta in (1.0, 3.0):
                config = ExperimentConfig(beta=beta, theta_true=theta,
                                          n=10**4, trials=1000, seed=SEED)
                rep = run_crlb_experiment(config)
                ok = ok and 0.9 <= rep.efficiency <= 1.1 and rep.failed_trials == 0
                details.append(f"b{beta}/t{theta:g}: {rep.efficiency:.4f}")
        report(10, "maximum-likelihood variance within 10% of the information "
                   "bound at n=10^4 over 1000 trials per cell",
               ok, "; ".join(details))
