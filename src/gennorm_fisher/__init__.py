"""Zero-mean generalized normal distribution: exact Fisher information with
numerical cross-checks and a Cramer-Rao estimation experiment.

The public names are loaded on first access (PEP 562), each from the module
that defines it, so `import gennorm_fisher` imports no submodule and a caller
of the exact layer (gamma, exact_moment, GenNormParams, fisher_closed_form,
mle_moments_exact) never loads numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_HOME = {
    name: module
    for module, names in {
        "special_functions": (
            "GAMMA_OVERFLOW_Z", "RationalArg", "gamma", "gamma_rational", "log_gamma",
            "multifactorial",
        ),
        "exact": (
            "FisherEstimate", "GenNormParams", "MleMoments", "MomentSpec", "QuadratureError",
            "exact_moment", "fisher_closed_form", "fisher_moment_identity", "mle_moments_exact",
        ),
        "quadrature": ("QuadResult", "integrate_decaying"),
        "distribution": (
            "abs_moment_quad", "log_pdf", "pdf", "pdf_normalization", "sample", "sample_abs",
            "trial_seed",
        ),
        "fisher": (
            "METHODS", "d2_log_pdf", "expected_score_quad", "fisher_beta_sweep",
            "fisher_mc_score_variance", "fisher_quad_neg_hessian", "fisher_quad_score_variance",
            "score",
        ),
        "estimation": (
            "DegenerateDataError", "EstimationReport", "ExperimentConfig", "mle_theta",
            "run_crlb_experiment",
        ),
    }.items()
    for name in names
}

__all__ = sorted([*_HOME, "__version__"])


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
