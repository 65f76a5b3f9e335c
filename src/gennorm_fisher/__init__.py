"""Zero-mean generalized normal distribution: exact Fisher information with
numerical cross-checks and a Cramer-Rao estimation experiment."""

from .distribution import (
    GenNormParams,
    MomentSpec,
    abs_moment_quad,
    exact_moment,
    expected_abs_moment,
    log_pdf,
    pdf,
    pdf_normalization,
    sample,
    sample_abs,
    sample_abs_trials,
)
from .estimation import (
    DegenerateDataError,
    EstimationReport,
    ExperimentConfig,
    mle_theta,
    run_crlb_experiment,
    trial_seed,
)
from .fisher import (
    METHODS,
    FisherEstimate,
    d2_log_pdf,
    expected_score_quad,
    fisher_beta_sweep,
    fisher_closed_form,
    fisher_mc_score_variance,
    fisher_quad_neg_hessian,
    fisher_quad_score_variance,
    score,
)
from .quadrature import QuadratureError, QuadResult, integrate_decaying
from .special_functions import (
    GAMMA_OVERFLOW_Z,
    RationalArg,
    gamma,
    gamma_rational,
    log_gamma,
    multifactorial,
)

__version__ = "0.1.0"

__all__ = [
    "GAMMA_OVERFLOW_Z",
    "DegenerateDataError",
    "EstimationReport",
    "ExperimentConfig",
    "FisherEstimate",
    "GenNormParams",
    "METHODS",
    "MomentSpec",
    "QuadResult",
    "QuadratureError",
    "RationalArg",
    "__version__",
    "abs_moment_quad",
    "d2_log_pdf",
    "exact_moment",
    "expected_abs_moment",
    "expected_score_quad",
    "fisher_beta_sweep",
    "fisher_closed_form",
    "fisher_mc_score_variance",
    "fisher_quad_neg_hessian",
    "fisher_quad_score_variance",
    "gamma",
    "gamma_rational",
    "integrate_decaying",
    "log_gamma",
    "log_pdf",
    "mle_theta",
    "multifactorial",
    "pdf",
    "pdf_normalization",
    "run_crlb_experiment",
    "sample",
    "sample_abs",
    "sample_abs_trials",
    "score",
    "trial_seed",
]
