"""Bayesian linear-regression model selection with g-prior mixtures.

Single-block and blockwise shrinkage priors on centered designs: exact
Bayes factors against the null model, posterior shrinkage of the
least-squares estimate, model averaging over enumerated subsets, and an
experiment harness for the limiting regimes.
"""

from .blockprior import (BlockHyperGPrior, LaplacePoint, ShrinkagePosterior,
                         Sigma2Density, bf_block_hyper_g, bf_laplace,
                         clp_lower_bound, laplace_applicable, laplace_t_star,
                         log_bf_laplace, scale_blocks,
                         sigma2_density_exact_block,
                         sigma2_density_limit_block)
from .design import (BlockPartition, CenteredDesign, FitSummary,
                     block_orthogonalize, center_design,
                     check_block_orthogonality, fit_least_squares,
                     load_csv_design)
from .errors import (BlockHyperGError, BudgetExceeded, ConfigError,
                     DataError, DimensionMismatch, DomainError,
                     EmptyModelList, IntegralDiverges, NoConvergence,
                     NotBlockOrthogonal, OutOfInterior,
                     PreconditionViolated, RankDeficient,
                     SimulationBudgetExceeded)
from .hyperg import (FixedGPrior, HyperGPrior, InverseGammaParams,
                     bf_fixed_g, bf_hyper_g, bf_ratio_hyper_g,
                     log_bf_fixed_g_stats, log_bf_hyper_g_stats,
                     log_bf_ratio_hyper_g, posterior_mean_hyper_g,
                     shrinkage_hyper_g, shrinkage_hyper_g_stats,
                     sigma2_limit_hyper_g)
from .kernels import BACKEND
from .models import (ModelPosterior, ModelSpec, bma_predict,
                     enumerate_models, evaluate_model_space,
                     model_inference, posterior_model_probs)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BlockHyperGError",
    "BlockHyperGPrior",
    "BlockPartition",
    "BudgetExceeded",
    "CenteredDesign",
    "ConfigError",
    "DataError",
    "DimensionMismatch",
    "DomainError",
    "EmptyModelList",
    "FitSummary",
    "FixedGPrior",
    "HyperGPrior",
    "IntegralDiverges",
    "InverseGammaParams",
    "LaplacePoint",
    "ModelPosterior",
    "ModelSpec",
    "NoConvergence",
    "NotBlockOrthogonal",
    "OutOfInterior",
    "PreconditionViolated",
    "RankDeficient",
    "ShrinkagePosterior",
    "Sigma2Density",
    "SimulationBudgetExceeded",
    "bf_block_hyper_g",
    "bf_fixed_g",
    "bf_hyper_g",
    "bf_laplace",
    "bf_ratio_hyper_g",
    "block_orthogonalize",
    "bma_predict",
    "center_design",
    "check_block_orthogonality",
    "clp_lower_bound",
    "enumerate_models",
    "evaluate_model_space",
    "fit_least_squares",
    "laplace_applicable",
    "laplace_t_star",
    "load_csv_design",
    "log_bf_fixed_g_stats",
    "log_bf_hyper_g_stats",
    "log_bf_laplace",
    "log_bf_ratio_hyper_g",
    "model_inference",
    "posterior_mean_hyper_g",
    "posterior_model_probs",
    "scale_blocks",
    "shrinkage_hyper_g",
    "shrinkage_hyper_g_stats",
    "sigma2_density_exact_block",
    "sigma2_density_limit_block",
    "sigma2_limit_hyper_g",
    "__version__",
]
