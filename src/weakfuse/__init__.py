"""Semiparametric one-step estimation fusing aligned and weakly aligned
data sources with parametric conditional-density shifts."""

from . import errors
from .betafit import MomentMatchResult, moment_match_beta
from .estimator import (
    EstimateReport,
    EstimatorVariant,
    apply_variant,
    one_step_estimate,
    wald_interval,
)
from .gradients import (
    EstimandSpec,
    GradientSeed,
    InformationMatrix,
    compute_pass,
    information_matrix,
    seed_gradient,
)
from .model import (
    BetaParam,
    Dataset,
    FusionDesign,
    layout_from_design,
    validate_design,
)
from .nuisance import (
    FittedNuisance,
    KernelPanel,
    NuisanceOptions,
    fit_nuisance_bundle,
    fit_propensity,
)
from .simulation import (
    ALIGNMENT_LEVELS,
    Scenario,
    SummaryRow,
    generate_dataset,
    named_scenario,
    run_monte_carlo,
    study_design,
    summary_to_csv,
)
from .weights import (
    BasisTerm,
    WeightSpec,
    basis_matrix,
    complex_family,
    parse_term,
)

__version__ = "0.1.0"

__all__ = [
    "ALIGNMENT_LEVELS",
    "BasisTerm",
    "BetaParam",
    "Dataset",
    "EstimandSpec",
    "EstimateReport",
    "EstimatorVariant",
    "FittedNuisance",
    "FusionDesign",
    "GradientSeed",
    "InformationMatrix",
    "KernelPanel",
    "MomentMatchResult",
    "NuisanceOptions",
    "Scenario",
    "SummaryRow",
    "apply_variant",
    "basis_matrix",
    "complex_family",
    "compute_pass",
    "errors",
    "fit_nuisance_bundle",
    "fit_propensity",
    "generate_dataset",
    "information_matrix",
    "layout_from_design",
    "moment_match_beta",
    "named_scenario",
    "one_step_estimate",
    "parse_term",
    "run_monte_carlo",
    "seed_gradient",
    "study_design",
    "summary_to_csv",
    "validate_design",
    "wald_interval",
]
