"""Matched observational study toolkit.

Covers the full protocol: cohort preparation, propensity estimation (four
estimators including BART), calipered rank-based Mahalanobis matching within
propensity intervals, balance assessment, randomization inference with
covariance adjustment, sensitivity analysis under bounded hidden bias, and
the ordered multiple-testing procedure.
"""

from .balance import BalanceRow, SelectionResult, balance_table, count_imbalanced, select_match
from .bart import BartParams, fit_bart_binary, fit_bart_regression
from .config import (
    ComparisonSpec,
    InferenceParams,
    MatchingParams,
    OutcomeSpec,
    SensitivityParams,
    StudyConfig,
    config_from_dict,
    default_config,
    default_config_dict,
    load_config,
)
from .dataset import (
    Columns,
    Covariate,
    CovariateSchema,
    GeneratorConfig,
    SchemaError,
    SubjectTable,
    ValidationError,
    attrition_check,
    augment_missingness,
    generate_synthetic,
    load_subjects,
    save_subjects,
    scale_covariates,
)
from .inference import (
    ConfidenceRegion,
    SetLayout,
    TestResult,
    align_responses,
    cohen_grid,
    conditional_logistic,
    covariance_adjust,
    invert_tests,
    mantel_haenszel,
    matched_arrays,
    permutational_t_test,
)
from .matching import (
    MatchingError,
    MatchResult,
    apply_caliper,
    build_match,
    composition,
    match_bucket,
    propensity_interval,
    rank_mahalanobis,
    trim_common_support,
)
from .multiplicity import (
    EquivalenceResult,
    ProtocolError,
    benjamini_hochberg,
    equivalence_test,
    ordered_procedure,
    secondary_adjustment,
)
from .pipeline import (
    MissingIntermediateError,
    PipelineError,
    derive_seed,
    format_match_row,
    run_pipeline,
)
from .propensity import PropensityFit, fit_bart_propensity, fit_bayes, fit_l1, fit_mle
from .sensitivity import SensitivityCurve, gamma_threshold, sensitivity_mh, sensitivity_residual

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
