"""Bayes-factor tests calibrated against classical critical regions.

The library computes Bayes factors for a catalogue of standard testing
problems, calibrates the Bayes threshold lambda to a classical critical
value gamma (and back), and verifies that the two decision rules agree
dataset by dataset, so their power functions coincide exactly.
"""

from .bayes_factors import (
    NumericalIntegrityError,
    RegressionKnownVarBf,
    RegressionUnknownVarBf,
    SubsetSelectionBf,
    TTestBf,
    TwoSampleKnownVarBf,
    TwoSampleTBf,
    VarianceRatioBf,
    bf_one_sided,
    bf_one_sided_normal_conjugate,
    bf_one_sided_normal_exponential,
    bf_one_sided_normal_halfnormal,
    bf_subjective_variance,
    bf_two_sided,
    bf_two_sided_normal_conjugate,
    johnson_umpbt_threshold,
)
from .calibrate import (
    CalibrationResult,
    ClassViolationError,
    CriticalRegion,
    DecisionRule,
    EquivalenceReport,
    calibrate,
    gamma_from_alpha,
    gamma_from_lambda,
    lambda_from_gamma,
    verify_equivalence,
)
from .power import (
    DominanceReport,
    JohnsonComparison,
    PowerCurve,
    calibrate_lambda_mc,
    dominance_study,
    exact_power,
    johnson_comparison,
    mc_power,
)
from .priors import (
    DensityPrior,
    PairingError,
    PointMass,
    ScaledSymmetricPrior,
    SphericalPrior,
    SymmetricPaired,
    build_symmetric_class_member,
    exponential_prior,
    half_normal_prior,
    solve_pairing,
    standard_normal_log_h,
)
from .problems import (
    DegenerateDataError,
    GaussianMeanUnknownVar,
    OneSidedNormal,
    RegressionKnownVar,
    RegressionUnknownVar,
    SubjectiveVarianceEquality,
    SubsetSelection,
    SufficientSummary,
    TwoSampleMeansKnownVar,
    TwoSampleMeansUnknownEqualVar,
    TwoSidedNormal,
    VarianceRatio,
    normal_log_ratio,
    orthonormalize,
)
from .properties import PropertyResult, PropertySpec, catalogue, run_catalogue, run_property
from .rng import RngStream

__version__ = "0.1.0"
