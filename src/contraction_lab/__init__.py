"""Desk-scale laboratory for posterior contraction in Bayesian linear
inverse problems: spectral simulation, conjugate and mixture posteriors,
contraction-assumption verification, and empirical rate fitting."""

from .errors import (
    ConfigError,
    ConfigInvariantError,
    ConfigSyntaxError,
    ConstructionError,
    NumericalError,
    ParameterError,
    UnknownConfigKeyError,
)
from .rng import derive_seed, substream
from .spectral import (
    BandedCoupling,
    DataSample,
    DenseNoise,
    ExplicitCoupling,
    ExpSkewCoupling,
    GaussianSequenceMeasure,
    IdentityCoupling,
    InverseProblem,
    MildFamily,
    OperatorSpectrum,
    OrthogonalCoupling,
    ReflectionCoupling,
    SevereFamily,
    band_window,
    colored_noise,
    dense_noise,
    diagonal_noise,
    explicit_prior,
    forward_apply,
    hilbert_scale_prior,
    make_coupling,
    make_spectrum,
    power_law_prior,
    power_law_truth,
    random_spd,
    simulate_data,
    white_noise,
)
from .posterior import (
    ExceedanceEstimate,
    PosteriorFactor,
    PosteriorGaussian,
    cholesky_with_jitter,
    conjugate_posterior,
    factor_posterior,
    posterior_exceedance_grid,
    posterior_precision,
)
from .assumptions import (
    AssumptionReport,
    ConcentrationReport,
    HsReport,
    MinmaxTable,
    RateConstants,
    RatePlan,
    SmallBallForm,
    SmallBallReport,
    compute_g_kr,
    concentration_check,
    coupled_pushforward_cov,
    diagonal_pushforward_cov,
    hs_diagnostic,
    minmax_compare,
    projection_log_tail_bound,
    small_ball_form,
    small_ball_log_prob,
    verify_assumptions,
)
from .rates import (
    Colored,
    FiniteDimExperiment,
    FiniteDimRateTable,
    GaussianMixturePrior,
    RateExponents,
    RateFit,
    TheoryParams,
    WhiteDiagonal,
    finite_dim_exceedance,
    finite_dim_rate_run,
    fit_contraction_rate,
    plan_from_theory,
    simulate_finite_dim,
    theory_rates,
    two_component_mixture,
)
from .config import ExperimentConfig, parse_config
from .runner import ResultRecord, Table, emit_results, record_from_dict, record_to_dict, run_experiment

__version__ = "0.1.0"
