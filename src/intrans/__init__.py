"""Intransitive dice and close-election simulation toolkit."""

__version__ = "0.1.0"

from .dice import (
    Die,
    PairStats,
    TripleClass,
    beats,
    cdf_sum,
    classify_triple,
    pair_stats,
    w_statistic,
)
from .distributions import (
    DISTRIBUTIONS,
    SHIFTED_EXPONENTIAL,
    STD_GAUSSIAN,
    UNIFORM_SYM,
    FaceDistribution,
    get_distribution,
)
from .elections import (
    PairwiseScores,
    condorcet_winner,
    is_close,
    is_transitive_outcome,
    outcome,
    sample_margins,
    tally,
    theory_values,
)
from .errors import (
    AcceptanceFloorError,
    DomainError,
    IntransError,
    InvalidInputError,
    NotPositiveDefiniteError,
    ParityError,
    SamplerStallError,
    SingularCovarianceError,
    SizeLimitError,
)
from .gaussian import (
    CorrelationKernel,
    beta_constant,
    dist_constants,
    identity_partial_sum,
    pair_prob_asymptotic,
    phi_product_expectation,
    s_kernel,
    variance_W_series,
    variance_diff_series,
)
from .mc import (
    CategoryCounts,
    ExperimentSpec,
    MonteCarloEstimate,
    estimate_categories,
    estimate_probability,
    register_family,
    sweep,
)
from .samplers import (
    ContinuousConditioned,
    DiscreteConditioned,
    IidContinuous,
    RankingProfile,
    StationaryGaussian,
    lex_pairs,
    sample_continuous_conditioned,
    sample_discrete_conditioned,
    sample_iid,
    sample_profile,
    sample_stationary_gaussian,
)
from .tournaments import (
    Tournament,
    count_triangles,
    dice_tournament,
    fox_sudakov_report,
    min_reversals_to_transitive,
)
from .triplets import (
    TripletTallies,
    alpha_rho,
    alpha_star,
    f_triplets,
    kalai_paradox,
    noise_params,
    orthant3,
    t_rho_clt,
    t_rho_exact,
    table1_joint,
    triplet_covariances,
)

from . import experiments  # noqa: F401  (registers the MC families)

__all__ = [name for name in dir() if not name.startswith("_")]
