"""Entropy rate estimation for finite-state symbol sequences.

Direct (transition-matrix) estimators for chains of a given order, a
sliding-window Lempel-Ziv estimator that needs no order assumption, and
stationary-bootstrap standard errors, plus simulation tooling for studying the
estimators on known chains.
"""

from .bootstrap import (
    BootstrapConfig,
    BootstrapResult,
    bootstrap_se,
    choose_p,
    stationary_bootstrap_sample,
)
from .direct import (
    EntropyEstimate,
    entropy_rate,
    estimate_direct,
    estimate_direct_pooled,
    shannon_entropy,
    stationary_eigen,
    stationary_empirical,
    stationary_limit,
)
from .estimators import EstimatorSpec, run_estimator
from .ingest import SequenceFileError, ingest_many
from .markov import (
    Alphabet,
    CompositeAlphabet,
    EstimationError,
    InsufficientDataError,
    ProbabilityVector,
    ReducibleMatrixError,
    Sequence,
    StateSpaceError,
    TransitionCounts,
    TransitionMatrix,
    count_transitions,
    embed_order,
    is_irreducible,
    mle_transition_matrix,
)
from .simulate import (
    ExperimentPlan,
    ExperimentReport,
    ReparamPoint,
    SecondOrderParams,
    benchmark_matrix,
    entropy_surface,
    first_order_projection,
    gamma_bound,
    phi_bound,
    reparam_to_abcd,
    run_experiment,
    second_order_entropy,
    second_order_matrix,
    second_order_stationary,
    simulate_chain,
    simulate_second_order,
)
from .stats import GroupComparison, ttest_pooled
from .swlz import (
    NovelLengths,
    Parsing,
    format_parsing,
    novel_lengths,
    swlz_entropy,
    swlz_estimate,
    swlz_parse,
)

__version__ = "0.1.0"
