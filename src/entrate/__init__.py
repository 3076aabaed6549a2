"""Entropy rate estimation for finite-state symbol sequences.

Direct (transition-matrix) estimators for chains of a given order, a
sliding-window Lempel-Ziv estimator that needs no order assumption, and
stationary-bootstrap standard errors, plus simulation tooling for studying the
estimators on known chains.

Importing the package loads none of its modules: each public name is imported
from its module on first use (PEP 562), so ``from entrate import X`` works as
ever, and a CLI command that never simulates or runs a t-test does not load
``simulate`` or ``stats``.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the module that defines them.
_MODULES = {
    "bootstrap": "BootstrapConfig BootstrapResult bootstrap_se choose_p "
    "stationary_bootstrap_sample",
    "direct": "EntropyEstimate entropy_rate estimate_direct estimate_direct_pooled "
    "stationary_eigen stationary_empirical stationary_limit",
    "estimators": "EstimatorSpec run_estimator",
    "ingest": "InputError ingest_many",
    "markov": "Alphabet CompositeAlphabet EstimationError InsufficientDataError ProbabilityVector "
    "ReducibleMatrixError Sequence StateSpaceError TransitionCounts TransitionMatrix "
    "count_transitions embed_order is_irreducible mle_transition_matrix",
    "simulate": "CellResult ExperimentPlan ReparamPoint SecondOrderParams benchmark_matrix "
    "entropy_surface first_order_projection gamma_bound phi_bound reparam_to_abcd run_experiment "
    "second_order_entropy second_order_matrix second_order_stationary simulate_chain "
    "simulate_second_order",
    "stats": "GroupComparison ttest_pooled",
    "swlz": "NovelLengths Parsing format_parsing novel_lengths swlz_entropy swlz_estimate "
    "swlz_parse",
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names.split()}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Public ``name``, imported from its module and kept here on first use."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
