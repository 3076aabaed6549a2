"""Uniform descriptor for the available entropy rate estimators.

Names an estimator as data for bootstrap replication, experiment plans and
the CLI, and runs the replicate loop that bootstrap and experiment share.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .direct import DIRECT_METHODS, EntropyEstimate, estimate_direct
from .markov import EstimationError, Sequence, _Value
from .swlz import swlz_entropy

__all__ = ["EstimatorSpec", "run_estimator"]


class EstimatorSpec(_Value):
    """An estimator choice: a direct method with an order, or "swlz".

    ``paper_zero_mode`` reports a reducible eigen/limit estimate as 0.0
    instead of raising; swlz and empirical ignore it.
    """

    def __init__(
        self, method: str, order: int | None = None, paper_zero_mode: bool = False
    ) -> None:
        if method == "swlz":
            if order is not None:
                raise ValueError("swlz does not take an order")
        elif method in DIRECT_METHODS:
            order = 1 if order is None else order
            if order < 1:
                raise ValueError("order must be >= 1")
        else:
            raise ValueError(f"unknown estimator method {method!r}")
        self.__dict__.update(method=method, order=order, paper_zero_mode=paper_zero_mode)

    @property
    def tag(self) -> str:
        return "swlz" if self.method == "swlz" else f"direct_{self.method}"

    def describe(self) -> str:
        if self.method == "swlz":
            return "swlz"
        return f"{self.tag}(m={self.order})"


def run_estimator(seq: Sequence, spec: EstimatorSpec, *more: Sequence) -> EntropyEstimate:
    """Apply the described estimator to ``seq``; a direct method pools in the
    segments ``more`` (see ``estimate_direct``), which swlz refuses."""
    if spec.method == "swlz":
        if more:
            raise ValueError("swlz takes one sequence: concatenate the segments")
        return swlz_entropy(seq)
    return estimate_direct(
        seq, *more, order=spec.order, stationary=spec.method,
        paper_zero_mode=spec.paper_zero_mode,
    )


def _replicate_estimates(seed: int, count: int, replicate: Callable) -> list[tuple[np.ndarray, int]]:
    """Per estimate call of ``replicate(rng)``, in call order: the values that
    succeeded, as a float64 array in stream order, and the count that raised
    EstimationError.  Replicate i reads child stream i of ``seed`` only, so it
    replays from (seed, i) alone; it returns as many calls each time.  A failed
    estimate is counted, not kept; any other exception propagates."""
    kept: list[list[float]] = []
    for stream in np.random.SeedSequence(seed).spawn(count):
        calls = replicate(np.random.default_rng(stream))
        kept = kept or [[] for _ in calls]
        for values, call in zip(kept, calls):
            try:
                values.append(call().value)
            except EstimationError:
                pass  # counted from the values it did not add
    return [(np.asarray(values, dtype=np.float64), count - len(values)) for values in kept]
