"""Uniform descriptor for the available entropy rate estimators.

Used wherever an estimator must be named as data: bootstrap replication,
simulation experiment plans, and the CLI.
"""

from __future__ import annotations

from .direct import DIRECT_METHODS, EntropyEstimate, estimate_direct
from .markov import Sequence, _Value
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
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "paper_zero_mode", paper_zero_mode)

    def __hash__(self) -> int:
        return hash((self.method, self.order, self.paper_zero_mode))

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
