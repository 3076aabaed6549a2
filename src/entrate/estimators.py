"""Uniform descriptor for the available entropy rate estimators.

Used wherever an estimator must be named as data: bootstrap replication,
simulation experiment plans, and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass

from .direct import EntropyEstimate, estimate_direct
from .markov import Sequence
from .swlz import swlz_entropy

__all__ = ["DIRECT_METHODS", "EstimatorSpec", "run_estimator"]

DIRECT_METHODS = ("empirical", "eigen", "limit")


@dataclass(frozen=True)
class EstimatorSpec:
    """An estimator choice: a direct method with an order, or "swlz".

    ``paper_zero_mode`` reports a reducible eigen/limit estimate as 0.0
    instead of raising; swlz and empirical ignore it.
    """

    method: str
    order: int | None = None
    paper_zero_mode: bool = False

    def __post_init__(self) -> None:
        if self.method == "swlz":
            if self.order is not None:
                raise ValueError("swlz does not take an order")
        elif self.method in DIRECT_METHODS:
            order = 1 if self.order is None else self.order
            if order < 1:
                raise ValueError("order must be >= 1")
            object.__setattr__(self, "order", order)
        else:
            raise ValueError(f"unknown estimator method {self.method!r}")

    @property
    def tag(self) -> str:
        return "swlz" if self.method == "swlz" else f"direct_{self.method}"

    def describe(self) -> str:
        if self.method == "swlz":
            return "swlz"
        return f"{self.tag}(m={self.order})"


def run_estimator(seq: Sequence, spec: EstimatorSpec) -> EntropyEstimate:
    """Apply the described estimator to a sequence."""
    if spec.method == "swlz":
        return swlz_entropy(seq)
    return estimate_direct(
        seq, order=spec.order, stationary=spec.method, paper_zero_mode=spec.paper_zero_mode
    )
