"""Two-sample comparison of per-subject entropy rate estimates."""

from __future__ import annotations

from math import isfinite, sqrt
from statistics import fmean, variance

from .markov import EstimationError, InsufficientDataError, _Value

__all__ = ["GroupComparison", "ttest_pooled"]


class GroupComparison(_Value):
    """Pooled-variance t comparison of two groups: the statistic, its degrees
    of freedom and the two group means, not the groups, which the caller
    holds."""

    def __init__(self, t_statistic: float, df: int, means: tuple[float, float]) -> None:
        self.__dict__.update(t_statistic=t_statistic, df=df, means=means)


def ttest_pooled(a: list[float], b: list[float]) -> GroupComparison:
    """Equal-variance two-sample t statistic, signed as first minus second.

    t = (mean_a - mean_b) / (s_p sqrt(1/n_a + 1/n_b)) with pooled variance
    s_p^2 = ((n_a-1) s_a^2 + (n_b-1) s_b^2) / (n_a + n_b - 2).  Groups under
    2 values or with zero pooled variance raise EstimationError subclasses.
    The comparison holds t, df and the means; the group sizes are the
    caller's ``len(a)`` and ``len(b)``.
    """
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        raise InsufficientDataError("each group needs at least 2 values")
    if not all(isfinite(v) for v in a + b):
        raise ValueError("values must be finite")
    df = na + nb - 2
    sp2 = ((na - 1) * variance(a) + (nb - 1) * variance(b)) / df
    if sp2 <= 0.0:
        raise EstimationError("degenerate groups: pooled variance is zero")
    t = (fmean(a) - fmean(b)) / sqrt(sp2 * (1.0 / na + 1.0 / nb))
    return GroupComparison(t_statistic=t, df=df, means=(fmean(a), fmean(b)))
