"""Two-sample comparison of per-subject entropy rate estimates."""

from __future__ import annotations

from math import isfinite, sqrt
from statistics import fmean, variance

from .markov import EstimationError, InsufficientDataError, _Value

__all__ = ["GroupComparison", "ttest_pooled"]


class GroupComparison(_Value):
    """Pooled-variance t comparison of two groups (statistic and df only)."""

    def __init__(
        self, group_a: tuple[float, ...], group_b: tuple[float, ...], t_statistic: float,
        df: int, means: tuple[float, float],
    ) -> None:
        self.__dict__.update(
            group_a=group_a, group_b=group_b, t_statistic=t_statistic, df=df, means=means,
        )

    def __hash__(self) -> int:
        return hash((self.group_a, self.group_b, self.t_statistic, self.df, self.means))


def ttest_pooled(a: list[float], b: list[float]) -> GroupComparison:
    """Equal-variance two-sample t statistic, signed as first minus second.

    t = (mean_a - mean_b) / (s_p sqrt(1/n_a + 1/n_b)) with pooled variance
    s_p^2 = ((n_a-1) s_a^2 + (n_b-1) s_b^2) / (n_a + n_b - 2).  Groups under
    2 values or with zero pooled variance raise EstimationError subclasses.
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
    return GroupComparison(
        group_a=tuple(a),
        group_b=tuple(b),
        t_statistic=t,
        df=df,
        means=(fmean(a), fmean(b)),
    )
