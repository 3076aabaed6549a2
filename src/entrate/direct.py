"""Direct entropy rate estimation for chains of an assumed order.

The entropy rate of a stationary first-order chain is

    H = -sum_i pi_i sum_j P_ij log2 P_ij     (bits per symbol)

so a direct estimate plugs in the MLE transition matrix and one of three
stationary-distribution estimates: observed state frequencies, the left unit
eigenvector of the estimated matrix, or a Cesaro average of matrix powers.
Chains of order m are handled by first embedding into the first-order chain on
overlapping m-tuples; the resulting rate is already per base symbol because
each composite transition advances the base chain by one symbol.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass

import numpy as np

from .markov import (
    CompositeAlphabet,
    InsufficientDataError,
    ProbabilityVector,
    ReducibleMatrixError,
    Sequence,
    TransitionCounts,
    TransitionMatrix,
    count_transitions,
    embed_order,
    is_irreducible,
    mle_transition_matrix,
)

__all__ = [
    "DIRECT_METHODS",
    "EntropyEstimate",
    "shannon_entropy",
    "stationary_empirical",
    "stationary_eigen",
    "stationary_limit",
    "entropy_rate",
    "estimate_direct",
    "estimate_direct_pooled",
]

# Stationary-distribution estimates the direct estimators can plug in.
DIRECT_METHODS = ("empirical", "eigen", "limit")

# |eigenvalue - 1| below this counts as a unit eigenvalue when checking
# uniqueness of the stationary distribution.
_UNIT_EIG_TOL = 1e-8
_RESIDUAL_TOL = 1e-10

DEFAULT_CESARO_STEPS = 100_000
# max|avg_N - avg_{N//2}| at or above this means the Cesaro average has not
# converged.
_CESARO_DRIFT_TOL = 1e-6


@dataclass(frozen=True)
class EntropyEstimate:
    """Point estimate of an entropy rate in bits per symbol, with diagnostics.

    ``method`` is one of direct_empirical, direct_eigen, direct_limit, swlz,
    or direct_exact for analytic evaluation of a known matrix.  ``order`` and
    ``irreducible`` are None when the method does not use them (swlz).
    """

    value: float
    method: str
    n_obs: int
    order: int | None = None
    irreducible: bool | None = None
    warnings: tuple[str, ...] = ()


def _xlog2x_sum(p: np.ndarray) -> float:
    """-sum p log2 p over the positive entries (0 log 0 = 0)."""
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum()) if p.size else 0.0


def shannon_entropy(dist: ProbabilityVector | np.ndarray) -> float:
    """Shannon entropy -sum_i p_i log2 p_i in bits, with 0 log2 0 = 0."""
    probs = dist.probs if isinstance(dist, ProbabilityVector) else ProbabilityVector(np.asarray(dist)).probs
    return max(0.0, _xlog2x_sum(probs))


def stationary_empirical(counts: TransitionCounts) -> ProbabilityVector:
    """Observed state frequencies n_{i+} / n_{++} as a stationary estimate.

    Always a valid distribution, but it need not satisfy pi = pi P exactly for
    the estimated matrix.
    """
    if counts.grand_total < 1:
        raise ValueError("cannot estimate stationary distribution from zero transitions")
    return ProbabilityVector(counts.row_totals_arr / counts.grand_total)


def _bordered_solve(P: np.ndarray) -> np.ndarray | None:
    """Solve pi (P - I) = 0 with a sum-to-one row replacing one equation."""
    k = P.shape[0]
    A = P.T - np.eye(k)
    A[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    try:
        sol = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(sol)):
        return None
    return sol


def stationary_eigen(P: TransitionMatrix) -> ProbabilityVector:
    """Left unit eigenvector of P, normalized to a distribution.

    Requires every row of P to be defined and the unit eigenvalue to be
    simple; otherwise the stationary distribution is not identified and a
    ReducibleMatrixError is raised.  The returned vector satisfies
    ``max|pi P - pi| < 1e-10``.
    """
    if not P.all_rows_defined:
        n_undef = int((~P.defined_rows).sum())
        raise ReducibleMatrixError(
            f"reducible transition matrix: {n_undef} row(s) never visited"
        )
    eigvals, eigvecs = np.linalg.eig(P.probs.T)
    unit = np.abs(eigvals - 1.0) < _UNIT_EIG_TOL
    n_unit = int(unit.sum())
    if n_unit != 1:
        raise ReducibleMatrixError(
            f"reducible transition matrix: unit eigenvalue multiplicity {n_unit}"
        )
    vec = np.real(eigvecs[:, np.nonzero(unit)[0][0]])
    total = vec.sum()
    if total == 0.0:
        raise ReducibleMatrixError("reducible transition matrix: degenerate eigenvector")
    pi = vec / total

    def residual(v: np.ndarray) -> float:
        return float(np.max(np.abs(v @ P.probs - v)))

    if residual(pi) > _RESIDUAL_TOL or pi.min() < 0.0:
        refined = _bordered_solve(P.probs)
        if refined is not None and residual(refined) < residual(pi):
            pi = refined
    if residual(pi) > _RESIDUAL_TOL:
        raise ReducibleMatrixError(
            "reducible transition matrix: stationary fixed point not attained"
        )
    pi = np.clip(pi, 0.0, None)
    return ProbabilityVector(pi / pi.sum())


def stationary_limit(
    P: TransitionMatrix, steps: int = DEFAULT_CESARO_STEPS
) -> ProbabilityVector:
    """Cesaro average (1/N) sum_{i<=N} P^i[0, :] of first-row matrix powers.

    Converges to the stationary distribution for irreducible P but slowly.
    The sum is built by binary doubling over the digits of N, most
    significant first, from ``power`` = P^k and ``acc`` = the first row of
    sum_{i<=k} P^i: doubling k adds ``acc @ power`` to ``acc`` and squares
    ``power``; a 1-digit multiplies ``power`` by P and adds its first row.
    That costs about 2 log2 N products of K x K matrices and two extra K x K
    arrays, instead of N vector-matrix steps.  Warns when the average still
    drifts by 1e-6 or more between N//2 and N steps (checked when N//2 >= 2).
    """
    pi, note = _cesaro_limit(P, steps)
    if note:
        _warnings.warn(note, stacklevel=2)
    return pi


def _cesaro_limit(P: TransitionMatrix, steps: int) -> tuple[ProbabilityVector, str]:
    """``stationary_limit``'s distribution and its non-convergence note, which
    carries the measured N//2-to-N drift ("" when the average converged)."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not is_irreducible(P):
        raise ReducibleMatrixError("reducible transition matrix")
    probs = P.probs
    power = probs
    acc = probs[0].copy()
    half = steps // 2
    half_avg = None
    k = 1
    for digit in bin(steps)[3:]:
        # k reaches N//2 just before the last digit is applied.
        if k == half >= 2:
            half_avg = acc / half
        acc += acc @ power
        power = power @ power
        k *= 2
        if digit == "1":
            power = power @ probs
            acc += power[0]
            k += 1
    avg = acc / steps
    note = ""
    if half_avg is not None:
        drift = float(np.max(np.abs(avg - half_avg)))
        if drift >= _CESARO_DRIFT_TOL:
            note = (
                f"Cesaro average not converged after {steps} steps "
                f"(drift {drift:.2e} between {half} and {steps} steps)"
            )
    return ProbabilityVector(avg / avg.sum()), note


def entropy_rate(
    P: TransitionMatrix,
    pi: ProbabilityVector | np.ndarray,
    *,
    method: str = "direct_exact",
    order: int | None = None,
    n_obs: int = 0,
    irreducible: bool | None = None,
    extra_warnings: tuple[str, ...] = (),
) -> EntropyEstimate:
    """Weighted average of row conditional entropies: -sum pi_i P_ij log2 P_ij.

    Rows with zero stationary weight contribute nothing, whether or not they
    are defined; an undefined row with positive weight is an error.
    """
    if not isinstance(pi, ProbabilityVector):
        pi = ProbabilityVector(np.asarray(pi))
    if pi.size != P.size:
        raise ValueError("dimension mismatch between P and pi")
    weights = pi.probs
    if np.any((weights > 0.0) & ~P.defined_rows):
        raise ValueError("undefined transition row has positive stationary weight")
    warn = list(extra_warnings) + _never_visited_warning(int((~P.defined_rows).sum()))
    value = 0.0
    for i in np.nonzero(weights > 0.0)[0]:
        value += weights[i] * _xlog2x_sum(P.probs[i])
    if irreducible is None:
        irreducible = is_irreducible(P)
    return EntropyEstimate(
        value=max(0.0, value),
        method=method,
        n_obs=n_obs,
        order=order,
        irreducible=irreducible,
        warnings=tuple(warn),
    )


def _never_visited_warning(n_unvisited: int) -> list[str]:
    if n_unvisited:
        return [f"{n_unvisited} never-visited state(s) carry zero stationary weight"]
    return []


def _estimate_empirical(
    counts: TransitionCounts, order: int, n_obs: int, warn: list[str]
) -> EntropyEstimate:
    """Plug-in rate with observed frequencies as the stationary weights:
    -sum_ij (n_ij / n_++) log2(n_ij / n_i+), summed over the observed entries.

    Equals ``entropy_rate(mle_transition_matrix(c), stationary_empirical(c))``
    without building either.
    """
    src, dst, n = counts.nonzero()
    value = -float((n * np.log2(n / counts.row_totals_arr[src])).sum()) / counts.grand_total
    n_unvisited = int((counts.row_totals_arr == 0).sum())
    return EntropyEstimate(
        value=max(0.0, value),
        method="direct_empirical",
        n_obs=n_obs,
        order=order,
        irreducible=is_irreducible(counts),
        warnings=tuple(warn + _never_visited_warning(n_unvisited)),
    )


def estimate_direct(
    seq: Sequence,
    order: int = 1,
    stationary: str = "empirical",
    *,
    paper_zero_mode: bool = False,
) -> EntropyEstimate:
    """Direct entropy rate estimate of ``seq`` as an order-m chain: the
    one-segment case of ``estimate_direct_pooled``."""
    return estimate_direct_pooled([seq], order, stationary, paper_zero_mode=paper_zero_mode)


def estimate_direct_pooled(
    segments: list[Sequence],
    order: int = 1,
    stationary: str = "empirical",
    *,
    paper_zero_mode: bool = False,
) -> EntropyEstimate:
    """Direct entropy rate estimate from transition counts pooled across segments.

    Embeds each segment into order-m composite states and counts transitions
    within each segment only, so pairs spanning a segment boundary are
    excluded; segments no longer than ``order`` contribute no transitions.
    All segments must share one base alphabet.  The counts give the MLE
    transition matrix, ``stationary`` (one of ``DIRECT_METHODS``) estimates
    the stationary distribution, and the plug-in entropy rate is evaluated.

    With ``stationary="eigen"`` (or "limit") a reducible estimated matrix
    raises ReducibleMatrixError; under ``paper_zero_mode`` the estimate is
    instead reported as 0.0 with a warning, matching how such failures show up
    as zero estimates in simulation studies.
    """
    if stationary not in DIRECT_METHODS:
        raise ValueError(f"unknown stationary method {stationary!r}")
    if order < 1:
        raise ValueError("order must be >= 1")
    if not segments:
        raise ValueError("at least one segment required")
    alphabet = segments[0].alphabet
    if any(seg.alphabet is not alphabet for seg in segments[1:]):
        raise ValueError("segments must share a single alphabet")
    if isinstance(alphabet, CompositeAlphabet):
        raise ValueError("direct estimates expect base-alphabet sequences")
    usable = [seg for seg in segments if seg.length > order]
    if not usable:
        raise InsufficientDataError(f"insufficient length for order {order}")
    counts = count_transitions(*(embed_order(seg, order) for seg in usable))
    n_obs = sum(seg.length for seg in segments)
    warn = []
    if n_obs <= alphabet.kappa**order:
        warn.append(
            f"sequence length {n_obs} <= kappa^m = {alphabet.kappa**order}; "
            f"order-{order} direct estimates are unreliable"
        )
    if stationary == "empirical":
        return _estimate_empirical(counts, order, n_obs, warn)
    method = f"direct_{stationary}"
    P = mle_transition_matrix(counts)
    irreducible = is_irreducible(P)
    try:
        if stationary == "eigen":
            pi = stationary_eigen(P)
        else:
            pi, note = _cesaro_limit(P, DEFAULT_CESARO_STEPS)
            if note:
                warn.append(note)
    except ReducibleMatrixError as exc:
        if paper_zero_mode:
            return EntropyEstimate(
                value=0.0,
                method=method,
                n_obs=n_obs,
                order=order,
                irreducible=False,
                warnings=tuple(warn + [f"{exc}; estimate forced to 0"]),
            )
        raise
    return entropy_rate(
        P,
        pi,
        method=method,
        order=order,
        n_obs=n_obs,
        irreducible=irreducible,
        extra_warnings=tuple(warn),
    )
