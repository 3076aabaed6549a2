"""Direct entropy rate estimation for chains of an assumed order.

The entropy rate of a stationary first-order chain is

    H = -sum_i pi_i sum_j P_ij log2 P_ij     (bits per symbol)

so a direct estimate plugs in the MLE transition matrix and one of three
stationary-distribution estimates: observed state frequencies, the left unit
eigenvector of the estimated matrix, or a Cesaro average of matrix powers.
The eigenvector comes from one bordered LU solve of pi (P - I) = 0,
sum(pi) = 1, not from an eigendecomposition, and an exact graph check on P's
support decides whether it is unique.
All three share one plug-in sum over the positive entries of the matrix, or
of the counts for an estimate; they differ only in the weights pi_i.
Chains of order m are handled by first embedding into the first-order chain on
overlapping m-tuples; the resulting rate is already per base symbol because
each composite transition advances the base chain by one symbol.
"""

from __future__ import annotations

import numpy as np

from .markov import (
    CompositeAlphabet,
    InsufficientDataError,
    ProbabilityVector,
    ReducibleMatrixError,
    Sequence,
    TransitionCounts,
    TransitionMatrix,
    _reaches_all,
    _Value,
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

# max|pi P - pi| above this rejects a solved stationary distribution.
_RESIDUAL_TOL = 1e-10

DEFAULT_CESARO_STEPS = 100_000
# max|avg_N - avg_{N//2}| at or above this means the Cesaro average has not
# converged.
_CESARO_DRIFT_TOL = 1e-6


class EntropyEstimate(_Value):
    """Point estimate of an entropy rate in bits per symbol, with its notes.

    ``method`` is one of direct_empirical, direct_eigen, direct_limit, swlz,
    or direct_exact for analytic evaluation of a known matrix.  ``order`` is
    None when the method assumes none (swlz, direct_exact).  ``warnings``
    are the notes the report prints beside the value.
    """

    def __init__(
        self, value: float, method: str, order: int | None = None, warnings: tuple[str, ...] = ()
    ) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "warnings", warnings)

    def __hash__(self) -> int:
        return hash((self.value, self.method, self.order, self.warnings))


def _plugin_rate(weights: np.ndarray | float, p: np.ndarray) -> float:
    """-sum w * p * log2 p over entries with positive probability p, each
    weighted by the stationary weight w of its source state."""
    return max(0.0, float(-(weights * p * np.log2(p)).sum()))


def shannon_entropy(dist: ProbabilityVector | np.ndarray) -> float:
    """Shannon entropy -sum_i p_i log2 p_i in bits, with 0 log2 0 = 0."""
    probs = dist.probs if isinstance(dist, ProbabilityVector) else ProbabilityVector(np.asarray(dist)).probs
    return _plugin_rate(1.0, probs[probs > 0.0])


def stationary_empirical(counts: TransitionCounts) -> ProbabilityVector:
    """Observed state frequencies n_{i+} / n_{++} as a stationary estimate.

    Always a valid distribution, but it need not satisfy pi = pi P exactly for
    the estimated matrix.
    """
    if counts.grand_total < 1:
        raise ValueError("cannot estimate stationary distribution from zero transitions")
    return ProbabilityVector(counts.row_totals_arr / counts.grand_total)


def stationary_eigen(P: TransitionMatrix) -> ProbabilityVector:
    """Stationary distribution of P: the solution of pi (P - I) = 0 with
    sum(pi) = 1, from one LU solve with the sum-to-one row replacing the last
    equation.

    pi is unique iff P has exactly one closed class, which holds iff every
    state reaches argmax(pi) along P's positive entries; that exact graph
    check, not a floating-point eigenvalue count, decides uniqueness.  A
    singular system or a failed check raises ReducibleMatrixError; counts
    with a never-visited state have already failed in
    ``mle_transition_matrix``.  The returned vector satisfies
    ``max|pi P - pi| < 1e-10``; on transient states it is zero up to rounding.
    """
    k = P.size
    A = P.probs.T.copy()
    A[np.diag_indices(k)] -= 1.0
    A[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    src, dst = np.nonzero(P.probs > 0.0)
    try:
        pi = np.linalg.solve(A, b)
        unique = np.all(np.isfinite(pi)) and _reaches_all(dst, src, k, int(np.argmax(pi)))
    except np.linalg.LinAlgError:
        unique = False
    if not unique:
        raise ReducibleMatrixError(
            "reducible transition matrix: stationary distribution not unique"
        )
    if float(np.max(np.abs(pi @ P.probs - pi))) > _RESIDUAL_TOL:
        raise ReducibleMatrixError(
            "reducible transition matrix: stationary fixed point not attained"
        )
    pi = np.clip(pi, 0.0, None)
    return ProbabilityVector(pi / pi.sum())


def stationary_limit(
    P: TransitionMatrix, steps: int = DEFAULT_CESARO_STEPS
) -> tuple[ProbabilityVector, str]:
    """Cesaro average (1/N) sum_{i<=N} P^i[0, :] of first-row matrix powers,
    and its non-convergence note ("" when the average converged).

    Converges to the stationary distribution for irreducible P but slowly;
    a reducible P raises ReducibleMatrixError.  The sum is built by binary
    doubling over the digits of N, most significant first, from ``power`` =
    P^k and ``acc`` = the first row of sum_{i<=k} P^i: doubling k adds
    ``acc @ power`` to ``acc`` and squares ``power``; a 1-digit multiplies
    ``power`` by P and adds its first row.  That costs about 2 log2 N
    products of K x K matrices and two extra K x K arrays, instead of N
    vector-matrix steps.  The note carries the measured drift when the
    average still moves by 1e-6 or more between N//2 and N steps (checked
    when N//2 >= 2).
    """
    if not is_irreducible(P):
        raise ReducibleMatrixError("reducible transition matrix")
    if steps < 1:
        raise ValueError("steps must be >= 1")
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


def entropy_rate(P: TransitionMatrix, pi: ProbabilityVector | np.ndarray) -> EntropyEstimate:
    """Plug-in rate -sum_ij pi_i P_ij log2 P_ij of a known matrix, as a
    "direct_exact" estimate, summed over P's positive entries; rows with zero
    stationary weight contribute nothing.
    """
    if not isinstance(pi, ProbabilityVector):
        pi = ProbabilityVector(np.asarray(pi))
    if pi.size != P.size:
        raise ValueError("dimension mismatch between P and pi")
    src, dst = np.nonzero(P.probs > 0.0)
    return EntropyEstimate(_plugin_rate(pi.probs[src], P.probs[src, dst]), "direct_exact")


def estimate_direct(
    seq: Sequence,
    *more: Sequence,
    order: int = 1,
    stationary: str = "empirical",
    paper_zero_mode: bool = False,
) -> EntropyEstimate:
    """Direct entropy rate estimate of ``seq`` as an order-m chain, with the
    transition counts of any further segments ``more`` pooled in.

    Embeds each segment into order-m composite states and counts transitions
    within each segment only, so pairs spanning a segment boundary are
    excluded; segments no longer than ``order`` contribute no transitions,
    but every segment's symbols count towards the length that the short-data
    warning compares with kappa^m.  All segments must share one base
    alphabet.  ``stationary`` (one of ``DIRECT_METHODS``) picks the
    stationary weights pi_i, and every method evaluates one plug-in sum
    -sum pi_i p_ij log2 p_ij over the counts' nonzero entries, with
    p_ij = n_ij / n_i+.  Empirical weights are n_i+ / N, N = n_++, and need
    no K-length array; eigen and limit solve for pi on the dense MLE matrix
    with ``stationary_eigen`` or ``stationary_limit``, whose note joins the
    estimate's warnings.

    Eigen's weights differ from the empirical ones only through where the
    segments start and end.  If segment s runs from composite state a_s to
    b_s, the flow defect d = sum_s (e_{b_s} - e_{a_s}) is each state's
    in-count minus its out-count, and the row totals n satisfy
    n (I - P) = -d.  So eigen's pi is (n + y) / N with y (I - P) = d and
    sum(y) = 0: a closed walk (d = 0) gives exactly the empirical weights,
    and one open segment gives (n + mu) / (N + sum(mu)), where mu counts the
    expected visits from b before a is hit under P.

    Eigen and limit fail in this order: above DENSE_STATE_LIMIT composite
    states with StateSpaceError, then with ReducibleMatrixError when a state
    was never visited, both from ``mle_transition_matrix`` before any K x K
    array exists; last comes the solve, where ``stationary_eigen`` refuses a
    non-unique pi and ``stationary_limit`` a reducible matrix.  Under
    ``paper_zero_mode`` a ReducibleMatrixError instead reports the estimate
    as 0.0 with a warning, matching how such failures show up as zero
    estimates in simulation studies.
    """
    if stationary not in DIRECT_METHODS:
        raise ValueError(f"unknown stationary method {stationary!r}")
    if order < 1:
        raise ValueError("order must be >= 1")
    segments = (seq, *more)
    alphabet = seq.alphabet
    if any(seg.alphabet is not alphabet for seg in more):
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
    visited, _, row_totals = counts.row_runs
    method = f"direct_{stationary}"
    if stationary == "empirical":
        weights = row_totals / counts.grand_total
        if visited.size < counts.kappa:
            warn.append(
                f"{counts.kappa - visited.size} never-visited state(s) carry zero "
                "stationary weight"
            )
    else:
        try:
            P = mle_transition_matrix(counts)
            if stationary == "eigen":
                pi = stationary_eigen(P)
            else:
                pi, note = stationary_limit(P)
                if note:
                    warn.append(note)
        except ReducibleMatrixError as exc:
            if not paper_zero_mode:
                raise
            warn.append(f"{exc}; estimate forced to 0")
            return EntropyEstimate(0.0, method, order, tuple(warn))
        weights = pi.probs[counts.nonzero()[0]]
    value = _plugin_rate(weights, counts.n / row_totals)
    return EntropyEstimate(value, method, order, tuple(warn))


def estimate_direct_pooled(
    segments: list[Sequence],
    order: int = 1,
    stationary: str = "empirical",
    *,
    paper_zero_mode: bool = False,
) -> EntropyEstimate:
    """``estimate_direct`` of a nonempty list of segments."""
    return estimate_direct(
        *segments, order=order, stationary=stationary, paper_zero_mode=paper_zero_mode
    )
