"""Ground-truth chain simulation, benchmark matrices, two-state second-order
chains, and a seeded Monte Carlo experiment runner.

The second-order half of this module works with 2-state chains whose
transition structure on pairs (rows and columns ordered AA, AB, BA, BB) is

    [[1-a, a,   0,   0  ],
     [0,   0,   b,   1-b],
     [1-c, c,   0,   0  ],
     [0,   0,   d,   1-d]]

where transitions between non-overlapping pairs are structurally impossible.
With a = c and b = d the process is indistinguishable from a first-order
chain.  Writing the observed first-order transition probabilities as p (A->B)
and q (B->A), the equivalent parameterization

    a = p(1+phi),  1-c = (1-p)(1+phi),  d = q(1+gamma),  1-b = (1-q)(1+gamma)

isolates the second-order dependence in phi = a-c and gamma = d-b, subject to
-1 <= phi <= min(p/(1-p), (1-p)/p) and the analogous bounds for gamma.  The
pair-chain stationary distribution has the closed form
psi^-1 * (d(1-c), da, da, a(1-b)) with psi = a(1-b) + 2da + d(1-c), which
makes the entropy rate analytic over the whole (phi, gamma) region.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial

import numpy as np

from . import swlz
from .direct import entropy_rate, stationary_eigen
from .estimators import EstimatorSpec, _replicate_estimates, run_estimator
from .markov import (
    DENSE_STATE_LIMIT,
    Alphabet,
    ProbabilityVector,
    ReducibleMatrixError,
    Sequence,
    StateSpaceError,
    TransitionMatrix,
    _Frozen,
    _Value,
    is_irreducible,
)

__all__ = [
    "simulate_chain",
    "benchmark_matrix",
    "SecondOrderParams",
    "ReparamPoint",
    "second_order_matrix",
    "reparam_to_abcd",
    "second_order_stationary",
    "second_order_entropy",
    "first_order_projection",
    "simulate_second_order",
    "phi_bound",
    "gamma_bound",
    "entropy_surface",
    "ExperimentPlan",
    "CellResult",
    "run_experiment",
]

# Uniforms read per block of the walk.  It bounds the walk's Python lists and
# its per-block arrays (the band mask, the uniforms outside the band and the
# fill index): full-length ones would hold about 32 MB of floats at n = 1e6.
_WALK_BLOCK = 4096


def simulate_chain(
    P: TransitionMatrix,
    n: int,
    *,
    init: int | ProbabilityVector | np.ndarray | None = None,
    rng: np.random.Generator | int | None = None,
) -> Sequence:
    """Draw a length-n realization from a transition matrix, over the
    alphabet ``Alphabet.of_size(P.size)``.

    ``init`` selects x_0: a fixed state index, an explicit distribution, or
    None for the exact stationary distribution (so the realized process is
    stationary from the start; this raises for reducible matrices).
    Subsequent symbols are drawn from the current row by inverse-CDF sampling:
    n uniforms are drawn at once after x_0, and step t >= 1 locates ``us[t]``
    by ``bisect_right`` in the current row's cumulative sums (``us[0]`` is
    never read).

    Only the steps that can move the chain are walked.  A uniform u in the
    band [lo, hi), with lo = max_{k>=1} cum[k, k-1] and hi = min_k cum[k, k],
    has cum[k, k-1] <= u < cum[k, k] for every state k, so ``bisect_right``
    would return the current state whatever it is; such a step keeps the
    state before it.  The band test compares each uniform exactly with the
    row values that ``bisect_right`` reads, so the states are the ones a
    step-by-step walk gives, bit for bit.  When the band is empty (lo >= hi,
    as when some row favours another state) every step is walked.

    The walk reads the uniforms block-wise: per block of 4096 it walks those
    outside the band as Python floats, so no step boxes a numpy scalar, and
    fills the block's states with one assignment.  Besides the output and the
    uniforms, its lists and arrays hold at most one block whatever n is.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(rng)
    kappa = P.size
    if init is None:
        init = stationary_eigen(P)
    if isinstance(init, (int, np.integer)):
        x0 = int(init)
        if not 0 <= x0 < kappa:
            raise ValueError("initial state out of range")
    else:
        probs = init.probs if isinstance(init, ProbabilityVector) else np.asarray(init)
        x0 = int(rng.choice(kappa, p=probs / probs.sum()))

    cum = np.cumsum(P.probs, axis=1)
    cum[:, -1] = 1.0
    rows = [row.tolist() for row in cum]
    lo = float(cum.diagonal(-1).max(initial=0.0))
    hi = float(cum.diagonal().min())
    out = np.empty(n, dtype=np.int64)
    out[0] = x0
    us = rng.random(n)
    state = x0
    for start in range(1, n, _WALK_BLOCK):
        block = us[start : start + _WALK_BLOCK]
        moves = block < lo
        moves |= block >= hi
        walked = [state]
        append = walked.append
        for u in block[moves].tolist():
            state = bisect_right(rows[state], u)
            append(state)
        if len(walked) > block.size:
            # Nothing was skipped, as always when the band is empty; the fill
            # below would cost such walks about a tenth of their time.
            # walked[0] rewrites the state already at start - 1.
            out[start - 1 : start + block.size] = walked
        else:
            # A skipped step keeps the state of the last walked one before it.
            out[start : start + block.size] = np.take(walked, np.cumsum(moves))
    return Sequence(out, Alphabet.of_size(kappa))


BENCHMARK_NAMES = ("low", "medium", "medium-builtin", "high")

# Dominant-successor masses of the built-in medium benchmark; row i puts s_i
# on state i+1 (mod 8) and spreads the rest evenly.  Row entropies span about
# 0.75 to 2.40 bits and the overall rate is about 1.61 bits.
_MEDIUM_MASSES = (0.90, 0.85, 0.80, 0.70, 0.60, 0.50, 0.60, 0.75)


def benchmark_matrix(
    kind: str, kappa: int | None = None, diag: float | None = None
) -> TransitionMatrix:
    """Named benchmark transition matrices over ``kappa`` states (default 8).

    "low": strongly self-transitioning rows (P_ii = diag, remaining mass split
    evenly), a highly predictable system.  "high": uniform rows, a maximally
    unpredictable system with rate exactly log2(kappa).  "medium" (alias
    "medium-builtin"): a fixed 8-state matrix with heterogeneous row entropies
    sitting between the two; it is a documented built-in stand-in, not taken
    from any published source.  ``diag`` (default 0.95) is for "low" only.
    Above DENSE_STATE_LIMIT states, "low" and "high" raise ``StateSpaceError``.
    """
    if diag is not None and kind != "low":
        raise ValueError(f"diag applies only to the low benchmark, not {kind!r}")
    kappa = 8 if kappa is None else kappa
    if kind in ("low", "high") and kappa > DENSE_STATE_LIMIT:
        raise StateSpaceError(
            f"the {kind} benchmark generator over {kappa} states exceeds the dense "
            f"limit of {DENSE_STATE_LIMIT} states"
        )
    if kind == "low":
        diag = 0.95 if diag is None else diag
        if not 0.0 < diag <= 1.0:
            raise ValueError("diag must lie in (0, 1]")
        if kappa < 2:
            raise ValueError("need kappa >= 2")
        P = np.full((kappa, kappa), (1.0 - diag) / (kappa - 1))
        np.fill_diagonal(P, diag)
        return TransitionMatrix(P)
    if kind == "high":
        if kappa < 1:
            raise ValueError("need kappa >= 1")
        return TransitionMatrix(np.full((kappa, kappa), 1.0 / kappa))
    if kind in ("medium", "medium-builtin"):
        if kappa != 8:
            raise ValueError("the built-in medium benchmark is 8-state")
        P = np.empty((8, 8))
        for i, mass in enumerate(_MEDIUM_MASSES):
            P[i, :] = (1.0 - mass) / 7.0
            P[i, (i + 1) % 8] = mass
        return TransitionMatrix(P)
    raise ValueError(f"unknown benchmark {kind!r}; expected one of {BENCHMARK_NAMES}")


class SecondOrderParams(_Value):
    """Transition probabilities (a, b, c, d) of the 2-state pair chain."""

    def __init__(self, a: float, b: float, c: float, d: float) -> None:
        for name, v in (("a", a), ("b", b), ("c", c), ("d", d)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"parameter {name}={v} outside [0, 1]")
        self.__dict__.update(a=a, b=b, c=c, d=d)


class ReparamPoint(_Value):
    """First-order probabilities (p, q) plus dependence parameters (phi, gamma)."""

    def __init__(self, p: float, q: float, phi: float, gamma: float) -> None:
        if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
            raise ValueError("p and q must lie strictly inside (0, 1)")
        _check_bound("phi", phi, p, "p")
        _check_bound("gamma", gamma, q, "q")
        self.__dict__.update(p=p, q=q, phi=phi, gamma=gamma)


_BOUND_TOL = 1e-12


def phi_bound(p: float) -> float:
    """Upper limit of phi over p and of gamma over q: min(p/(1-p), (1-p)/p); both are >= -1."""
    return min(p / (1.0 - p), (1.0 - p) / p)


gamma_bound = phi_bound


def _check_bound(name: str, value: float, base: float, base_name: str) -> None:
    upper = phi_bound(base)
    if not -1.0 - _BOUND_TOL <= value <= upper + _BOUND_TOL:
        raise ValueError(
            f"{name}={value} violates -1 <= {name} <= "
            f"min({base_name}/(1-{base_name}), (1-{base_name})/{base_name}) = {upper:.6g} "
            f"for {base_name}={base}"
        )


def second_order_matrix(params: SecondOrderParams) -> TransitionMatrix:
    """The 4x4 pair-transition matrix, rows and columns ordered AA, AB, BA, BB."""
    a, b, c, d = params.a, params.b, params.c, params.d
    P = np.array(
        [
            [1 - a, a, 0.0, 0.0],
            [0.0, 0.0, b, 1 - b],
            [1 - c, c, 0.0, 0.0],
            [0.0, 0.0, d, 1 - d],
        ]
    )
    return TransitionMatrix(P)


def reparam_to_abcd(point: ReparamPoint) -> SecondOrderParams:
    """Map (p, q, phi, gamma) to the (a, b, c, d) parameterization."""
    p, q, phi, gamma = point.p, point.q, point.phi, point.gamma
    a = p * (1 + phi)
    c = 1 - (1 - p) * (1 + phi)
    d = q * (1 + gamma)
    b = 1 - (1 - q) * (1 + gamma)
    # Guard float fuzz at the bound edges; genuine violations were rejected
    # by ReparamPoint already.
    a, b, c, d = (min(max(v, 0.0), 1.0) for v in (a, b, c, d))
    return SecondOrderParams(a=a, b=b, c=c, d=d)


def second_order_stationary(params: SecondOrderParams) -> ProbabilityVector:
    """Closed-form stationary distribution of the pair chain.

    pi = psi^-1 (d(1-c), da, da, a(1-b)) with psi = a(1-b) + 2da + d(1-c).
    """
    a, b, c, d = params.a, params.b, params.c, params.d
    raw = np.array([d * (1 - c), d * a, d * a, a * (1 - b)])
    psi = raw.sum()
    if psi <= 0.0:
        raise ReducibleMatrixError(
            "reducible transition matrix: pair chain has no interior stationary distribution"
        )
    return ProbabilityVector(raw / psi)


def second_order_entropy(params: SecondOrderParams) -> float:
    """Exact entropy rate (bits per symbol) of the pair chain.

    Per base symbol directly: each pair transition emits one new symbol.
    """
    P = second_order_matrix(params)
    pi = second_order_stationary(params)
    return entropy_rate(P, pi).value


def first_order_projection(params: SecondOrderParams) -> TransitionMatrix:
    """First-order dependence structure observed from the second-order process.

    Marginalizing the pair chain over its stationary distribution gives
    rows [[ (1-c)/((1-c)+a), a/((1-c)+a) ], [ d/(d+(1-b)), (1-b)/(d+(1-b)) ]].
    """
    if not is_irreducible(second_order_matrix(params)):
        raise ReducibleMatrixError("reducible transition matrix: projection undefined")
    a, b, c, d = params.a, params.b, params.c, params.d
    P = np.array(
        [
            [(1 - c) / ((1 - c) + a), a / ((1 - c) + a)],
            [d / (d + (1 - b)), (1 - b) / (d + (1 - b))],
        ]
    )
    return TransitionMatrix(P)


def simulate_second_order(
    params: SecondOrderParams,
    n: int,
    *,
    rng: np.random.Generator | int | None = None,
) -> Sequence:
    """Length-n two-state realization ("A"/"B") of the second-order chain.

    Simulates the pair chain from its exact stationary distribution and emits
    the newest symbol of each pair (composite index = 2*older + newer).
    """
    if n < 2:
        raise ValueError("need n >= 2 to carry second-order structure")
    rng = np.random.default_rng(rng)
    pair_seq = simulate_chain(
        second_order_matrix(params),
        n - 1,
        init=second_order_stationary(params),
        rng=rng,
    )
    base = np.empty(n, dtype=np.int64)
    base[0] = pair_seq.states[0] // 2
    base[1:] = pair_seq.states % 2
    return Sequence(base, Alphabet(("A", "B")))


def entropy_surface(
    p: float,
    q: float,
    phi_grid: np.ndarray,
    gamma_grid: np.ndarray,
) -> np.ndarray:
    """Exact entropy rate over a (phi, gamma) grid at fixed (p, q).

    Returns an array of shape (len(phi_grid), len(gamma_grid)) in bits, each
    point ``second_order_entropy`` of its ``ReparamPoint``.  A (p, q) outside
    (0, 1) raises ValueError; grid points that ``ReparamPoint`` refuses (a
    dependence bound violated) or whose pair chain degenerates (e.g. the
    phi = -1 or gamma = -1 edges) are marked NaN.
    """
    ReparamPoint(p, q, 0.0, 0.0)  # refuses a (p, q) outside (0, 1) before the grid
    phi_grid = np.asarray(phi_grid, dtype=np.float64)
    gamma_grid = np.asarray(gamma_grid, dtype=np.float64)
    out = np.full((phi_grid.size, gamma_grid.size), np.nan)
    for i, phi in enumerate(phi_grid.tolist()):
        for j, gamma in enumerate(gamma_grid.tolist()):
            try:
                out[i, j] = second_order_entropy(reparam_to_abcd(ReparamPoint(p, q, phi, gamma)))
            except (ValueError, ReducibleMatrixError):
                pass
    return out


class ExperimentPlan(_Frozen):
    """A Monte Carlo run: generator, cut lengths, replicates, estimators, seed."""

    def __init__(
        self, generator: TransitionMatrix | SecondOrderParams, lengths: tuple[int, ...],
        replicates: int, estimators: tuple[EstimatorSpec, ...], seed: int,
    ) -> None:
        if not lengths:
            raise ValueError("at least one cut length required")
        if any(b <= a for a, b in zip(lengths, lengths[1:])):
            raise ValueError("lengths must be strictly increasing")
        if lengths[0] < 2:
            raise ValueError("lengths must be >= 2")
        if replicates < 1:
            raise ValueError("replicates must be >= 1")
        if not estimators:
            raise ValueError("at least one estimator required")
        for k, est in enumerate(estimators):
            if est in estimators[:k]:
                raise ValueError(f"estimator {est.describe()} listed twice")
        self.__dict__.update(
            generator=generator, lengths=lengths, replicates=replicates, estimators=estimators,
            seed=seed,
        )


class CellResult(_Frozen):
    """Summary of one (cut length, estimator) cell across replicates."""

    def __init__(
        self, length: int, estimator: EstimatorSpec, n_ok: int, n_failed: int,
        minimum: float | None, mean: float | None, maximum: float | None, sd: float | None,
    ) -> None:
        self.__dict__.update(
            length=length, estimator=estimator, n_ok=n_ok, n_failed=n_failed, minimum=minimum,
            mean=mean, maximum=maximum, sd=sd,
        )


def run_experiment(plan: ExperimentPlan) -> tuple[CellResult, ...]:
    """Simulate, cut, and estimate per the plan; deterministic under its seed.

    Replicate i reads child stream i of the plan's seed only and simulates one
    sequence of the longest cut length; every estimator is then applied to
    each prefix cut, swlz through one pass over the whole sequence that every
    cut reuses.  Cells report min, mean, max, and the across-replicate sample
    standard deviation; an estimate that raised EstimationError (too-short
    prefix, reducible matrix without zero mode in its spec, state space too
    large, ...) is counted, not kept.  Any other exception, ``ValueError``
    included, propagates.  The cells come back length by length, in the plan's
    estimator order within each length; the plan itself stays with the caller.
    """
    gen = plan.generator
    if isinstance(gen, TransitionMatrix):
        init = stationary_eigen(gen)

        def sample(n: int, rng: np.random.Generator) -> Sequence:
            return simulate_chain(gen, n, init=init, rng=rng)

    else:

        def sample(n: int, rng: np.random.Generator) -> Sequence:
            return simulate_second_order(gen, n, rng=rng)

    max_len = plan.lengths[-1]
    uses_swlz = any(est.method == "swlz" for est in plan.estimators)
    keys = [(n, est) for n in plan.lengths for est in plan.estimators]

    def replicate(rng: np.random.Generator) -> list:
        seq = sample(max_len, rng)
        novelty = swlz.novel_lengths(seq) if uses_swlz else None
        return [
            partial(swlz.swlz_estimate, novelty.cut(n), seq.alphabet.kappa)
            if est.method == "swlz" else partial(run_estimator, seq.prefix(n), est)
            for n, est in keys
        ]

    outcomes = _replicate_estimates(plan.seed, plan.replicates, replicate)
    return tuple(
        CellResult(
            length=n, estimator=est, n_ok=int(vals.size), n_failed=failed,
            minimum=float(vals.min()) if vals.size else None,
            mean=float(vals.mean()) if vals.size else None,
            maximum=float(vals.max()) if vals.size else None,
            sd=float(vals.std(ddof=1)) if vals.size > 1 else None,
        )
        for (n, est), (vals, failed) in zip(keys, outcomes)
    )
