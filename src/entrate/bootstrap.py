"""Stationary bootstrap standard errors for entropy rate estimates.

Resamples a sequence by concatenating blocks with uniformly random start
positions and geometrically distributed lengths (mean 1/p), wrapping around
the end of the sequence, then truncating to the original length.  Given the
original observations the resampled sequence is again stationary, which is
what makes the scheme suitable for dependent data.

The block-continuation parameter p is chosen so the mean block length matches
the mean novelty length implied by an entropy estimate: p = H_hat / log2(n).

Segmented data (files whose boundary transitions are excluded) is resampled
one segment at a time, each within itself, and every replicate pools its
resampled segments the way the point estimate pools the originals.  A failed
replicate is left out of the standard error and counted, as a failed Monte
Carlo replicate is.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .direct import EntropyEstimate
from .estimators import EstimatorSpec, run_estimator
from .markov import EstimationError, Sequence, _freeze, _Frozen, _Value

__all__ = [
    "BootstrapConfig",
    "BootstrapResult",
    "choose_p",
    "stationary_bootstrap_sample",
    "bootstrap_se",
]

P_FLOOR = 1e-6


class BootstrapConfig(_Value):
    """Block parameter p in (0, 1] (None: ``choose_p`` of the point
    estimate), replicate count, and RNG seed."""

    def __init__(self, p: float | None, replicates: int, seed: int) -> None:
        if p is not None and not 0.0 < p <= 1.0:
            raise ValueError("p must lie in (0, 1]")
        if replicates < 2:
            raise ValueError("need at least 2 replicates")
        self.__dict__.update(p=p, replicates=replicates, seed=seed)


class BootstrapResult(_Frozen):
    """Point estimate and the estimates of the replicates that succeeded, in
    stream order, under block parameter ``p_used``; ``warnings`` notes a clamped
    block parameter and the failed replicates.  The standard error is derived
    from the estimates, not stored beside them."""

    def __init__(
        self, estimates: np.ndarray, p_used: float, point: EntropyEstimate,
        warnings: tuple[str, ...] = (),
    ) -> None:
        self.__dict__.update(
            estimates=_freeze(estimates), p_used=p_used, point=point, warnings=warnings
        )

    @cached_property
    def standard_error(self) -> float:
        """The replicate estimates' sample standard deviation, computed on first read."""
        return float(self.estimates.std(ddof=1))


def choose_p(h_hat: float, n: int) -> tuple[float, str]:
    """Block parameter p = H_hat / log2(n), clamped into (1e-6, 1], and its
    clamping note ("" when unclamped).

    Equates the mean bootstrap block length 1/p with the mean novelty length
    log2(n) / H_hat implied by the entropy estimate.  The note reports a
    clamp: a degenerate H_hat = 0, or an estimate exceeding log2 n.
    """
    if h_hat < 0:
        raise ValueError("entropy estimate must be nonnegative")
    if n < 2:
        raise ValueError("need n >= 2")
    raw = h_hat / float(np.log2(n))
    p = min(max(raw, P_FLOOR), 1.0)
    return p, f"block parameter clamped from {raw:.3g} to {p:.3g}" if p != raw else ""


def stationary_bootstrap_sample(
    seq: Sequence, p: float, rng: np.random.Generator
) -> Sequence:
    """One stationary bootstrap resample of ``seq``, of the same length.

    Blocks start uniformly on {0..n-1} with Geometric(p) lengths on {1, 2, ...};
    indices past the end wrap around modulo n; the concatenation is truncated
    to exactly n symbols.
    """
    if seq.length < 2:
        raise ValueError("need at least 2 symbols to resample")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    n = seq.length
    starts: list[np.ndarray] = []
    lens: list[np.ndarray] = []
    total = 0
    # Draw block batches until the concatenation covers n symbols.
    while total < n:
        expect = max(8, int((n - total) * p) + 8)
        s = rng.integers(0, n, size=expect)
        ln = rng.geometric(p, size=expect)
        starts.append(s)
        lens.append(ln)
        total += int(ln.sum())
    start_arr = np.concatenate(starts)
    len_arr = np.concatenate(lens)
    ends = np.cumsum(len_arr)
    n_blocks = int(np.searchsorted(ends, n, side="left")) + 1
    # Block b fills output positions base[b].. and reads start[b] + (j - base[b]);
    # the last block is clipped to end at n.
    base = ends[:n_blocks] - len_arr[:n_blocks]
    clipped = len_arr[:n_blocks].copy()
    clipped[-1] = n - base[-1]
    idx = np.arange(n) + np.repeat(start_arr[:n_blocks] - base, clipped)
    states = np.take(seq.states, idx, mode="wrap")
    return Sequence._trusted(states=_freeze(states), alphabet=seq.alphabet)


def bootstrap_se(
    seq: Sequence, estimator: EstimatorSpec, config: BootstrapConfig, *more: Sequence
) -> BootstrapResult:
    """Point estimate of ``seq`` plus its stationary-bootstrap standard error.

    The point estimate is ``run_estimator(seq, estimator, *more)``, once, with
    the same ``estimator`` as every replicate; errors on it propagate.  When
    ``config.p`` is None the block parameter is ``choose_p`` of the point
    estimate's value and the total length n, and its clamping note joins the
    result's warnings.  Each replicate draws from an independent child stream of
    the seeded generator, so results do not depend on evaluation order, and
    resamples ``seq`` and then each of ``more`` from that stream; a segment
    under 2 symbols is kept as it is.

    A replicate whose estimator raises EstimationError (reducible matrix,
    state space too large, ...) is left out of the estimates, and a note
    counts it; under ``estimator.paper_zero_mode`` a reducible replicate
    estimates 0.0, as the point estimate does.  Fewer than 2 successful
    replicates raise EstimationError; any other exception, ValueError
    included, propagates.
    """
    segments = (seq, *more)
    point = run_estimator(seq, estimator, *more)
    p, notes = config.p, []
    if p is None:
        p, note = choose_p(point.value, sum(s.length for s in segments))
        notes = [note] if note else []
    values: list[float] = []
    for stream in np.random.SeedSequence(config.seed).spawn(config.replicates):
        rng = np.random.default_rng(stream)
        resample = [
            stationary_bootstrap_sample(s, p, rng) if s.length >= 2 else s for s in segments
        ]
        try:
            values.append(run_estimator(resample[0], estimator, *resample[1:]).value)
        except EstimationError:
            continue
    failed = config.replicates - len(values)
    if len(values) < 2:
        raise EstimationError(
            f"{failed} of {config.replicates} bootstrap replicates failed; an SE needs 2"
        )
    if failed:
        notes.append(f"{failed} bootstrap replicate(s) failed and were left out of the SE")
    return BootstrapResult(np.asarray(values), p, point, tuple(notes))
