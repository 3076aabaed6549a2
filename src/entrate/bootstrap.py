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
resampled segments the way the point estimate pools the originals.
"""

from __future__ import annotations

import numpy as np

from .direct import EntropyEstimate
from .estimators import EstimatorSpec, run_estimator
from .markov import EstimationError, Sequence, _Frozen, _Value

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
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "replicates", replicates)
        object.__setattr__(self, "seed", seed)

    def __hash__(self) -> int:
        return hash((self.p, self.replicates, self.seed))


class BootstrapResult(_Frozen):
    """Point estimate, replicate estimates (0.0 for each of the ``n_failures``
    failed replicates) and their sample standard deviation; ``warnings`` notes
    a clamped block parameter and failed replicates."""

    def __init__(
        self, estimates: np.ndarray, standard_error: float, p_used: float,
        point: EntropyEstimate, n_failures: int = 0, warnings: tuple[str, ...] = (),
    ) -> None:
        if standard_error < 0:
            raise ValueError("standard error must be nonnegative")
        estimates.flags.writeable = False
        object.__setattr__(self, "estimates", estimates)
        object.__setattr__(self, "standard_error", standard_error)
        object.__setattr__(self, "p_used", p_used)
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "n_failures", n_failures)
        object.__setattr__(self, "warnings", warnings)


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
    idx -= n * (idx >= n)  # every index is below 2n
    return Sequence(seq.states[idx], seq.alphabet)


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
    state space too large, ...) is recorded as 0.0 and counted in
    ``n_failures``; any other exception, ValueError included, propagates.  Under
    ``estimator.paper_zero_mode`` a reducible replicate is not a failure: the
    estimator itself returns 0.0.
    """
    segments = (seq, *more)
    point = run_estimator(seq, estimator, *more)
    p, notes = config.p, []
    if p is None:
        p, note = choose_p(point.value, sum(s.length for s in segments))
        notes = [note] if note else []
    streams = np.random.SeedSequence(config.seed).spawn(config.replicates)
    values: list[float] = []
    n_failures = 0
    for stream in streams:
        rng = np.random.default_rng(stream)
        resample = [
            stationary_bootstrap_sample(s, p, rng) if s.length >= 2 else s for s in segments
        ]
        try:
            values.append(run_estimator(resample[0], estimator, *resample[1:]).value)
        except EstimationError:
            n_failures += 1
            values.append(0.0)
    if n_failures:
        notes.append(f"{n_failures} bootstrap replicate(s) failed (zero policy)")
    estimates = np.asarray(values, dtype=np.float64)
    return BootstrapResult(
        estimates=estimates,
        standard_error=float(estimates.std(ddof=1)),
        p_used=p,
        point=point,
        n_failures=n_failures,
        warnings=tuple(notes),
    )
