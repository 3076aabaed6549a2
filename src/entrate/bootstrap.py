"""Stationary bootstrap standard errors for entropy rate estimates.

Resamples a sequence by concatenating blocks with uniformly random start
positions and geometrically distributed lengths (mean 1/p), wrapping around
the end of the sequence, then truncating to the original length.  Given the
original observations the resampled sequence is again stationary, which is
what makes the scheme suitable for dependent data.

The block-continuation parameter p is chosen so the mean block length matches
the mean novelty length implied by an entropy estimate: p = H_hat / log2(n).
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass

import numpy as np

from .direct import EntropyEstimate
from .estimators import EstimatorSpec, run_estimator
from .markov import EstimationError, Sequence

__all__ = [
    "BootstrapConfig",
    "BootstrapResult",
    "choose_p",
    "stationary_bootstrap_sample",
    "bootstrap_se",
]

P_FLOOR = 1e-6


@dataclass(frozen=True)
class BootstrapConfig:
    """Block parameter p in (0, 1] (None: ``choose_p`` of the point
    estimate), replicate count, and RNG seed."""

    p: float | None
    replicates: int
    seed: int

    def __post_init__(self) -> None:
        if self.p is not None and not 0.0 < self.p <= 1.0:
            raise ValueError("p must lie in (0, 1]")
        if self.replicates < 2:
            raise ValueError("need at least 2 replicates")


@dataclass(frozen=True, eq=False)
class BootstrapResult:
    """Point estimate, replicate estimates and their sample standard deviation;
    ``warnings`` notes a clamped block parameter and failed replicates."""

    estimates: np.ndarray
    standard_error: float
    p_used: float
    estimator_tag: str
    point: EntropyEstimate
    n_failures: int = 0
    failure_policy: str = "zero"
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.standard_error < 0:
            raise ValueError("standard error must be nonnegative")
        self.estimates.flags.writeable = False


def choose_p(h_hat: float, n: int) -> float:
    """Block parameter p = H_hat / log2(n), clamped into (1e-6, 1].

    Equates the mean bootstrap block length 1/p with the mean novelty length
    log2(n) / H_hat implied by the entropy estimate.  Clamping (degenerate
    H_hat = 0, or estimates exceeding log2 n) is reported as a warning.
    """
    p, note = _clamped_p(h_hat, n)
    if note:
        _warnings.warn(note, stacklevel=2)
    return p


def _clamped_p(h_hat: float, n: int) -> tuple[float, str]:
    """``choose_p``'s value and its clamping message ("" when unclamped)."""
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
    start_arr = start_arr[:n_blocks]
    len_arr = len_arr[:n_blocks].copy()
    overshoot = int(ends[n_blocks - 1]) - n
    if overshoot:
        len_arr[-1] -= overshoot
    # Positions within the concatenation, offset per block, modulo n.
    block_first = np.repeat(start_arr, len_arr)
    offsets = np.arange(int(len_arr.sum()))
    block_base = np.repeat(np.cumsum(len_arr) - len_arr, len_arr)
    idx = (block_first + (offsets - block_base)) % n
    return Sequence(seq.states[idx], seq.alphabet)


def bootstrap_se(
    seq: Sequence,
    estimator: EstimatorSpec,
    config: BootstrapConfig,
    *,
    failure_policy: str = "zero",
) -> BootstrapResult:
    """Point estimate of ``seq`` plus its stationary-bootstrap standard error.

    The point estimate is computed once, with the same ``estimator`` as every
    replicate; errors on the original sequence propagate.  When ``config.p``
    is None the block parameter is ``choose_p(point, n)``.  Each replicate is
    resampled and estimated with an independent child stream of the seeded
    generator, so results do not depend on evaluation order.

    A replicate whose estimator raises EstimationError (e.g. a reducible
    matrix under the eigen method) is handled per ``failure_policy``: "zero"
    records it as 0.0, "drop" discards it; either way the count is reported.
    Any other exception propagates.  Under ``estimator.paper_zero_mode`` a
    reducible replicate is not a failure: the estimator itself returns 0.0.
    """
    if failure_policy not in ("zero", "drop"):
        raise ValueError("failure_policy must be 'zero' or 'drop'")
    point = run_estimator(seq, estimator)
    p, notes = config.p, []
    if p is None:
        p, note = _clamped_p(point.value, seq.length)
        notes = [note] if note else []
    streams = np.random.SeedSequence(config.seed).spawn(config.replicates)
    values: list[float] = []
    n_failures = 0
    for stream in streams:
        rng = np.random.default_rng(stream)
        resample = stationary_bootstrap_sample(seq, p, rng)
        try:
            values.append(run_estimator(resample, estimator).value)
        except EstimationError:
            n_failures += 1
            if failure_policy == "zero":
                values.append(0.0)
    if len(values) < 2:
        raise ValueError(
            f"only {len(values)} of {config.replicates} replicates produced "
            "estimates; cannot compute a standard error"
        )
    if n_failures:
        notes.append(f"{n_failures} bootstrap replicate(s) failed ({failure_policy} policy)")
    estimates = np.asarray(values, dtype=np.float64)
    return BootstrapResult(
        estimates=estimates,
        standard_error=float(estimates.std(ddof=1)),
        p_used=p,
        estimator_tag=estimator.tag,
        point=point,
        n_failures=n_failures,
        failure_policy=failure_policy,
        warnings=tuple(notes),
    )
