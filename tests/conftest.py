"""Shared test helpers: sequence builders, brute-force oracles, random matrices."""

from __future__ import annotations

import os
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import settings

from entrate import (
    Alphabet,
    ProbabilityVector,
    ReducibleMatrixError,
    Sequence,
    TransitionMatrix,
    stationary_eigen,
)

# CI runs the kernel's property tests longer under HYPOTHESIS_PROFILE=kernel;
# without the variable every test keeps hypothesis's default profile.
settings.register_profile("kernel", max_examples=2000)
if "HYPOTHESIS_PROFILE" in os.environ:
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


def int_seq(values, kappa: int | None = None) -> Sequence:
    """Sequence over the integer alphabet {0..kappa-1}."""
    values = list(values)
    if kappa is None:
        kappa = max(values) + 1
    return Sequence(np.asarray(values, dtype=np.int64), Alphabet.of_size(kappa))


def assert_refused(build, error: type[Exception], message: str) -> None:
    """``build()`` raises exactly ``error`` (not a subclass) with exactly
    ``message``."""
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


def token_seq(text: str) -> Sequence:
    """Sequence of the characters of ``text`` over their sorted alphabet."""
    return Sequence.from_tokens(list(text))


def count_transitions_oracle(*segments: Sequence) -> dict[tuple[int, int], int]:
    """Transition counts {(i, j): n_ij} of the pairs within each segment,
    tallied one pair at a time in a dict; no pair spans two segments."""
    counts: dict[tuple[int, int], int] = {}
    for seg in segments:
        states = seg.states.tolist()
        for pair in zip(states, states[1:]):
            counts[pair] = counts.get(pair, 0) + 1
    return counts


def naive_novel_length(states, start: int, history_end: int | None = None):
    """Brute-force novelty length: scan L = 1, 2, ... with substring search.

    Shares nothing with the package's match-length kernel (Python string
    search over the symbols mapped to letters); the optional ``history_end``
    checks novelty against a shorter history prefix.
    """
    n = len(states)
    if history_end is None:
        history_end = start
    text = "".join(chr(65 + int(s)) for s in states)
    history = text[:history_end]
    L = 1
    while start + L <= n:
        if text[start : start + L] not in history:
            return L, False
        L += 1
    return (n - start) + 1, True


def match_lengths_level_oracle(states) -> np.ndarray:
    """The package's former match-length kernel, one symbol per level.

    M[i] is the length of the longest prefix of x[i:] occurring inside
    x[:i].  Level L holds the positions whose L-gram class may still match,
    sorted by (class, position), so the head of each class run is the
    class's first occurrence f, and member i is matched at length L iff
    f + L <= i.  A class with no matched member is dropped, as is every
    position whose (L+1)-gram would run past the end; the rest are refined
    into (L+1)-gram classes by a stable sort on (class, next symbol).
    """
    x = np.asarray(states, dtype=np.int64)
    n = x.size
    matches = np.zeros(n, dtype=np.int64)
    radix = int(x.max()) + 1
    pos = np.arange(n)
    cls = np.zeros(n, dtype=np.int64)
    L = 0
    while pos.size:
        key = cls * radix + x[pos + L]
        order = np.argsort(key, kind="stable")
        pos, key = pos[order], key[order]
        head = np.empty(pos.size, dtype=bool)
        head[0] = True
        np.not_equal(key[1:], key[:-1], out=head[1:])
        L += 1
        cls = np.cumsum(head) - 1
        matched = pos[head][cls] <= pos - L
        matches[pos[matched]] = L
        live = np.zeros(int(cls[-1]) + 1, dtype=bool)
        live[cls[matched]] = True
        keep = live[cls] & (pos < n - L)
        pos, cls = pos[keep], cls[keep]
    return matches


def stationary_bootstrap_oracle(states, p: float, rng: np.random.Generator) -> np.ndarray:
    """Stationary bootstrap resample of ``states`` laid out one block at a time.

    Draws the package's block batches from ``rng`` (uniform starts, then
    Geometric(p) lengths, batches of max(8, int(remaining * p) + 8) blocks)
    until they cover n symbols, then copies the blocks in order, one symbol
    at a time and wrapping modulo n, until n symbols are out.
    """
    n = len(states)
    blocks: list[tuple[int, int]] = []
    total = 0
    while total < n:
        batch = max(8, int((n - total) * p) + 8)
        starts = rng.integers(0, n, size=batch)
        lengths = rng.geometric(p, size=batch)
        blocks += zip(starts.tolist(), lengths.tolist())
        total += int(lengths.sum())
    out: list[int] = []
    for start, length in blocks:
        for k in range(min(length, n - len(out))):
            out.append(int(states[(start + k) % n]))
    return np.asarray(out, dtype=np.int64)


def simulate_chain_oracle(P: TransitionMatrix, n: int, *, init=None, rng=None) -> np.ndarray:
    """States of ``simulate_chain`` walked one numpy step at a time.

    Same draws in the same order: x_0 (from ``init``, or the stationary
    distribution when it is None), then n uniforms at once, each located by
    ``bisect_right`` in the current row's cumulative sums, whose last entry
    is set to 1.
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
    out = np.empty(n, dtype=np.int64)
    out[0] = x0
    us = rng.random(n)
    state = x0
    for t in range(1, n):
        state = bisect_right(rows[state], us[t])
        out[t] = state
    return out


def plugin_rate_oracle(P, n: int, reps: int, seed: int) -> tuple[float, float]:
    """Brute-force expected first-order plug-in entropy rate at length n.

    Simulates ``reps`` stationary chains of length n from the row-stochastic
    array ``P`` (vectorised over replicates, inverse-CDF steps), and evaluates
    -sum_ij (N_ij / (n-1)) log2(N_ij / N_i+) for each from one bincount over
    ``rep*K^2 + src*K + dst``.  Uses numpy only.  Returns the mean over
    replicates and its standard error.
    """
    P = np.asarray(P, dtype=np.float64)
    K = P.shape[0]
    rng = np.random.default_rng(seed)
    evals, evecs = np.linalg.eig(P.T)
    pi = np.real(evecs[:, np.argmin(np.abs(evals - 1.0))])
    pi = pi / pi.sum()
    cum = np.cumsum(P, axis=1)
    cum[:, -1] = 1.0
    chains = np.empty((n, reps), dtype=np.int64)
    chains[0] = rng.choice(K, size=reps, p=pi)
    for t in range(1, n):
        u = rng.random(reps)
        chains[t] = (cum[chains[t - 1]] <= u[:, None]).sum(axis=1)
    codes = np.arange(reps) * K * K + chains[:-1] * K + chains[1:]
    counts = np.bincount(codes.ravel(), minlength=reps * K * K).reshape(reps, K, K)
    row = counts.sum(axis=2, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(counts > 0, counts * np.log2(counts / row), 0.0)
    rates = -terms.sum(axis=(1, 2)) / (n - 1)
    return float(rates.mean()), float(rates.std(ddof=1) / np.sqrt(reps))


def strongly_connected_oracle(support) -> bool:
    """Brute-force irreducibility of the directed graph ``support[i, j] != 0``.

    Warshall's transitive closure of the boolean adjacency matrix: the chain
    is irreducible iff every state reaches every state, itself included, in
    one or more steps.  A state without outgoing edges (a never-visited state
    of a count table) reaches nothing, so it makes the chain reducible.
    """
    reach = np.asarray(support) != 0
    for via in range(reach.shape[0]):
        reach |= reach[:, via : via + 1] & reach[via : via + 1, :]
    return bool(reach.all())


def flow_defect_oracle(P, totals, firsts, lasts) -> tuple[np.ndarray, np.ndarray]:
    """Stationary distribution of the MLE matrix ``P`` of pooled segment
    counts, read from the counts' flow defect instead of solved for as a
    fixed point.

    ``totals`` are the pooled row totals n_i+, and segment s runs from state
    ``firsts[s]`` to ``lasts[s]``.  Each segment's end is paired with the
    next segment's start, cyclically: mu is the sum over s of the expected
    visits to each state by the chain P started at ``lasts[s]`` before it
    first hits ``firsts[s + 1]``, from the hitting-time system on the other
    states.  Then mu (I - P) = sum_s (e_last - e_first), which cancels
    n (I - P), so pi = (n + mu) / (N + sum(mu)).  A closed walk needs no
    solve: mu = 0 and pi = n / N.  Returns (pi, mu).
    """
    probs = np.asarray(P, dtype=np.float64)
    k = probs.shape[0]
    mu = np.zeros(k)
    for last, first in zip(lasts, np.roll(firsts, -1)):
        if last == first:
            continue
        others = np.arange(k) != first
        hit = np.eye(k - 1) - probs[np.ix_(others, others)]
        mu[others] += np.linalg.solve(hit.T, (np.arange(k) == last)[others].astype(float))
    n = np.asarray(totals, dtype=np.float64)
    return (n + mu) / (n.sum() + mu.sum()), mu


def cesaro_loop_oracle(P, steps: int) -> tuple[np.ndarray, float | None]:
    """Brute-force Cesaro average (1/N) sum_{i<=N} P^i[0, :] of the
    row-stochastic array ``P``, by N - 1 vector-matrix steps.

    Returns the normalised average and its drift max|avg_N - avg_{N//2}|
    (None when N//2 < 2, where no drift is measured).
    """
    probs = np.asarray(P, dtype=np.float64)
    row = probs[0].copy()
    acc = row.copy()
    half_avg = None
    half = steps // 2
    for i in range(2, steps + 1):
        row = row @ probs
        acc += row
        if i == half:
            half_avg = acc / half
    avg = acc / steps
    drift = None if half_avg is None else float(np.max(np.abs(avg - half_avg)))
    return avg / avg.sum(), drift


def entropy_rate_loop_oracle(P, pi) -> float:
    """Per-row plug-in rate sum_i pi_i * (-sum_j P_ij log2 P_ij) of the
    row-stochastic array ``P``, one row at a time over the rows with positive
    weight, as the package evaluated it before the rate became one weighted
    sum over the positive entries."""
    probs = np.asarray(P, dtype=np.float64)
    weights = np.asarray(pi, dtype=np.float64)
    value = 0.0
    for i in np.nonzero(weights > 0.0)[0]:
        row = probs[i][probs[i] > 0.0]
        value += weights[i] * float(-(row * np.log2(row)).sum())
    return max(0.0, value)


def stationary_eig_oracle(P: TransitionMatrix) -> np.ndarray:
    """The package's former ``stationary_eigen``: the left unit eigenvector of
    P from a dense ``np.linalg.eig``, refined by a bordered solve when its
    residual or sign is off.

    Raises ReducibleMatrixError for a count of eigenvalues within 1e-8 of 1
    other than one, for a zero-sum eigenvector, and when neither vector
    attains max|pi P - pi| <= 1e-10.
    """
    probs = P.probs
    eigvals, eigvecs = np.linalg.eig(probs.T)
    unit = np.abs(eigvals - 1.0) < 1e-8
    n_unit = int(unit.sum())
    if n_unit != 1:
        raise ReducibleMatrixError(
            f"reducible transition matrix: unit eigenvalue multiplicity {n_unit}"
        )
    vec = np.real(eigvecs[:, np.nonzero(unit)[0][0]])
    if vec.sum() == 0.0:
        raise ReducibleMatrixError("reducible transition matrix: degenerate eigenvector")
    pi = vec / vec.sum()

    def residual(v: np.ndarray) -> float:
        return float(np.max(np.abs(v @ probs - v)))

    if residual(pi) > 1e-10 or pi.min() < 0.0:
        k = probs.shape[0]
        A = probs.T - np.eye(k)
        A[-1, :] = 1.0
        try:
            refined = np.linalg.solve(A, np.eye(k)[-1])
        except np.linalg.LinAlgError:
            refined = np.full(k, np.nan)
        if np.all(np.isfinite(refined)) and residual(refined) < residual(pi):
            pi = refined
    if residual(pi) > 1e-10:
        raise ReducibleMatrixError(
            "reducible transition matrix: stationary fixed point not attained"
        )
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def random_stochastic(rng: np.random.Generator, k: int, floor: float = 1e-3) -> TransitionMatrix:
    """Random row-stochastic matrix; a positive floor keeps it irreducible."""
    raw = rng.gamma(1.0, 1.0, size=(k, k)) + floor
    return TransitionMatrix(raw / raw.sum(axis=1, keepdims=True))
