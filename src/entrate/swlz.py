"""Sliding-window Lempel-Ziv sequence parsing and entropy rate estimation.

For each position i with nonempty history x_0..x_{i-1}, the novelty length is
the length of the shortest substring starting at i that does not occur
anywhere in the history.  The entropy rate estimate is

    H_hat = log2(n) / mean(novelty lengths)      (bits per symbol)

with the mean taken over positions 1..n-1 (Kontoyiannis, Algoet, Suhov &
Wyner, IEEE Trans. IT 44(3), 1998).  Every quantity here derives from one
array, the match lengths M: M[i] is the length of the longest prefix of
x[i:] that occurs entirely inside x[:i] (the "longest previous
non-overlapping factor" of Crochemore & Ilie, IPL 106(2), 2008).  The
novelty length at i is M[i] + 1, and a prefix of length n keeps
min(M[i], n - i), so one pass over a sequence serves every prefix cut.
M is computed in numpy by refining L-gram classes one level L at a time; the
work is about the sum of the match lengths in vectorised steps, and memory
stays O(n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .direct import EntropyEstimate
from .markov import InsufficientDataError, Sequence

__all__ = [
    "NovelLengths",
    "Parsing",
    "novel_length",
    "novel_lengths",
    "swlz_parse",
    "swlz_entropy",
    "swlz_estimate",
    "format_parsing",
]


@dataclass(frozen=True, eq=False)
class NovelLengths:
    """Per-position novelty lengths for positions 1..n-1.

    ``lengths[i]`` is the length of the shortest substring starting at i that
    is absent from the history x_0..x_{i-1}; index 0 is unused and set to 0.
    ``capped[i]`` marks positions whose entire remaining suffix occurs in the
    history, where the reported length (remaining + 1) would need at least one
    more symbol to be realized.
    """

    lengths: np.ndarray
    capped: np.ndarray

    def __post_init__(self) -> None:
        self.lengths.flags.writeable = False
        self.capped.flags.writeable = False

    @property
    def n_positions(self) -> int:
        return int(self.lengths.size - 1)

    def total(self) -> int:
        return int(self.lengths[1:].sum())

    def mean(self) -> float:
        return self.total() / self.n_positions

    def cut(self, n: int) -> NovelLengths:
        """The novelty lengths of the sequence's first n symbols.

        A prefix keeps each position's history, so only the match can
        shorten: ``len_i = min(M_i, n - i) + 1`` with ``M_i = lengths[i] - 1``,
        and position i is capped iff ``i + M_i >= n``.
        """
        if n < 2:
            raise InsufficientDataError("need at least 2 symbols")
        if n > self.lengths.size:
            raise ValueError(f"cut {n} is longer than the {self.lengths.size} symbols")
        return _novelty(self.lengths[:n] - 1, n)


@dataclass(frozen=True, eq=False)
class Parsing:
    """Greedy decomposition into shortest-never-seen phrases.

    Phrases are (start, length) spans that tile [0, n).  Every phrase except
    possibly the last is absent from the sequence prefix before it; the final
    phrase is flagged ``last_capped`` when the sequence ended before a novel
    phrase could complete.
    """

    phrases: tuple[tuple[int, int], ...]
    last_capped: bool

    def __post_init__(self) -> None:
        pos = 0
        for start, length in self.phrases:
            if start != pos or length < 1:
                raise ValueError("phrases must tile the sequence contiguously")
            pos = start + length


def _match_lengths(states: np.ndarray) -> np.ndarray:
    """M[i], the length of the longest prefix of x[i:] occurring inside x[:i].

    Level L holds the positions whose L-gram class may still match, sorted by
    (class, position), so the head of each class run is the class's first
    occurrence f, and member i is matched at length L iff f + L <= i.  A match
    of length L + 1 implies one of length L, so M[i] is the last level that
    matched i.  A class with no matched member cannot match at L + 1 and is
    dropped, as is every position whose (L+1)-gram would run past the end; the
    rest are refined into (L+1)-gram classes by a stable sort on (class, next
    symbol).  Every array is O(n); a level costs a sort of its live positions.
    """
    x = np.asarray(states, dtype=np.int64)
    n = x.size
    matches = np.zeros(n, dtype=np.int64)
    # class * radix + symbol < n * kappa stays far inside int64.
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


def _novelty(matches: np.ndarray, n: int) -> NovelLengths:
    """Novelty lengths of a length-n sequence from match lengths (n or more)."""
    remaining = n - np.arange(n)
    matched = np.minimum(matches[:n], remaining)
    lengths = matched + 1
    capped = matched == remaining
    lengths[0] = 0
    capped[0] = False
    return NovelLengths(lengths, capped)


def novel_length(seq: Sequence, i: int) -> tuple[int, bool]:
    """Length of the shortest substring starting at i absent from x_0..x_{i-1}.

    Returns ``(length, capped)``: when even the whole remaining suffix occurs
    in the history the result is (remaining + 1, True), since novelty would
    require at least one more symbol.  Position 0 has an empty history and is
    an error.
    """
    n = seq.length
    if i < 1:
        raise ValueError("position 0 has an empty history")
    if i >= n:
        raise ValueError(f"position {i} out of range for length-{n} sequence")
    matched = int(_match_lengths(seq.states)[i])
    return matched + 1, i + matched == n


def novel_lengths(seq: Sequence) -> NovelLengths:
    """Novelty lengths at every position 1..n-1, from one match-length pass."""
    n = seq.length
    if n < 2:
        raise InsufficientDataError("need at least 2 symbols")
    return _novelty(_match_lengths(seq.states), n)


def swlz_parse(seq: Sequence) -> Parsing:
    """Greedy sequential parsing into shortest-never-seen phrases.

    Starting from position p, the emitted phrase is the shortest substring not
    contained in x_0..x_{p-1}; parsing then resumes past it.  The first phrase
    is always the single first symbol (empty history), and the final phrase is
    truncated (and flagged) when the sequence ends before novelty is reached.
    """
    n = seq.length
    matches = _match_lengths(seq.states).tolist()
    phrases: list[tuple[int, int]] = []
    p = 0
    while p < n:
        length = min(matches[p] + 1, n - p)
        phrases.append((p, length))
        p += length
    start = phrases[-1][0]
    return Parsing(tuple(phrases), start + matches[start] == n)


def format_parsing(seq: Sequence, parsing: Parsing) -> str:
    """Render phrases with their symbol labels, Table-style: "1 | 3 | 131"."""
    labels = [seq.alphabet.label(int(s)) for s in seq.states]
    joiner = "" if all(len(lab) == 1 for lab in labels) else " "
    return " | ".join(
        joiner.join(labels[start : start + length]) for start, length in parsing.phrases
    )


def swlz_entropy(seq: Sequence) -> EntropyEstimate:
    """Entropy rate estimate log2(n) / mean(novelty lengths) in bits per symbol.

    The mean runs over the n-1 positions with nonempty history; positions
    whose suffix was exhausted contribute their capped length.  The estimate
    needs no assumed chain order but is biased for short sequences: high for
    strongly structured sources, low near the log2(kappa) ceiling.
    """
    return swlz_estimate(novel_lengths(seq), seq.alphabet.kappa)


def swlz_estimate(novelty: NovelLengths, kappa: int) -> EntropyEstimate:
    """The SWLZ estimate from novelty lengths (of a sequence or one of its
    cuts) over an alphabet of kappa symbols."""
    n = novelty.n_positions + 1
    value = float(np.log2(n) / novelty.mean())
    warn: tuple[str, ...] = ()
    cap = np.log2(kappa)
    if value > cap and cap > 0:
        warn = (
            f"estimate {value:.4f} exceeds log2(kappa) = {cap:.4f}; "
            "sequence is too short for a reliable estimate",
        )
    return EntropyEstimate(
        value=value, method="swlz", n_obs=n, order=None, irreducible=None, warnings=warn
    )
