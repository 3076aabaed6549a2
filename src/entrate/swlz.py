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
``_match_lengths`` computes M in numpy, s symbols per round, and describes how.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .direct import EntropyEstimate
from .markov import InsufficientDataError, Sequence, StateSpaceError, _freeze, _Frozen

__all__ = [
    "NovelLengths",
    "Parsing",
    "novel_lengths",
    "swlz_parse",
    "swlz_entropy",
    "swlz_estimate",
    "format_parsing",
]


class NovelLengths(_Frozen):
    """Per-position novelty lengths for positions 1..n-1.

    ``lengths[i]`` is the length of the shortest substring starting at i that
    is absent from the history x_0..x_{i-1}; index 0 is unused and set to 0.
    ``capped``, a view derived from ``lengths``, marks the positions whose
    entire remaining suffix occurs in the history.
    """

    def __init__(self, lengths: np.ndarray) -> None:
        self.__dict__.update(lengths=_freeze(lengths))

    @cached_property
    def capped(self) -> np.ndarray:
        """Read-only flags, built on first read: position i >= 1 is capped iff
        ``lengths[i] == n - i + 1``, the remaining n - i symbols plus one more
        that the sequence does not have.  Position 0, whose length is 0, never is."""
        n = self.lengths.size
        return _freeze(self.lengths == n + 1 - np.arange(n))

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


class Parsing(_Frozen):
    """Greedy decomposition into shortest-never-seen phrases.

    Phrases are (start, length) spans that tile [0, n).  Every phrase except
    possibly the last is absent from the sequence prefix before it; the final
    phrase is flagged ``last_capped`` when the sequence ended before a novel
    phrase could complete.
    """

    def __init__(self, phrases: tuple[tuple[int, int], ...], last_capped: bool) -> None:
        pos = 0
        for start, length in phrases:
            if start != pos or length < 1:
                raise ValueError("phrases must tile the sequence contiguously")
            pos = start + length
        self.__dict__.update(phrases=phrases, last_capped=last_capped)


# A round gathers the rows that did not match all s symbols, and runs its
# shallower depth steps over them alone, once at least this share of its rows
# matched fully.  Gathering copies the rows: always doing it made 10k-symbol
# `high` chains (0.03 % of rows full) 9 % slower, and a half missed the first
# round of `medium` ones (about 30 % full); 0.1 to 0.25 kept both gains.
_GATHER_SHARE = 0.25


def _digits_per_round(n: int, kappa: int) -> int:
    """Digits s per SWLZ round: s digits of kappa.bit_length() bits (symbol
    values 0..kappa-1) beside two n.bit_length()-bit fields in 63 bits."""
    if (s := (63 - 2 * n.bit_length()) // kappa.bit_length()) < 1:
        raise StateSpaceError(f"SWLZ cannot pack n = {n} symbols over kappa = {kappa} values")
    return s


def _match_lengths(states: np.ndarray) -> np.ndarray:
    """M[i], the length of the longest prefix of x[i:] occurring inside x[:i].

    ``code[i]`` packs the s symbols from i into one int64, most significant
    first, one ``bits``-wide digit per symbol (symbol + 1; 0 past the end).
    Doubling builds it from one array of the n digits and s zero digits
    after them: the run of w digits from i gives that of 2w as
    ``run[i] << bits * w | run[i + w]``, and ``code`` joins the runs of s's
    set bits (10 = 2 + 8), offset by the widths joined before.  The pad
    holds the zeros past the end: the run of width w has n + s + 1 - w
    entries, a doubled width is at most s and a joined offset plus its width
    too, so every slice stays inside the run and none needs a clamp.
    A round starts from the positions whose L-gram class may still match
    and sorts one unique word per position, ``((class << bits * s) |
    code[i + L]) << pb | i`` with pb = n.bit_length(), so any sort gives the
    same order and the input sets s (``_digits_per_round``): 8 at kappa = 8
    and n = 10k, 2 at kappa = 4096 and n = 1e5.  Each (L+t)-gram class,
    t = 1..s, is then a run of rows sharing the top t digits, and its first
    occurrence f is the run's least position; member i is matched at length
    L + t iff f + L + t <= i.  Matching at L + t implies matching at every
    shorter length, so M[i] is L plus the depths that matched i.  A group
    with a digit 0 is the one position that ends there, never matched.

    The round takes the finest depth first: an (L+s)-class's rows are in
    position order, so its first row is f, and a row with f <= i - L - s
    matches fully and is settled at L + s.  Such a row is never the least
    position of an (L+t)-group, t < s: f lies in the same group and f < i.
    The depths t = 1..s-1 therefore need only the other rows, and as a sorted
    group stays one run when rows leave it, the XOR of consecutive kept
    words still bounds it.  Gathering them is worth its cost once a quarter
    of the rows matched fully (``_GATHER_SHARE``); below that the steps run
    over all rows, where the full ones change no group's least position.  A
    class with no fully matched row cannot match longer and is dropped, as
    is every position whose next gram would run past the end; a kept class
    is named by its f, which is less than n.  As f is fixed and i grows along
    a class, "full" holds from some row on: a class has a full row iff its
    last row is full.  A row matched at depth t >= 1 was full in the round
    before (f + L < i), so it holds L already and the round adds its depth.

    Every array is O(n), and a round costs one sort of its live rows plus
    depth steps 1..s-1 over the rows that did not match all s symbols (over
    all rows when under a quarter did), with no n-length term, so the work
    is about one sort per s symbols of the longest match.  Constant and
    periodic input is still quadratic: nearly every position stays live for
    about n / (2s) rounds, though most of it matches fully in each.
    """
    x = np.asarray(states, dtype=np.int64)
    n = x.size
    matches = np.zeros(n, dtype=np.int64)
    kappa = int(x.max()) + 1
    s, bits, pb = _digits_per_round(n, kappa), kappa.bit_length(), n.bit_length()
    run = np.zeros(n + s, dtype=np.int64)
    np.left_shift(x + 1, pb, out=run[:n])
    code, w, width = 0, 1, 0
    while 2 * w <= s:
        if s & w:
            code = code << bits * w | run[width : width + n]
            width += w
        run, w = run[:-w] << bits * w | run[w:], 2 * w
    code = code << bits * w | run[width : width + n]  # w is s's top bit
    del run  # the rounds read only code, and their peak memory is the call's
    pos = np.arange(n)
    cls = np.zeros(n, dtype=np.int64)
    L = 0
    while pos.size:
        word = (cls << bits * s + pb) | code[pos + L] | pos
        word.sort()
        pos = word & (1 << pb) - 1
        # Rows r-1 and r share their top t digits iff differ < 2**(bits*(s-t)+pb).
        differ = word[1:] ^ word[:-1]
        head = np.ones(pos.size + 1, dtype=bool)  # head[-1] closes the last run
        np.greater_equal(differ, 1 << pb, out=head[1:-1])
        bounds = head.nonzero()[0]
        starts = bounds[:-1]
        size = bounds[1:] - starts
        # An (L+s)-class's rows are in position order; its least position names it.
        cls = pos[starts].repeat(size)
        full = cls <= pos - (L + s)
        keep = full[bounds[1:] - 1].repeat(size) & (pos < n - L - s)
        cls = cls[keep]
        if np.count_nonzero(full) >= _GATHER_SHARE * pos.size:
            rest = (~full).nonzero()[0]
            rows, word = pos[rest], word[rest]
            differ = word[1:] ^ word[:-1]
            head = np.ones(rows.size + 1, dtype=bool)
        else:
            rows = pos
        depth = np.zeros(rows.size, dtype=np.int64)
        for t in range(1, s):
            np.greater_equal(differ, 1 << bits * (s - t) + pb, out=head[1:-1])
            bounds = head.nonzero()[0]
            starts = bounds[:-1]
            first = np.minimum.reduceat(rows, starts)
            first += L + t
            size = bounds[1:] - starts
            matched = first.repeat(size) <= rows
            if not matched.any():
                break
            depth += matched
        matches[rows] += depth
        matches[pos[full]] = L + s
        pos = pos[keep]
        L += s
    return matches


def _novelty(matches: np.ndarray, n: int) -> NovelLengths:
    """Novelty lengths of a length-n sequence from match lengths (n or more)."""
    lengths = np.minimum(matches[:n], n - np.arange(n))
    lengths += 1
    lengths[0] = 0
    return NovelLengths(lengths)


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
    labels = seq.tokens()
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
    cuts) over an alphabet of kappa symbols, with a warning when it exceeds
    log2(kappa), the highest rate a source over kappa symbols can have (0 for
    kappa = 1)."""
    n = novelty.n_positions + 1
    value = float(np.log2(n) / novelty.mean())
    warn: tuple[str, ...] = ()
    cap = np.log2(kappa)
    if value > cap:
        warn = (
            f"estimate {value:.4f} exceeds log2(kappa) = {cap:.4f}; "
            "sequence is too short for a reliable estimate",
        )
    return EntropyEstimate(value, warn)
