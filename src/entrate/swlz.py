"""Sliding-window Lempel-Ziv sequence parsing and entropy rate estimation.

For each position i with nonempty history x_0..x_{i-1}, the novelty length is
the length of the shortest substring starting at i that does not occur
anywhere in the history.  The entropy rate estimate is

    H_hat = log2(n) / mean(novelty lengths)      (bits per symbol)

with the mean taken over positions 1..n-1.  Matching against the growing
history uses an incrementally extended suffix automaton, so computing all n-1
lengths costs roughly the sum of the lengths rather than O(n^2) rescans.
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
    "format_parsing",
]


class _SuffixAutomaton:
    """Online suffix automaton over integer symbols.

    After feeding a text symbol by symbol, the automaton accepts exactly the
    substrings of the text; walking a query from the root yields the longest
    query prefix occurring in the text.
    """

    __slots__ = ("transitions", "link", "length", "last")

    def __init__(self) -> None:
        self.transitions: list[dict[int, int]] = [{}]
        self.link: list[int] = [-1]
        self.length: list[int] = [0]
        self.last = 0

    def extend(self, symbol: int) -> None:
        trans = self.transitions
        link = self.link
        length = self.length
        cur = len(trans)
        trans.append({})
        link.append(0)
        length.append(length[self.last] + 1)
        p = self.last
        while p != -1 and symbol not in trans[p]:
            trans[p][symbol] = cur
            p = link[p]
        if p == -1:
            link[cur] = 0
        else:
            q = trans[p][symbol]
            if length[p] + 1 == length[q]:
                link[cur] = q
            else:
                clone = len(trans)
                trans.append(dict(trans[q]))
                link.append(link[q])
                length.append(length[p] + 1)
                while p != -1 and trans[p].get(symbol) == q:
                    trans[p][symbol] = clone
                    p = link[p]
                link[q] = clone
                link[cur] = clone
        self.last = cur

    def longest_match(self, states: list[int], start: int, stop: int) -> int:
        """Length of the longest prefix of states[start:stop] found in the text."""
        trans = self.transitions
        node = 0
        matched = 0
        for pos in range(start, stop):
            node = trans[node].get(states[pos], -1)
            if node == -1:
                break
            matched += 1
        return matched


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


def _as_state_list(seq: Sequence) -> list[int]:
    return seq.states.tolist()


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
    states = _as_state_list(seq)
    sam = _SuffixAutomaton()
    for s in states[:i]:
        sam.extend(s)
    matched = sam.longest_match(states, i, n)
    return matched + 1, i + matched == n


def novel_lengths(seq: Sequence) -> NovelLengths:
    """Novelty lengths at every position 1..n-1, via one incremental pass."""
    n = seq.length
    if n < 2:
        raise InsufficientDataError("need at least 2 symbols")
    states = _as_state_list(seq)
    lengths = np.zeros(n, dtype=np.int64)
    capped = np.zeros(n, dtype=bool)
    sam = _SuffixAutomaton()
    sam.extend(states[0])
    for i in range(1, n):
        matched = sam.longest_match(states, i, n)
        lengths[i] = matched + 1
        capped[i] = i + matched == n
        sam.extend(states[i])
    return NovelLengths(lengths, capped)


def swlz_parse(seq: Sequence) -> Parsing:
    """Greedy sequential parsing into shortest-never-seen phrases.

    Starting from position p, the emitted phrase is the shortest substring not
    contained in x_0..x_{p-1}; parsing then resumes past it.  The first phrase
    is always the single first symbol (empty history), and the final phrase is
    truncated (and flagged) when the sequence ends before novelty is reached.
    """
    n = seq.length
    states = _as_state_list(seq)
    sam = _SuffixAutomaton()
    phrases: list[tuple[int, int]] = []
    last_capped = False
    p = 0
    while p < n:
        if p == 0:
            length = 1
        else:
            matched = sam.longest_match(states, p, n)
            if p + matched == n:
                length = n - p
                last_capped = True
            else:
                length = matched + 1
        for t in range(p, p + length):
            sam.extend(states[t])
        phrases.append((p, length))
        p += length
    return Parsing(tuple(phrases), last_capped)


def format_parsing(seq: Sequence, parsing: Parsing, separator: str = " | ") -> str:
    """Render phrases with their symbol labels, Table-style: "1 | 3 | 131"."""
    labels = [seq.alphabet.label(int(s)) for s in seq.states]
    joiner = "" if all(len(lab) == 1 for lab in labels) else " "
    return separator.join(
        joiner.join(labels[start : start + length]) for start, length in parsing.phrases
    )


def swlz_entropy(seq: Sequence) -> EntropyEstimate:
    """Entropy rate estimate log2(n) / mean(novelty lengths) in bits per symbol.

    The mean runs over the n-1 positions with nonempty history; positions
    whose suffix was exhausted contribute their capped length.  The estimate
    needs no assumed chain order but is biased for short sequences: high for
    strongly structured sources, low near the log2(kappa) ceiling.
    """
    n = seq.length
    if n < 2:
        raise InsufficientDataError("need at least 2 symbols")
    nl = novel_lengths(seq)
    value = float(np.log2(n) / nl.mean())
    warn: tuple[str, ...] = ()
    cap = np.log2(seq.alphabet.kappa)
    if value > cap and cap > 0:
        warn = (
            f"estimate {value:.4f} exceeds log2(kappa) = {cap:.4f}; "
            "sequence is too short for a reliable estimate",
        )
    return EntropyEstimate(
        value=value, method="swlz", n_obs=n, order=None, irreducible=None, warnings=warn
    )
