"""Core types for finite-alphabet symbol sequences and Markov transition estimation.

Provides alphabets (including composite alphabets of overlapping m-tuples used
to reduce an mth-order chain to a first-order chain), observed sequences as
integer state indices, transition counting, maximum-likelihood transition
matrices, and irreducibility checking.

Transition counts are kept as sorted codes i*K + j of the distinct observed
transitions and their row totals per observed source, so their memory follows
the data, never K; only the MLE matrix and the counts' ``row_totals_arr`` and
``dense`` views are K-length or K x K (up to DENSE_STATE_LIMIT states).
A transition matrix is always row-stochastic: ``mle_transition_matrix`` is
the one place that refuses counts with a never-visited state, whose row it
could not estimate.

All types are immutable after construction and all operations are pure
functions, so everything here is safe to share across threads.  A record
type's ``__init__`` checks its arguments and writes its fields with one
``self.__dict__.update(...)``; its base ``_Frozen`` refuses any later
assignment or deletion, and ``_Value`` gives the types compared by value
``==`` and a hash.  The rule for every record in the package: it stores no
field that it can derive (that is a ``cached_property`` view) or that its
caller already holds, and a ``_Value`` hashes exactly the fields it
compares.  ``_Frozen._trusted`` skips ``__init__`` and its checks
for the builders whose output passes them by construction, and only these:
``count_transitions``, ``mle_transition_matrix``, ``embed_order``,
``Sequence.prefix`` and ``bootstrap.stationary_bootstrap_sample``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence as TypingSequence

import numpy as np

__all__ = [
    "Alphabet",
    "CompositeAlphabet",
    "Sequence",
    "TransitionCounts",
    "TransitionMatrix",
    "ProbabilityVector",
    "EstimationError",
    "ReducibleMatrixError",
    "InsufficientDataError",
    "StateSpaceError",
    "count_transitions",
    "embed_order",
    "mle_transition_matrix",
    "is_irreducible",
]

# The largest number of states for which a dense K x K view is built: the
# counts' ``dense`` table and the MLE matrix that eigen and limit solve on.
DENSE_STATE_LIMIT = 4096

_SUM_TOL = 1e-12


class EstimationError(Exception):
    """This sequence cannot give this estimate: the one failure that bootstrap
    replicates and Monte Carlo cells count.  Input errors are
    ``ingest.InputError``s."""


class ReducibleMatrixError(EstimationError):
    """Raised when an operation requires an irreducible transition matrix."""


class InsufficientDataError(EstimationError):
    """Raised when a sequence is too short for the requested estimate."""


class StateSpaceError(EstimationError):
    """Raised when an estimate needs more states than a dense table, int64
    transition codes or a 63-bit SWLZ word can hold; not an input error."""


class _Frozen:
    """Base of the package's record types: a field is written once, by the
    subclass's ``__init__``, which takes every field by name."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    @classmethod
    def _trusted(cls, **fields: object):
        """An instance holding ``fields`` as given, built without ``__init__``
        and its checks: only for inputs that pass them by construction, with
        every array already read-only."""
        self = object.__new__(cls)
        self.__dict__.update(fields)
        return self

    def __repr__(self) -> str:
        code = type(self).__init__.__code__
        fields = (f"{f}={getattr(self, f)!r}" for f in code.co_varnames[1 : code.co_argcount])
        return f"{type(self).__name__}({', '.join(fields)})"


class _Value(_Frozen):
    """A record equal to another of its class whose fields are equal, and
    hashed by the same fields; its instance dict holds only them, so it has
    no cached views."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        # A frozenset, like dict equality, ignores the order fields were written in.
        return hash(frozenset(self.__dict__.items()))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _check_dense_limit(kappa: int) -> None:
    if kappa > DENSE_STATE_LIMIT:
        raise StateSpaceError(
            f"a dense {kappa} x {kappa} table exceeds the limit of "
            f"{DENSE_STATE_LIMIT} states; the empirical and swlz methods have no such limit"
        )


class Alphabet(_Frozen):
    """Ordered finite set of distinct symbol labels."""

    def __init__(self, symbols: Iterable[str]) -> None:
        symbols = tuple(str(s) for s in symbols)
        if len(symbols) < 1:
            raise ValueError("alphabet must contain at least one symbol")
        if len(set(symbols)) != len(symbols):
            raise ValueError("alphabet symbols must be pairwise distinct")
        self.__dict__.update(symbols=symbols)

    @property
    def kappa(self) -> int:
        return len(self.symbols)

    @classmethod
    def of_size(cls, kappa: int) -> "Alphabet":
        """Alphabet with labels "0", "1", ..., str(kappa - 1)."""
        return cls(tuple(str(i) for i in range(kappa)))

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "Alphabet":
        """Alphabet of the sorted distinct tokens."""
        return cls(tuple(sorted(set(tokens))))

    @cached_property
    def _lookup(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.symbols)}


class CompositeAlphabet(_Value):
    """States of the first-order chain on overlapping m-tuples of a base alphabet.

    Two composite alphabets are equal when they share one base alphabet object
    and one order, so separately embedded segments can be counted together.

    A tuple of base states ``(x_t, ..., x_{t+m-1})`` (oldest first) is encoded
    as ``sum(x_{t+k} * kappa**k for k in range(m))``: the newest symbol is the
    most significant base-kappa digit.  The encoding is a bijection between
    tuples and indices in ``[0, kappa**m)``.
    """

    def __init__(self, base: Alphabet, order: int) -> None:
        if order < 1:
            raise ValueError("composite order must be >= 1")
        if base.kappa ** (2 * order) > 2**63:  # codes i * K + j
            raise StateSpaceError(
                f"transition codes over {base.kappa}**{order} states overflow int64"
            )
        self.__dict__.update(base=base, order=order)

    @property
    def kappa(self) -> int:
        return self.base.kappa ** self.order

    def decode(self, index: int) -> tuple[int, ...]:
        """Window of base states (oldest first) for a composite index."""
        if not 0 <= index < self.kappa:
            raise ValueError(f"composite index {index} out of range")
        k = self.base.kappa
        out = []
        for _ in range(self.order):
            out.append(index % k)
            index //= k
        return tuple(out)


class Sequence(_Frozen):
    """An observed realization x_0 ... x_T as integer state indices."""

    def __init__(self, states: np.ndarray, alphabet: Alphabet | CompositeAlphabet) -> None:
        states = np.ascontiguousarray(states, dtype=np.int64)
        if states.ndim != 1 or states.size < 1:
            raise ValueError("sequence must be a nonempty 1-d array of states")
        if states.min() < 0 or states.max() >= alphabet.kappa:
            raise ValueError("state index out of range for alphabet")
        self.__dict__.update(states=_freeze(states), alphabet=alphabet)

    @property
    def length(self) -> int:
        return int(self.states.size)

    @classmethod
    def from_tokens(
        cls, tokens: TypingSequence[str], alphabet: Alphabet | None = None
    ) -> "Sequence":
        if alphabet is None:
            alphabet = Alphabet.from_tokens(tokens)
        lookup = alphabet._lookup
        try:
            states = np.fromiter(map(lookup.__getitem__, tokens), np.int64, len(tokens))
        except KeyError:
            offenders = sorted(map(str, set(tokens) - lookup.keys()))
            raise ValueError(f"tokens outside the alphabet: {', '.join(offenders)}") from None
        return cls(states, alphabet)

    def tokens(self) -> list[str]:
        symbols = self.alphabet.symbols
        return [symbols[s] for s in self.states.tolist()]

    def prefix(self, n: int) -> "Sequence":
        """First n observations, sharing the same alphabet."""
        if not 1 <= n <= self.length:
            raise ValueError("prefix length out of range")
        return Sequence._trusted(states=self.states[:n], alphabet=self.alphabet)


class TransitionCounts(_Frozen):
    """Observed one-step transition counts n_ij, in coordinate form.

    ``codes`` holds the observed transitions i -> j as strictly increasing
    int64 codes ``i * kappa + j`` and ``n`` their positive int64 counts, both
    read-only, so storage grows with the distinct transitions observed, not
    with kappa.  ``count_transitions`` builds its counts without these checks.
    ``nonzero()`` and ``row_runs`` are the bulk reads; the kappa-length
    ``row_totals_arr`` and the kappa x kappa ``dense`` table (up to
    DENSE_STATE_LIMIT states) are views built on first read.
    """

    def __init__(self, kappa: int, codes: np.ndarray, n: np.ndarray) -> None:
        # Checked before any kappa-length array exists.
        if kappa * kappa > np.iinfo(np.int64).max + 1:
            raise StateSpaceError(f"transition codes over {kappa} states overflow int64")
        codes = np.asarray(codes, dtype=np.int64)
        n = np.asarray(n, dtype=np.int64)
        if codes.ndim != 1 or codes.shape != n.shape:
            raise ValueError("codes and counts must be 1-d arrays of one length")
        if codes.size and (codes[0] < 0 or codes[-1] >= kappa * kappa):
            raise ValueError(f"transition code out of range for {kappa} states")
        if np.any(codes[1:] <= codes[:-1]):
            raise ValueError("transition codes must be strictly increasing")
        if np.any(n <= 0):
            raise ValueError("transition counts must be positive")
        self.__dict__.update(kappa=kappa, codes=_freeze(codes), n=_freeze(n))

    @property
    def grand_total(self) -> int:
        return int(self.n.sum())

    @cached_property
    def row_runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(states, totals, entry_totals)`` from one run-length reduce over
        the sorted codes: the visited source states (increasing), their row
        totals n_i+, and n_i+ again for each entry of ``nonzero()``."""
        src = self.codes // self.kappa
        new_row = np.empty(src.size, dtype=bool)
        new_row[:1] = True
        np.not_equal(src[1:], src[:-1], out=new_row[1:])
        starts = np.flatnonzero(new_row)
        totals = np.add.reduceat(self.n, starts)
        return _freeze(src[starts]), _freeze(totals), _freeze(totals[np.cumsum(new_row) - 1])

    @cached_property
    def row_totals_arr(self) -> np.ndarray:
        """Read-only kappa-length row totals n_i+, built on first read."""
        states, totals, _ = self.row_runs
        arr = np.zeros(self.kappa, dtype=np.int64)
        arr[states] = totals
        return _freeze(arr)

    def nonzero(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Int64 arrays ``(src, dst, n)`` of the nonzero entries, row-major."""
        return (*np.divmod(self.codes, self.kappa), self.n)

    @cached_property
    def dense(self) -> np.ndarray:
        """Read-only kappa x kappa table of the counts, built on first read."""
        _check_dense_limit(self.kappa)
        table = np.zeros(self.kappa * self.kappa, dtype=np.int64)
        table[self.codes] = self.n
        return _freeze(table).reshape(self.kappa, self.kappa)


class TransitionMatrix(_Frozen):
    """Row-stochastic matrix of estimated or exact transition probabilities:
    square, every entry in [0, 1] and every row summing to 1 within 1e-12.

    There is no partial form: ``mle_transition_matrix`` refuses counts with a
    never-visited state instead of leaving its row empty.
    """

    def __init__(self, probs: np.ndarray) -> None:
        probs = np.ascontiguousarray(probs, dtype=np.float64)
        if probs.ndim != 2 or probs.shape[0] != probs.shape[1]:
            raise ValueError("transition matrix must be square")
        # Written so that a NaN entry fails the checks.
        if not (probs.min() >= -_SUM_TOL and probs.max() <= 1 + _SUM_TOL):
            raise ValueError("transition probabilities must lie in [0, 1]")
        probs = np.clip(probs, 0.0, 1.0)
        if not np.all(np.abs(probs.sum(axis=1) - 1.0) <= _SUM_TOL):
            raise ValueError("rows must sum to 1 within 1e-12")
        self.__dict__.update(probs=_freeze(probs))

    @property
    def size(self) -> int:
        return int(self.probs.shape[0])


class ProbabilityVector(_Frozen):
    """Distribution over states: nonnegative entries summing to 1."""

    def __init__(self, probs: np.ndarray) -> None:
        probs = np.ascontiguousarray(probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size < 1:
            raise ValueError("probability vector must be a nonempty 1-d array")
        # Written so that a NaN entry fails the checks.
        if not probs.min() >= -_SUM_TOL:
            raise ValueError("probabilities must be nonnegative")
        total = probs.sum()
        if not abs(total - 1.0) <= _SUM_TOL:
            raise ValueError("probabilities must sum to 1 within 1e-12")
        probs = np.clip(probs, 0.0, None) / probs.clip(0.0, None).sum()
        self.__dict__.update(probs=_freeze(probs))

    @property
    def size(self) -> int:
        return int(self.probs.size)


def count_transitions(seq: Sequence, *more: Sequence) -> TransitionCounts:
    """Count one-step transitions: counts[i][j] = #{t : x_{t-1}=i, x_t=j}.

    Several segments over one alphabet are pooled: each contributes only the
    pairs within it, never one spanning two segments.  The grand total equals
    the summed segment lengths minus the number of segments.

    The codes i * kappa + j of the T observed transitions are counted with a
    kappa**2-cell ``np.bincount`` when kappa**2 <= T, and otherwise sorted by
    ``np.unique``.  Either way the memory is a few arrays of at most T int64
    entries, whatever kappa is; both give the same arrays.  One segment's
    codes are built in one array, which several segments concatenate.
    """
    alphabet = seq.alphabet
    if any(s.alphabet != alphabet for s in more):
        raise ValueError("segments must share a single alphabet")
    kappa = alphabet.kappa
    codes = _codes(seq, kappa)
    if more:
        codes = np.concatenate([codes, *(_codes(s, kappa) for s in more)])
    if codes.size < 1:
        raise InsufficientDataError(
            "no transitions observed: sequence has fewer than 2 symbols"
        )
    if kappa * kappa <= codes.size:
        hist = np.bincount(codes, minlength=kappa * kappa)
        codes = np.flatnonzero(hist)
        n = hist[codes]
    else:
        codes, n = np.unique(codes, return_counts=True)
    return TransitionCounts._trusted(kappa=kappa, codes=_freeze(codes), n=_freeze(n))


def _codes(seq: Sequence, kappa: int) -> np.ndarray:
    """The transition codes x_{t-1} * kappa + x_t of ``seq``, in one new array."""
    codes = seq.states[:-1] * kappa
    codes += seq.states[1:]
    return codes


def embed_order(seq: Sequence, m: int) -> Sequence:
    """Reduce an mth-order view of ``seq`` to a first-order composite sequence.

    The t-th output state encodes the window (x_t, ..., x_{t+m-1}); consecutive
    windows overlap in m-1 base symbols, so one composite transition advances
    the base chain by exactly one symbol.  m=1 is the identity embedding.
    """
    if m < 1:
        raise ValueError("order m must be >= 1")
    if seq.length < m:
        raise InsufficientDataError(f"insufficient length for order {m}")
    if m == 1:
        return seq
    base = seq.alphabet
    if isinstance(base, CompositeAlphabet):
        raise ValueError("sequence is already over a composite alphabet")
    comp = CompositeAlphabet(base=base, order=m)
    n_out = seq.length - m + 1
    idx = np.zeros(n_out, dtype=np.int64)
    for k in range(m):
        idx += seq.states[k : k + n_out] * base.kappa**k
    return Sequence._trusted(states=_freeze(idx), alphabet=comp)


def mle_transition_matrix(counts: TransitionCounts) -> TransitionMatrix:
    """Row-normalized counts: the maximum likelihood estimator of P.

    A never-visited state has no row to estimate, so counts with one raise
    ReducibleMatrixError, read from ``row_runs`` after the dense-limit check
    and before any K-length or K x K array exists.
    """
    if counts.grand_total < 1:
        raise ValueError("cannot estimate transition matrix from all-zero counts")
    _check_dense_limit(counts.kappa)
    visited, _, entry_totals = counts.row_runs
    if visited.size < counts.kappa:
        raise ReducibleMatrixError(
            f"reducible transition matrix: {counts.kappa - visited.size} row(s) never visited"
        )
    src, dst, n = counts.nonzero()
    probs = np.zeros((counts.kappa, counts.kappa))
    # Entries n_ij / n_i+ lie in [0, 1]; rows sum to 1 far within 1e-12.
    probs[src, dst] = n / entry_totals
    return TransitionMatrix._trusted(probs=_freeze(probs))


def _reaches_all(src: np.ndarray, dst: np.ndarray, kappa: int, start: int = 0) -> bool:
    """True iff every state is reachable from ``start`` along edges src -> dst."""
    targets = dst[np.argsort(src, kind="stable")].tolist()
    bounds = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=kappa)))).tolist()
    seen = [False] * kappa
    seen[start] = True
    stack = [start]
    while stack:
        node = stack.pop()
        for nb in targets[bounds[node] : bounds[node + 1]]:
            if not seen[nb]:
                seen[nb] = True
                stack.append(nb)
    return all(seen)


def is_irreducible(P: TransitionMatrix) -> bool:
    """True iff the directed graph of P's positive entries is strongly
    connected: every state reaches state 0 and state 0 reaches every state."""
    src, dst = np.nonzero(P.probs > 0.0)
    return _reaches_all(src, dst, P.size) and _reaches_all(dst, src, P.size)
