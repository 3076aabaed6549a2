import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from conftest import int_seq, random_stochastic, strongly_connected_oracle
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from entrate import (
    Alphabet,
    CompositeAlphabet,
    InsufficientDataError,
    ReducibleMatrixError,
    Sequence,
    StateSpaceError,
    TransitionMatrix,
    count_transitions,
    embed_order,
    is_irreducible,
    mle_transition_matrix,
)
from entrate.markov import DENSE_STATE_LIMIT, TransitionCounts
from entrate.simulate import simulate_chain


@st.composite
def count_tables(draw):
    """Square count tables over 1-8 states, mostly zeros, so that
    never-visited states and reducible supports are common."""
    kappa = draw(st.integers(1, 8))
    return draw(arrays(np.int64, (kappa, kappa), elements=st.sampled_from([0, 0, 0, 1, 5])))


def from_table(table: np.ndarray) -> TransitionCounts:
    """Counts holding the nonzero cells of a square table."""
    codes = np.flatnonzero(table.ravel())
    return TransitionCounts(table.shape[0], codes, table.ravel()[codes])


def bincount_oracle(segments: list[Sequence], kappa: int) -> list[tuple[int, int, int]]:
    """Nonzero (i, j, n_ij) of ``np.bincount(src * kappa + dst)`` over the
    within-segment pairs, row-major.  Counted one K-length row at a time, so
    65 symbols at m = 2 need no K**2 table."""
    src = np.concatenate([seg.states[:-1] for seg in segments])
    dst = np.concatenate([seg.states[1:] for seg in segments])
    out = []
    for i in np.unique(src).tolist():
        row = np.bincount(dst[src == i], minlength=kappa)
        out += [(i, j, int(row[j])) for j in np.flatnonzero(row).tolist()]
    return out


def entries(counts: TransitionCounts) -> list[tuple[int, int, int]]:
    """``counts.nonzero()`` as (i, j, n_ij) triples."""
    return list(zip(*(a.tolist() for a in counts.nonzero())))


class TestAlphabet:
    def test_basic(self):
        a = Alphabet(("x", "y", "z"))
        assert a.kappa == 3
        assert Sequence.from_tokens(["y", "x"], a).states.tolist() == [1, 0]
        assert a.symbols[2] == "z"

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Alphabet(("a", "a"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Alphabet(())

    def test_from_tokens_sorted_distinct(self):
        a = Alphabet.from_tokens(["b", "a", "b", "c"])
        assert a.symbols == ("a", "b", "c")


class TestSequence:
    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            int_seq([0, 3], kappa=3)

    def test_immutable(self):
        seq = int_seq([0, 1, 0])
        with pytest.raises(ValueError):
            seq.states[0] = 1

    def test_prefix(self):
        seq = int_seq([0, 1, 0, 1])
        assert seq.prefix(2).states.tolist() == [0, 1]
        with pytest.raises(ValueError):
            seq.prefix(0)

    def test_from_tokens_names_tokens_outside_alphabet(self):
        with pytest.raises(ValueError, match="^tokens outside the alphabet: p, q$"):
            Sequence.from_tokens(["a", "q", "p", "q"], Alphabet(("a",)))


class TestCompositeAlphabet:
    def test_encode_decode_roundtrip_exhaustive(self):
        for kappa, m in [(2, 2), (2, 12), (3, 4), (8, 4), (4, 3)]:
            comp = CompositeAlphabet(Alphabet.of_size(kappa), m)
            assert comp.kappa == kappa**m
            for i in range(comp.kappa):
                assert sum(x * kappa**k for k, x in enumerate(comp.decode(i))) == i

    def test_newest_symbol_most_significant(self):
        comp = CompositeAlphabet(Alphabet.of_size(2), 2)
        # window (oldest=1, newest=0) -> 1*1 + 0*2
        assert comp.decode(1) == (1, 0)
        assert comp.decode(2) == (0, 1)

    def test_legal_successor_overlap(self):
        # Window j can follow window i only when they overlap in m - 1 symbols.
        comp = CompositeAlphabet(Alphabet.of_size(2), 2)
        ab, bb, aa = comp.decode(2), comp.decode(3), comp.decode(0)
        assert (ab, bb, aa) == ((0, 1), (1, 1), (0, 0))
        assert ab[1:] == bb[:-1]
        assert ab[1:] != aa[:-1]

    def test_order_bounded_by_code_space(self):
        # K = 8**11 = 2**33 states: codes i * K + j reach 2**66 and would wrap
        # negative inside count_transitions, so the alphabet refuses them.
        with pytest.raises(StateSpaceError, match=r"over 8\*\*11 states overflow int64"):
            CompositeAlphabet(Alphabet.of_size(8), 11)
        seq = int_seq(np.random.default_rng(11).integers(0, 8, 3000), kappa=8)
        with pytest.raises(StateSpaceError, match=r"8\*\*11"):
            embed_order(seq, 11)
        # K = 8**10 = 2**30: codes reach 2**60, inside int64.
        assert CompositeAlphabet(Alphabet.of_size(8), 10).kappa == 2**30
        counts = count_transitions(embed_order(seq, 10))
        assert counts.grand_total == 3000 - 10
        assert counts.codes[0] >= 0 and counts.codes[-1] < 2**60
        # The bound is K**2 <= 2**63: 2**31 binary states fit, 2**32 do not.
        assert CompositeAlphabet(Alphabet.of_size(2), 31).kappa == 2**31
        with pytest.raises(StateSpaceError, match=r"2\*\*32"):
            CompositeAlphabet(Alphabet.of_size(2), 32)


class TestEmbedOrder:
    def test_m1_identity(self):
        seq = int_seq([0, 1, 0, 1], kappa=2)
        assert embed_order(seq, 1) is seq

    def test_m2_indices(self):
        seq = int_seq([0, 1, 0, 1], kappa=2)
        emb = embed_order(seq, 2)
        assert emb.states.tolist() == [2, 1, 2]
        assert emb.length == seq.length - 1

    def test_constant(self):
        emb = embed_order(int_seq([0, 0, 0], kappa=2), 2)
        assert emb.states.tolist() == [0, 0]

    def test_too_short(self):
        with pytest.raises(InsufficientDataError, match="insufficient length"):
            embed_order(int_seq([0], kappa=2), 2)

    def test_grand_total_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(5, 40))
            kappa = int(rng.integers(2, 5))
            seq = int_seq(rng.integers(0, kappa, n), kappa)
            for m in range(1, 4):
                if seq.length <= m:
                    continue
                counts = count_transitions(embed_order(seq, m))
                assert counts.grand_total == seq.length - m

    @settings(deadline=None)
    @given(st.data())
    def test_windows_biject_onto_composite_indices(self, data):
        kappa = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, 4))
        values = data.draw(st.lists(st.integers(0, kappa - 1), min_size=m, max_size=60))
        emb = embed_order(int_seq(values, kappa), m)
        comp = emb.alphabet if m > 1 else CompositeAlphabet(Alphabet.of_size(kappa), 1)
        windows = [tuple(values[t : t + m]) for t in range(len(values) - m + 1)]
        index_of = {w: sum(x * kappa**k for k, x in enumerate(w)) for w in windows}
        assert emb.states.tolist() == [index_of[w] for w in windows]
        assert [comp.decode(i) for i in emb.states.tolist()] == windows
        # Every index in [0, kappa^m) names exactly one window.
        decoded = [comp.decode(i) for i in range(comp.kappa)]
        assert [sum(x * kappa**k for k, x in enumerate(w)) for w in decoded] == list(range(comp.kappa))
        # Consecutive windows overlap in m - 1 base symbols.
        for a, b in zip(emb.states.tolist(), emb.states.tolist()[1:]):
            assert comp.decode(a)[1:] == comp.decode(b)[:-1]

    def test_structural_zeros(self):
        # Tuple j can follow tuple i only when the last m - 1 base symbols of
        # i equal the first m - 1 of j.
        rng = np.random.default_rng(6)
        seq = int_seq(rng.integers(0, 3, 200), 3)
        for m in (2, 3):
            emb = embed_order(seq, m)
            comp = emb.alphabet
            counts = count_transitions(emb)
            for i, j in zip(*counts.nonzero()[:2]):
                assert comp.decode(int(i))[1:] == comp.decode(int(j))[:-1]


class TestCountTransitions:
    def test_constant(self):
        counts = count_transitions(int_seq([0, 0, 0, 0], kappa=1))
        assert counts.dense[0, 0] == 3
        assert counts.grand_total == 3

    def test_alternating(self):
        counts = count_transitions(int_seq([0, 1, 0, 1, 0], kappa=2))
        assert counts.dense[0, 1] == 2
        assert counts.dense[1, 0] == 2
        assert counts.dense[0, 0] == 0
        with pytest.raises(IndexError):
            counts.dense[0, 2]  # code 2 is the observed (1, 0)

    def test_hand_tally(self):
        # "13131213232331313332" over alphabet (1, 2, 3); pairs tallied by hand.
        seq = Sequence.from_tokens(list("13131213232331313332"))
        counts = count_transitions(seq)
        a = seq.alphabet
        expected = {
            ("1", "3"): 5, ("1", "2"): 1, ("3", "1"): 4, ("3", "2"): 3,
            ("3", "3"): 3, ("2", "1"): 1, ("2", "3"): 2,
        }
        assert counts.grand_total == 19
        for i in range(3):
            for j in range(3):
                key = (a.symbols[i], a.symbols[j])
                assert counts.dense[i, j] == expected.get(key, 0), key

    def test_single_symbol_errors(self):
        with pytest.raises(InsufficientDataError, match="no transitions"):
            count_transitions(int_seq([0], kappa=1))

    def test_sparse_storage_above_limit(self):
        rng = np.random.default_rng(7)
        seq = int_seq(rng.integers(0, 70, 500), 70)
        emb = embed_order(seq, 2)  # 4900 composite states
        counts = count_transitions(emb)
        assert counts.grand_total == 498
        assert counts.nonzero()[2].sum() == 498
        with pytest.raises(StateSpaceError, match="4900 x 4900 .* 4096 states"):
            counts.dense
        with pytest.raises(StateSpaceError, match="4900 x 4900 .* 4096 states"):
            mle_transition_matrix(counts)

    def test_dense_table_built_without_a_copy(self):
        rng = np.random.default_rng(8)
        emb = embed_order(int_seq(rng.integers(0, 8, 10_000), 8), 4)  # 4096 states
        counts = count_transitions(emb)
        tracemalloc.start()
        try:
            table = counts.dense
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.shape == (4096, 4096) and counts.dense is table
        assert not table.flags.writeable
        assert np.array_equal(table.ravel()[counts.codes], counts.n)
        assert table.sum() == counts.grand_total
        assert peak < 1.5 * table.nbytes, f"peak {peak / table.nbytes:.2f}x table"

    def test_counting_memory_scales_with_observed_transitions(self):
        # At most 9,999 of the 16.7 M cells can be nonzero; a dense table
        # would take 134 MB.
        rng = np.random.default_rng(8)
        emb = embed_order(int_seq(rng.integers(0, 8, 10_000), 8), 4)  # 4096 states
        tracemalloc.start()
        try:
            counts = count_transitions(emb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts.kappa == 4096 and counts.grand_total == emb.length - 1
        assert peak < 2 * 2**20, f"traced peak {peak / 2**20:.2f} MB"

    @settings(deadline=None)
    @given(st.data())
    def test_counts_match_bincount_oracle(self, data):
        # 65 symbols at m = 2 gives 4225 states, above the dense limit.
        kappa = data.draw(st.sampled_from([1, 2, 3, 65]))
        m = data.draw(st.integers(1, 2))
        symbols = st.lists(st.integers(0, kappa - 1), min_size=0, max_size=40)
        alphabet = Alphabet.of_size(kappa)
        segments = [
            embed_order(Sequence(np.array(s), alphabet), m)
            for s in data.draw(st.lists(symbols, min_size=1, max_size=4))
            if len(s) > m
        ]
        if not segments:
            return
        counts = count_transitions(*segments)
        states = kappa**m
        expected = bincount_oracle(segments, states)
        assert counts.kappa == states
        assert all(a.dtype == np.int64 for a in counts.nonzero())
        assert entries(counts) == expected
        assert counts.grand_total == sum(seg.length - 1 for seg in segments)
        totals = Counter()
        for i, _, n in expected:
            totals[i] += n
        visited, row_totals, entry_totals = counts.row_runs
        assert visited.tolist() == sorted(totals)
        assert row_totals.tolist() == [totals[i] for i in sorted(totals)]
        assert entry_totals.tolist() == [totals[i] for i, _, _ in expected]
        if states <= DENSE_STATE_LIMIT:
            table = np.zeros((states, states), dtype=np.int64)
            for i, j, n in expected:
                table[i, j] = n
            assert np.array_equal(counts.dense, table)

    @settings(deadline=None)
    @given(st.data())
    def test_pooled_counts_are_the_sum_of_segment_counts(self, data):
        # 65 symbols at m = 2 gives 4225 states, above the dense limit.
        kappa = data.draw(st.sampled_from([1, 2, 3, 65]))
        m = data.draw(st.integers(1, 2))
        symbols = st.lists(st.integers(0, kappa - 1), min_size=m + 1, max_size=30)
        alphabet = Alphabet.of_size(kappa)
        segments = [
            embed_order(Sequence(np.array(s), alphabet), m)
            for s in data.draw(st.lists(symbols, min_size=1, max_size=4))
        ]
        pooled = count_transitions(*segments)
        expected = Counter()
        for seg in segments:
            expected.update({(i, j): n for i, j, n in entries(count_transitions(seg))})
        assert entries(pooled) == [(i, j, n) for (i, j), n in sorted(expected.items())]
        assert pooled.grand_total == sum(seg.length - 1 for seg in segments)

    def test_pooling_needs_one_alphabet_and_a_transition(self):
        seq = int_seq([0, 1, 0], kappa=2)
        with pytest.raises(ValueError, match="single alphabet"):
            count_transitions(seq, int_seq([1, 0], kappa=2))
        with pytest.raises(InsufficientDataError, match="no transitions"):
            count_transitions(seq.prefix(1), seq.prefix(1))


class TestMleTransitionMatrix:
    def test_direct_division(self):
        counts = count_transitions(int_seq([0, 0, 1, 0, 0, 1, 1, 1, 0], kappa=2))
        P = mle_transition_matrix(counts)
        assert P.probs[0].sum() == pytest.approx(1.0)

    def test_rows(self):
        counts = from_table(np.array([[2, 2], [4, 0]]))
        P = mle_transition_matrix(counts)
        assert np.allclose(P.probs, [[0.5, 0.5], [1.0, 0.0]])

    def test_undefined_row_flagged(self):
        counts = count_transitions(int_seq([0, 0, 1], kappa=2))
        with pytest.raises(
            ReducibleMatrixError, match=r"^reducible transition matrix: 1 row\(s\) never visited$"
        ):
            mle_transition_matrix(counts)

    def test_all_zero_errors(self):
        counts = TransitionCounts(kappa=2, codes=[], n=[])
        with pytest.raises(ValueError):
            mle_transition_matrix(counts)

    def test_converges_to_truth(self):
        rng = np.random.default_rng(11)
        P = random_stochastic(rng, 4)
        seq = simulate_chain(P, 100_000, rng=rng)
        Phat = mle_transition_matrix(count_transitions(seq))
        assert np.max(np.abs(Phat.probs - P.probs)) < 0.02


class TestIrreducibility:
    def test_two_cycle(self):
        assert is_irreducible(TransitionMatrix([[0, 1], [1, 0]]))

    def test_absorbing_state(self):
        assert not is_irreducible(TransitionMatrix([[1, 0], [0.5, 0.5]]))

    def test_pair_chain_with_structural_zeros(self):
        # 4-state chain on pairs: strongly connected despite half the entries
        # being structurally zero.
        P = TransitionMatrix(
            [
                [0.9, 0.1, 0.0, 0.0],
                [0.0, 0.0, 0.9333333333333333, 0.0666666666666667],
                [0.15, 0.85, 0.0, 0.0],
                [0.0, 0.0, 0.2, 0.8],
            ]
        )
        assert is_irreducible(P)

    @settings(deadline=None)
    @given(count_tables())
    def test_matches_transitive_closure_oracle(self, table):
        # The counts keep their never-visited states; the matrix fills each
        # empty row with one step to the next state, since its rows are full.
        assert is_irreducible(from_table(table)) == strongly_connected_oracle(table)
        full = table.copy()
        empty = np.flatnonzero(table.sum(axis=1) == 0)
        full[empty, (empty + 1) % table.shape[0]] = 1
        P = TransitionMatrix(full / full.sum(axis=1, keepdims=True))
        assert is_irreducible(P) == strongly_connected_oracle(full)

    def test_counts_with_unvisited_sources_need_no_state_length_array(self):
        # Two observed sources among 10 M states: reducible, decided from the
        # runs of the codes without an 80 MB row-total or visited array.
        tracemalloc.start()
        try:
            counts = TransitionCounts(kappa=10**7, codes=[1, 10**7 + 3], n=[2, 5])
            irreducible = is_irreducible(counts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert irreducible is False
        assert peak < 2**20, f"traced peak {peak / 2**20:.2f} MB"


class TestValidation:
    # Each case lists (code, count) entries over 2 states, codes in [0, 4).
    @pytest.mark.parametrize(
        "rows",
        [
            [(1, 3), (2, -1)],
            [(4, 1)],
            [(-1, 1)],
            [(2, 1), (1, 1)],
            [(1, 1), (1, 2)],
            [(0, 3), (1, 0)],
        ],
    )
    def test_sparse_counts_checked(self, rows):
        codes, n = zip(*rows)
        with pytest.raises(ValueError, match="out of range|strictly increasing|positive"):
            TransitionCounts(2, codes, n)

    def test_sparse_counts_with_empty_row(self):
        counts = TransitionCounts(2, [2], [3])
        assert [a.tolist() for a in counts.row_runs] == [[1], [3], [3]]
        assert counts.row_totals_arr.tolist() == [0, 3]
        assert counts.row_totals_arr is counts.row_totals_arr
        assert not counts.row_totals_arr.flags.writeable
        assert entries(counts) == [(1, 0, 3)]

    def test_no_transitions_have_empty_runs(self):
        counts = TransitionCounts(3, [], [])
        assert [a.size for a in counts.row_runs] == [0, 0, 0]
        assert counts.grand_total == 0
        assert counts.row_totals_arr.tolist() == [0, 0, 0]

    @pytest.mark.parametrize(
        "codes, n", [([0, 1], [1]), ([[0, 1]], [[1, 1]]), (0, 1)]
    )
    def test_counts_shape_checked(self, codes, n):
        with pytest.raises(ValueError, match="1-d arrays of one length"):
            TransitionCounts(2, codes, n)

    def test_transition_codes_must_fit_int64(self):
        # 65,536 symbols at m = 2: K = 2**32, whose codes reach K**2 - 1 = 2**64 - 1.
        with pytest.raises(StateSpaceError, match="overflow int64"):
            TransitionCounts(kappa=2**32, codes=[], n=[])
        # The guard fires before the K-length row totals exist.
        with pytest.raises(StateSpaceError, match="overflow int64"):
            TransitionCounts(kappa=math.isqrt(2**63 - 1) + 1, codes=[], n=[])

    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TransitionMatrix([[0.5, 0.4], [0.5, 0.5]])

    def test_all_zero_row_rejected(self):
        with pytest.raises(ValueError, match="rows must sum to 1"):
            TransitionMatrix([[1.0, 0.0], [0.0, 0.0]])

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            TransitionMatrix([[1.1, -0.1], [0.5, 0.5]])
