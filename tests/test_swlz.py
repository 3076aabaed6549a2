import tracemalloc
from functools import cache

import numpy as np
import pytest
from conftest import (
    assert_refused,
    int_seq,
    match_lengths_level_oracle,
    naive_novel_length,
    token_seq,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from entrate import (
    Alphabet,
    EstimationError,
    InsufficientDataError,
    Parsing,
    Sequence,
    format_parsing,
    novel_lengths,
    stationary_bootstrap_sample,
    swlz_entropy,
    swlz_parse,
)
from entrate.simulate import benchmark_matrix, simulate_chain
from entrate.swlz import _digits_per_round

TABLE_STRING = "13131213232331313332"


class TestNovelLength:
    def test_worked_example_position_two(self):
        # history "13": "1" and "13" occur, "131" does not.
        nl = novel_lengths(token_seq(TABLE_STRING))
        assert (nl.lengths[2], nl.capped[2]) == (3, False)

    def test_novel_single_symbol(self):
        nl = novel_lengths(token_seq("AB"))
        assert (nl.lengths[1], nl.capped[1]) == (1, False)

    def test_constant_sequence(self):
        nl = novel_lengths(token_seq("AAAA"))
        # One 'A' of history: "AA" is already novel.  From the midpoint on,
        # the whole suffix repeats the history.
        assert nl.lengths[1:].tolist() == [2, 3, 2]
        assert nl.capped[1:].tolist() == [False, True, True]

    def test_position_zero_rejected(self):
        # Position 0 has an empty history: its entry is unused and not
        # counted, and a sequence with no other position is rejected.
        nl = novel_lengths(token_seq("AB"))
        assert (nl.lengths[0], nl.capped[0]) == (0, False)
        assert nl.n_positions == 1
        with pytest.raises(InsufficientDataError, match="at least 2 symbols"):
            novel_lengths(token_seq("A"))

    def test_position_out_of_range(self):
        # One entry per position 0..n-1, none past the end.
        nl = novel_lengths(token_seq("AB"))
        assert nl.lengths.size == nl.capped.size == 2
        with pytest.raises(IndexError):
            nl.lengths[2]

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(71)
        for _ in range(60):
            kappa = int(rng.integers(2, 5))
            n = int(rng.integers(2, 60))
            states = rng.integers(0, kappa, n)
            nl = novel_lengths(int_seq(states, kappa))
            for i in range(1, n):
                assert (nl.lengths[i], nl.capped[i]) == naive_novel_length(states, i)

    def test_length_bounds(self):
        rng = np.random.default_rng(73)
        for _ in range(30):
            n = int(rng.integers(2, 50))
            seq = int_seq(rng.integers(0, 2, n), 2)
            nl = novel_lengths(seq)
            for i in range(1, n):
                assert 1 <= nl.lengths[i] <= (n - i) + 1

    def test_monotone_in_history_length(self):
        # Novelty can only get harder as the history grows.
        rng = np.random.default_rng(79)
        for _ in range(20):
            n = int(rng.integers(4, 40))
            states = rng.integers(0, 3, n)
            i = int(rng.integers(2, n))
            lengths = [
                naive_novel_length(states, i, history_end=h)[0] for h in range(1, i + 1)
            ]
            assert all(b >= a for a, b in zip(lengths, lengths[1:]))


class TestBatchAgreement:
    def test_batch_equals_single_position(self):
        # The one-pass array agrees with a per-position brute-force scan.
        rng = np.random.default_rng(83)
        for _ in range(10):
            n = int(rng.integers(3, 80))
            states = rng.integers(0, 3, n)
            nl = novel_lengths(int_seq(states, 3))
            for i in range(1, n):
                length, capped = naive_novel_length(states, i)
                assert nl.lengths[i] == length
                assert nl.capped[i] == capped

    def test_determinism(self):
        seq = token_seq(TABLE_STRING)
        a, b = novel_lengths(seq), novel_lengths(seq)
        assert np.array_equal(a.lengths, b.lengths)
        assert np.array_equal(a.capped, b.capped)
        assert swlz_parse(seq).phrases == swlz_parse(seq).phrases


class TestParse:
    def test_table_parsing(self):
        seq = token_seq(TABLE_STRING)
        parsing = swlz_parse(seq)
        assert format_parsing(seq, parsing) == "1 | 3 | 131 | 2 | 132 | 323 | 31313 | 332"
        assert not parsing.last_capped

    def test_two_distinct_symbols(self):
        seq = token_seq("AB")
        parsing = swlz_parse(seq)
        assert parsing.phrases == ((0, 1), (1, 1))

    def test_constant_run(self):
        # 'A' is novel, then "AA" (absent from history "A"), then the final
        # 'A' repeats the history and is capped.
        seq = token_seq("AAAA")
        parsing = swlz_parse(seq)
        assert format_parsing(seq, parsing) == "A | AA | A"
        assert parsing.last_capped

    @pytest.mark.parametrize(
        "phrases", [((0, 1), (2, 1)), ((0, 0), (0, 2))], ids=["gap", "empty-phrase"]
    )
    def test_phrases_that_do_not_tile_rejected(self, phrases):
        message = "phrases must tile the sequence contiguously"
        assert_refused(lambda: Parsing(phrases, False), ValueError, message)

    def test_phrases_tile_and_are_novel(self):
        rng = np.random.default_rng(89)
        for _ in range(40):
            n = int(rng.integers(2, 120))
            states = rng.integers(0, int(rng.integers(2, 5)), n)
            seq = int_seq(states, int(states.max()) + 1)
            parsing = swlz_parse(seq)
            text = "".join(chr(65 + int(s)) for s in states)
            pos = 0
            for k, (start, length) in enumerate(parsing.phrases):
                assert start == pos
                pos += length
                is_last = k == len(parsing.phrases) - 1
                phrase = text[start : start + length]
                if not is_last or not parsing.last_capped:
                    assert phrase not in text[:start]
                else:
                    assert phrase in text[:start]
            assert pos == n


class TestSwlzEntropy:
    def test_alternating_matches_oracle(self):
        states = [0, 1] * 500
        seq = int_seq(states, kappa=2)
        est = swlz_entropy(seq)
        total = sum(naive_novel_length(states, i)[0] for i in range(1, 1000))
        expected = np.log2(1000) / (total / 999)
        assert est.value == pytest.approx(expected, abs=1e-12)
        assert 0.0 < est.value < 0.1

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            swlz_entropy(int_seq([0], kappa=1))

    def test_short_sequence_warning_above_log_kappa(self):
        # "ABB": novelty lengths (1, 2) give log2(3)/1.5 > log2(2).
        est = swlz_entropy(token_seq("ABB"))
        assert est.value == pytest.approx(np.log2(3) / 1.5)
        assert est.warnings

    @pytest.mark.parametrize(
        "source, kappa, warns",
        [("AAAA", 1, True), ("AABBABAB", 2, True), ("high", 8, False)],
        ids=["kappa-1", "kappa-2-short", "high-10k"],
    )
    def test_warns_exactly_above_log_kappa(self, source, kappa, warns):
        # One symbol gives a rate of exactly 0, so any positive estimate is
        # above the ceiling log2(1) = 0.
        if source == "high":
            seq = simulate_chain(benchmark_matrix("high"), 10_000, rng=7)
        else:
            seq = token_seq(source)
        assert seq.alphabet.kappa == kappa
        est = swlz_entropy(seq)
        assert (est.value > np.log2(kappa)) == warns
        expected = (
            f"estimate {est.value:.4f} exceeds log2(kappa) = {np.log2(kappa):.4f}; "
            "sequence is too short for a reliable estimate"
        )
        assert est.warnings == ((expected,) if warns else ())

    def test_iid_uniform_below_ceiling(self):
        rng = np.random.default_rng(97)
        seq = int_seq(rng.integers(0, 8, 1000), 8)
        assert swlz_entropy(seq).value < 3.0

    def test_scales_to_ten_thousand_quickly(self):
        import time

        from entrate.simulate import benchmark_matrix, simulate_chain

        seq = simulate_chain(benchmark_matrix("low"), 10_000, rng=101)
        start = time.perf_counter()
        est = swlz_entropy(seq)
        elapsed = time.perf_counter() - start
        assert est.value > 0
        assert elapsed < 5.0


@st.composite
def short_sequences(draw):
    """Symbol lists of length >= 2 over 1-4 symbols, half of them built from
    runs so that constant stretches and long repeats are common."""
    kappa = draw(st.integers(1, 4))
    symbol = st.integers(0, kappa - 1)
    if draw(st.booleans()):
        states = draw(st.lists(symbol, min_size=2, max_size=60))
    else:
        runs = draw(st.lists(st.tuples(symbol, st.integers(1, 16)), min_size=1, max_size=6))
        states = [s for s, run in runs for _ in range(run)]
    if len(states) < 2:
        states = states * 2
    return int_seq(states, kappa)


@cache
def _alphabet(kappa: int) -> Alphabet:
    return Alphabet.of_size(kappa)


@st.composite
def stride_sequences(draw):
    """Sequences of 2-600 symbols whose matches take several packed rounds.

    Small alphabets pack 10-59 symbols per round; the sparse ones (a few
    symbols up to kappa - 1 >= 8191) leave room for 2-4.  Runs and repeated
    blocks, with a few point edits, make long matches common.
    """
    kappa = draw(st.sampled_from((1, 2, 3, 8, 9)) | st.sampled_from((8192, 40_000, 131_073)))
    rest = st.lists(st.integers(0, kappa - 1), max_size=min(kappa - 1, 8), unique=True)
    palette = sorted({kappa - 1, *draw(rest)}, reverse=True)
    symbol = st.sampled_from(palette)
    shape = draw(st.sampled_from(("iid", "runs", "blocks")))
    if shape == "iid":
        states = draw(st.lists(symbol, min_size=2, max_size=600))
    elif shape == "runs":
        runs = draw(st.lists(st.tuples(symbol, st.integers(1, 150)), min_size=1, max_size=12))
        states = [s for s, run in runs for _ in range(run)]
    else:
        block = draw(st.lists(symbol, min_size=1, max_size=12))
        states = (block * draw(st.integers(1, 300)))[:600]
        for i, value in draw(st.lists(st.tuples(st.integers(0, 599), symbol), max_size=3)):
            if i < len(states):
                states[i] = value
    if len(states) < 2:
        states = states * 2
    return Sequence(np.asarray(states, dtype=np.int64), _alphabet(kappa))


def expected_novelty(matches):
    """Novelty lengths and capped flags from match lengths (index 0 unused)."""
    n = matches.size
    lengths = matches + 1
    capped = matches == n - np.arange(n)
    lengths[0], capped[0] = 0, False
    return lengths, capped


class TestMatchLengthKernel:
    @settings(deadline=None)
    @given(stride_sequences())
    def test_equals_level_oracle(self, seq):
        # The packed kernel against the one-symbol-per-level loop it replaced.
        lengths, capped = expected_novelty(match_lengths_level_oracle(seq.states))
        nl = novel_lengths(seq)
        assert nl.lengths.dtype.kind == "i"
        assert np.array_equal(nl.lengths, lengths)
        assert np.array_equal(nl.capped, capped)

    def test_equals_level_oracle_at_benchmark_scale(self):
        # The benchmark inputs: 10k high-entropy symbols, three of their
        # stationary resamples (repeated blocks force several rounds) and 10k
        # low-entropy symbols.  10k medium-entropy symbols put rounds on both
        # sides of the share of fully matched rows that gathers the rest, and in
        # 3,000 all-'A' and period-3 symbols nearly every row matches fully in
        # most of their 39 and 79 rounds.
        high = simulate_chain(benchmark_matrix("high"), 10_000, rng=11)
        rng = np.random.default_rng(5)
        resamples = [stationary_bootstrap_sample(high, 0.212, rng) for _ in range(3)]
        low = simulate_chain(benchmark_matrix("low"), 10_000, rng=12)
        medium = simulate_chain(benchmark_matrix("medium"), 10_000, rng=13)
        i = np.arange(3_000)
        constant, periodic = int_seq(i % 1, 1), int_seq(i % 3, 3)
        for seq in (high, *resamples, low, medium, constant, periodic):
            lengths, capped = expected_novelty(match_lengths_level_oracle(seq.states))
            nl = novel_lengths(seq)
            assert np.array_equal(nl.lengths, lengths)
            assert np.array_equal(nl.capped, capped)

    @pytest.mark.parametrize("kappa", [1, 2, 3, 4, 5, 8, 9, 16, 17, 33, 64])
    def test_equals_level_oracle_on_every_short_length(self, kappa):
        # Every n = 2..40: inputs shorter than the s symbols packed per round
        # (s = 7-59 here; kappa 33 and 64 give s = 7, 8 and 9, and s = 7 joins
        # three runs) or than a power-of-two run of them, and odd s.  One
        # symbol of each draw is renamed kappa - 1, so the kernel packs kappa
        # values and runs and periods survive.
        rng = np.random.default_rng(1998 + kappa)
        for n in range(2, 41):
            iid = rng.integers(0, kappa, n)
            runs = np.repeat(rng.integers(0, kappa, n), rng.integers(1, 6, n))[:n]
            periodic = np.resize(rng.integers(0, kappa, rng.integers(1, 6)), n)
            for states in (iid, runs, periodic):
                states[states == states[rng.integers(n)]] = kappa - 1
                lengths, capped = expected_novelty(match_lengths_level_oracle(states))
                nl = novel_lengths(int_seq(states, kappa))
                assert np.array_equal(nl.lengths, lengths), (n, states.tolist())
                assert np.array_equal(nl.capped, capped), (n, states.tolist())

    def test_digits_per_round(self):
        # A class id and a position of n.bit_length() bits each, plus s digits.
        assert _digits_per_round(10_000, 8) == 8
        assert _digits_per_round(100_000, 4096) == 2
        assert _digits_per_round(2**26, 511) == 1
        for n, kappa in ((2**26, 512), (2**27, 1000)):
            with pytest.raises(EstimationError, match=f"n = {n} .* kappa = {kappa} "):
                _digits_per_round(n, kappa)

    @pytest.mark.parametrize("n", [2047, 2048, 3000, 4095, 4096])
    @pytest.mark.parametrize("period", [1, 2, 3, 7])
    def test_periodic_closed_form(self, n, period):
        # x[i] = i mod p first repeats at i = p; from there the longest
        # earlier copy starts at i mod p and must end by i (or by n).
        # n = 2047 -> 2048 changes the symbols packed per round for p = 1-3,
        # and n = 4095 -> 4096 for every p here.
        i = np.arange(n)
        expected = np.where(i < period, 0, np.minimum(i - i % period, n - i))
        lengths, capped = expected_novelty(expected)
        nl = novel_lengths(int_seq(i % period, period))
        assert np.array_equal(nl.lengths, lengths)
        assert np.array_equal(nl.capped, capped)

    @settings(deadline=None)
    @given(short_sequences())
    def test_equals_oracle(self, seq):
        states = seq.states.tolist()
        nl = novel_lengths(seq)
        assert nl.lengths[0] == 0 and not nl.capped[0]
        for i in range(1, seq.length):
            assert (int(nl.lengths[i]), bool(nl.capped[i])) == naive_novel_length(states, i)

    @settings(deadline=None)
    @given(short_sequences())
    def test_cut_equals_fresh_prefix(self, seq):
        full = novel_lengths(seq)
        for n in range(2, seq.length + 1):
            cut, fresh = full.cut(n), novel_lengths(seq.prefix(n))
            assert np.array_equal(cut.lengths, fresh.lengths)
            assert np.array_equal(cut.capped, fresh.capped)

    @settings(deadline=None)
    @given(short_sequences())
    def test_parse_agrees_with_novel_lengths(self, seq):
        nl = novel_lengths(seq)
        parsing = swlz_parse(seq)
        assert parsing.phrases[0] == (0, 1)
        for start, length in parsing.phrases[1:]:
            if nl.capped[start]:
                assert length == nl.lengths[start] - 1 == seq.length - start
            else:
                assert length == nl.lengths[start]
        last = parsing.phrases[-1][0]
        assert parsing.last_capped == (last > 0 and bool(nl.capped[last]))

    def test_cut_bounds(self):
        full = novel_lengths(token_seq(TABLE_STRING))
        with pytest.raises(InsufficientDataError, match="at least 2"):
            full.cut(1)
        with pytest.raises(ValueError, match="longer"):
            full.cut(len(TABLE_STRING) + 1)

    def test_memory_is_linear_in_n_for_large_alphabets(self):
        # 1e5 Zipf symbols over thousands of distinct values: a table indexed
        # by (class, symbol) would need hundreds of MB here.
        raw = np.random.default_rng(2008).zipf(1.4, 100_000)
        _, states = np.unique(raw, return_inverse=True)
        seq = int_seq(states, int(states.max()) + 1)
        assert seq.alphabet.kappa >= 3000
        tracemalloc.start()
        try:
            novel_lengths(seq)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"
