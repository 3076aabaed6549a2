import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import (
    assert_refused,
    cesaro_loop_oracle,
    entropy_rate_loop_oracle,
    flow_defect_oracle,
    int_seq,
    random_stochastic,
    stationary_eig_oracle,
    strongly_connected_oracle,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entrate import (
    InsufficientDataError,
    ProbabilityVector,
    ReducibleMatrixError,
    Sequence,
    StateSpaceError,
    TransitionMatrix,
    count_transitions,
    embed_order,
    entropy_rate,
    estimate_direct,
    estimate_direct_pooled,
    mle_transition_matrix,
    stationary_eigen,
    stationary_empirical,
    stationary_limit,
)
from entrate.markov import Alphabet, TransitionCounts
from entrate.simulate import benchmark_matrix, simulate_chain

PQ_CHAIN = TransitionMatrix([[0.6, 0.4], [0.75, 0.25]])
LOW_TRUE_RATE = -(0.95 * np.log2(0.95) + 0.05 * np.log2(0.05 / 7))


class TestStationaryEmpirical:
    def test_row_totals(self):
        counts = TransitionCounts(kappa=2, codes=[0, 1, 2], n=[2, 1, 1])
        pi = stationary_empirical(counts)
        assert pi.probs.tolist() == [0.75, 0.25]

    def test_constant_sequence(self):
        pi = stationary_empirical(count_transitions(int_seq([0, 0, 0, 0], kappa=2)))
        assert pi.probs.tolist() == [1.0, 0.0]

    def test_symmetric_two_cycle_simulation(self):
        P = TransitionMatrix([[0.1, 0.9], [0.9, 0.1]])
        seq = simulate_chain(P, 20_000, rng=3)
        pi = stationary_empirical(count_transitions(seq))
        assert np.allclose(pi.probs, [0.5, 0.5], atol=0.02)

    def test_zero_transitions_rejected(self):
        assert_refused(
            lambda: stationary_empirical(TransitionCounts(2, [], [])),
            ValueError,
            "cannot estimate stationary distribution from zero transitions",
        )


class TestStationaryEigen:
    def test_two_cycle(self):
        pi = stationary_eigen(TransitionMatrix([[0, 1], [1, 0]]))
        assert np.allclose(pi.probs, [0.5, 0.5])

    def test_pq_chain_closed_form(self):
        # pi = (q, p) / (p + q) for p = 0.4, q = 0.75
        pi = stationary_eigen(PQ_CHAIN)
        assert np.allclose(pi.probs, [0.75 / 1.15, 0.4 / 1.15], atol=1e-3)

    def test_doubly_stochastic_uniform(self):
        P = TransitionMatrix([[0.2, 0.3, 0.5], [0.5, 0.2, 0.3], [0.3, 0.5, 0.2]])
        assert np.allclose(stationary_eigen(P).probs, 1 / 3)

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            P = random_stochastic(rng, int(rng.integers(2, 9)))
            pi = stationary_eigen(P)
            assert np.max(np.abs(pi.probs @ P.probs - pi.probs)) < 1e-10

    def test_block_diagonal_reducible(self):
        P = TransitionMatrix(
            [[0.5, 0.5, 0, 0], [0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5], [0, 0, 0.5, 0.5]]
        )
        with pytest.raises(ReducibleMatrixError, match="reducible transition matrix"):
            stationary_eigen(P)

    def test_transient_state_feeding_two_closed_classes_rejected(self):
        P = TransitionMatrix([[0.2, 0.5, 0.3], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(ReducibleMatrixError, match="reducible transition matrix"):
            stationary_eigen(P)

    def test_transient_state_feeding_one_closed_class_has_zero_weight(self):
        P = TransitionMatrix([[0.5, 0.5, 0], [0, 0.3, 0.7], [0, 0.6, 0.4]])
        pi = stationary_eigen(P)
        assert pi.probs[0] == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(pi.probs[1:], [6 / 13, 7 / 13], atol=1e-15)

    def test_nearly_decomposable_chain_solved(self):
        # Irreducible through a 1e-10 cross link: the former eigenvalue count
        # saw a unit eigenvalue of multiplicity 2 and refused it; the solve
        # returns pi to the accuracy the conditioning allows (~2e-8 here).
        eps = 1e-10
        P = TransitionMatrix([[1 - eps, eps], [eps, 1 - eps]])
        with pytest.raises(ReducibleMatrixError, match="multiplicity 2"):
            stationary_eig_oracle(P)
        assert np.allclose(stationary_eigen(P).probs, [0.5, 0.5], rtol=0, atol=1e-6)

    def test_solve_off_the_fixed_point_refused(self, monkeypatch):
        # No input was found whose solve misses pi P = pi: chains with blocks
        # coupled down to 1e-15 all pass.  A solve that is 1e-6 off on two
        # entries stands in for one.
        solve = np.linalg.solve

        def off(A, b):
            pi = solve(A, b)
            pi[:2] += [1e-6, -1e-6]
            return pi

        monkeypatch.setattr(np.linalg, "solve", off)
        assert_refused(
            lambda: stationary_eigen(benchmark_matrix("medium")),
            ReducibleMatrixError,
            "reducible transition matrix: stationary fixed point not attained",
        )

    def test_no_eigendecomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigendecomposition called")

        monkeypatch.setattr(np.linalg, "eig", refuse)
        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        assert np.allclose(stationary_eigen(PQ_CHAIN).probs, [0.75 / 1.15, 0.4 / 1.15])
        seq = simulate_chain(PQ_CHAIN, 2_000, rng=3, init=0)
        assert estimate_direct(seq, order=2, stationary="eigen").value > 0.0

    @settings(deadline=None, max_examples=300)
    @given(
        st.integers(1, 16),
        st.sampled_from(["dense", "sparse", "cycle", "classes"]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_eig_oracle(self, k, shape, seed):
        # Rows from integer weights 0-9, so positive entries are >= 1/144.
        # "cycle" is a periodic k-cycle; "classes" keeps label-0 states
        # transient and closes every other label on itself, so it yields
        # transient states feeding one or several closed classes.
        rng = np.random.default_rng(seed)
        weights = rng.integers(0, 10, size=(k, k))
        if shape == "sparse":
            weights *= rng.random((k, k)) < 0.3
        elif shape == "cycle":
            cycle = rng.permutation(k)
            weights = np.zeros((k, k), dtype=np.int64)
            weights[cycle, np.roll(cycle, 1)] = rng.integers(1, 10, size=k)
        elif shape == "classes":
            labels = rng.integers(0, 4, size=k)
            weights *= (labels[:, None] == labels[None, :]) | (labels[:, None] == 0)
        empty = weights.sum(axis=1) == 0
        weights[empty, np.flatnonzero(empty)] = 1
        P = TransitionMatrix(weights / weights.sum(axis=1, keepdims=True))
        try:
            expected = stationary_eig_oracle(P)
        except ReducibleMatrixError:
            with pytest.raises(ReducibleMatrixError, match="reducible transition matrix"):
                stationary_eigen(P)
            return
        assert np.max(np.abs(stationary_eigen(P).probs - expected)) <= 1e-12


class TestStationaryLimit:
    def test_two_cycle_exact_at_two_steps(self):
        pi, _ = stationary_limit(TransitionMatrix([[0, 1], [1, 0]]), steps=2)
        assert pi.probs.tolist() == [0.5, 0.5]

    def test_agrees_with_eigen(self):
        rng = np.random.default_rng(23)
        P = random_stochastic(rng, 4)
        pi_limit, note = stationary_limit(P, steps=10_000)
        assert "Cesaro average not converged" in note
        pi_eigen = stationary_eigen(P)
        assert np.max(np.abs(pi_limit.probs - pi_eigen.probs)) < 1e-2

    def test_reducible_rejected(self):
        P = TransitionMatrix([[1, 0], [0.5, 0.5]])
        with pytest.raises(ReducibleMatrixError):
            stationary_limit(P, steps=10)

    def test_zero_steps_rejected(self):
        P = TransitionMatrix([[0, 1], [1, 0]])
        assert_refused(lambda: stationary_limit(P, steps=0), ValueError, "steps must be >= 1")

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(1, 16),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
        st.one_of(st.integers(1, 5000), st.sampled_from([1, 2, 3, 4, 100_000])),
    )
    def test_doubling_matches_step_loop(self, k, density, seed, steps):
        # Random support plus one random k-cycle: irreducible, and periodic
        # when the support adds nothing to the cycle.
        rng = np.random.default_rng(seed)
        cycle = rng.permutation(k)
        support = rng.random((k, k)) < density
        support[cycle, np.roll(cycle, 1)] = True
        raw = np.where(support, rng.gamma(1.0, 1.0, (k, k)) + 1e-3, 0.0)
        probs = raw / raw.sum(axis=1, keepdims=True)
        ref, drift = cesaro_loop_oracle(probs, steps)
        pi, note = stationary_limit(TransitionMatrix(probs), steps=steps)
        assert np.max(np.abs(pi.probs - ref)) <= 1e-12
        fired = "not converged" in note
        if drift is None or abs(drift - 1e-6) > 1e-12:
            assert fired == (drift is not None and drift >= 1e-6)

    def test_every_step_count_to_64_matches_step_loop(self):
        # N = 1..64 takes the N//2 average before the last of 0 to 5 doubling
        # digits, in every pattern of them; N < 4 measures no drift.
        chains = (
            np.array([[0.0, 1.0], [1.0, 0.0]]),
            np.roll(np.eye(3), 1, axis=1),
            random_stochastic(np.random.default_rng(23), 4).probs,
        )
        for probs in chains:
            for steps in range(1, 65):
                ref, drift = cesaro_loop_oracle(probs, steps)
                pi, note = stationary_limit(TransitionMatrix(probs), steps=steps)
                assert np.max(np.abs(pi.probs - ref)) <= 1e-12, steps
                fired = "not converged" in note
                if drift is None or abs(drift - 1e-6) > 1e-12:
                    assert fired == (drift is not None and drift >= 1e-6), steps

    def test_unconverged_note_reaches_the_estimate(self):
        seq = simulate_chain(benchmark_matrix("medium"), 10_000, rng=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_direct(seq, order=2, stationary="limit")
        notes = [w for w in est.warnings if "not converged after 100000 steps" in w]
        assert len(notes) == 1
        assert "drift" in notes[0]


class TestEntropyRate:
    def test_deterministic_transitions(self):
        est = entropy_rate(TransitionMatrix([[0, 1], [1, 0]]), np.array([0.5, 0.5]))
        assert est.value == 0.0

    def test_uniform_eight(self):
        P = TransitionMatrix(np.full((8, 8), 0.125))
        est = entropy_rate(P, np.full(8, 0.125))
        assert est.value == pytest.approx(3.0)

    def test_pq_chain_value(self):
        est = entropy_rate(PQ_CHAIN, stationary_eigen(PQ_CHAIN))
        assert est.value == pytest.approx(0.915, abs=1e-3)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(29)
        P = random_stochastic(rng, 5)
        pi = stationary_eigen(P)
        perm = rng.permutation(5)
        P2 = TransitionMatrix(P.probs[perm][:, perm])
        pi2 = ProbabilityVector(pi.probs[perm])
        assert entropy_rate(P, pi).value == pytest.approx(
            entropy_rate(P2, pi2).value, abs=1e-12
        )

    def test_bounds_over_random_matrices(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            k = int(rng.integers(2, 7))
            P = random_stochastic(rng, k, floor=0.0)
            value = entropy_rate(P, stationary_eigen(P)).value
            assert 0.0 <= value <= np.log2(k) + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            entropy_rate(PQ_CHAIN, np.array([0.5, 0.25, 0.25]))

    @settings(deadline=None)
    @given(st.integers(1, 8), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_matches_row_loop_oracle(self, k, density, seed):
        # Sparse full rows; some rows get zero weight.
        rng = np.random.default_rng(seed)
        raw = np.where(rng.random((k, k)) < density, rng.gamma(1.0, 1.0, (k, k)), 0.0)
        raw[np.arange(k), rng.integers(0, k, k)] += 1e-3
        probs = raw / raw.sum(axis=1, keepdims=True)
        weights = np.where(rng.random(k) < 0.8, rng.random(k), 0.0)
        weights[rng.integers(0, k)] += 1e-3
        weights /= weights.sum()
        P = TransitionMatrix(probs)
        est = entropy_rate(P, weights)
        assert est.value == pytest.approx(entropy_rate_loop_oracle(probs, weights), abs=1e-12)
        assert est.warnings == ()


class TestEstimateDirect:
    def test_deterministic_alternation(self):
        seq = int_seq([0, 1] * 500, kappa=2)
        est = estimate_direct(seq, order=1, stationary="empirical")
        assert est.value == 0.0

    def test_low_entropy_simulation(self):
        P = benchmark_matrix("low")
        seq = simulate_chain(P, 10_000, rng=37)
        est = estimate_direct(seq, order=1, stationary="empirical")
        assert est.value == pytest.approx(LOW_TRUE_RATE, abs=0.05)

    def test_short_iid_underestimates(self):
        rng = np.random.default_rng(41)
        seq = int_seq(rng.integers(0, 8, 50), kappa=8)
        est = estimate_direct(seq, order=1, stationary="empirical")
        assert est.value < 3.0

    def test_eigen_matches_empirical_on_long_sequences(self):
        # max|pi_emp - pi_eig| < 0.01 at n = 5000 for all three benchmarks.
        rng = np.random.default_rng(43)
        for kind in ("low", "medium", "high"):
            P = benchmark_matrix(kind)
            for _ in range(5):
                seq = simulate_chain(P, 5000, rng=rng)
                counts = count_transitions(seq)
                pi_emp = stationary_empirical(counts)
                from entrate import mle_transition_matrix

                pi_eig = stationary_eigen(mle_transition_matrix(counts))
                assert np.max(np.abs(pi_emp.probs - pi_eig.probs)) < 0.01

    def test_reducible_eigen_raises_by_default(self):
        seq = int_seq([0] * 50 + [1], kappa=2)
        with pytest.raises(ReducibleMatrixError):
            estimate_direct(seq, order=1, stationary="eigen")

    def test_reducible_eigen_paper_zero_mode(self):
        seq = int_seq([0] * 50 + [1], kappa=2)
        est = estimate_direct(seq, order=1, stationary="eigen", paper_zero_mode=True)
        assert est.value == 0.0
        assert any("forced to 0" in w for w in est.warnings)

    # A never-visited row fails in mle_transition_matrix, a matrix that is
    # not strongly connected in stationary_limit.
    REDUCIBLE_LIMIT = pytest.mark.parametrize(
        "states, message",
        [
            ([0] * 50 + [1], "reducible transition matrix: 1 row(s) never visited"),
            ([0, 0, 0, 1, 1, 1], "reducible transition matrix"),
        ],
        ids=["never-visited-row", "not-strongly-connected"],
    )

    @REDUCIBLE_LIMIT
    def test_reducible_limit_raises_by_default(self, states, message):
        with pytest.raises(ReducibleMatrixError) as info:
            estimate_direct(int_seq(states, kappa=2), order=1, stationary="limit")
        assert str(info.value) == message

    @REDUCIBLE_LIMIT
    def test_reducible_limit_paper_zero_mode(self, states, message):
        seq = int_seq(states, kappa=2)
        est = estimate_direct(seq, order=1, stationary="limit", paper_zero_mode=True)
        assert est.value == 0.0
        assert est.warnings == (f"{message}; estimate forced to 0",)

    @settings(deadline=None)
    @given(st.data())
    def test_eigen_and_limit_match_row_loop_oracle(self, data):
        # pi from the MLE matrix through the public solvers, the rate by the
        # per-row loop; reducible counts must fail the same way.
        kappa = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, 2))
        states = data.draw(st.lists(st.integers(0, kappa - 1), min_size=m + 1, max_size=60))
        stationary = data.draw(st.sampled_from(["eigen", "limit"]))
        seq = int_seq(states, kappa)
        solve = stationary_eigen if stationary == "eigen" else lambda P: stationary_limit(P)[0]
        try:
            P = mle_transition_matrix(count_transitions(embed_order(seq, m)))
            pi = solve(P)
        except ReducibleMatrixError:
            with pytest.raises(ReducibleMatrixError):
                estimate_direct(seq, order=m, stationary=stationary)
            return
        est = estimate_direct(seq, order=m, stationary=stationary)
        assert est.value == pytest.approx(entropy_rate_loop_oracle(P.probs, pi.probs), abs=1e-12)

    def test_limit_method(self):
        P = TransitionMatrix([[0.1, 0.9], [0.9, 0.1]])
        seq = simulate_chain(P, 5000, rng=47)
        est_limit = estimate_direct(seq, stationary="limit")
        est_eigen = estimate_direct(seq, stationary="eigen")
        assert est_limit.value == pytest.approx(est_eigen.value, abs=1e-3)

    def test_short_data_warning(self):
        rng = np.random.default_rng(53)
        seq = int_seq(rng.integers(0, 7, 300), kappa=7)
        est = estimate_direct(seq, order=3, stationary="empirical")
        assert any("343" in w for w in est.warnings)

    def test_order_exceeds_length(self):
        with pytest.raises(InsufficientDataError, match="insufficient length"):
            estimate_direct(int_seq([0, 1], kappa=2), order=2)

    def test_sparse_empirical_matches_manual_arithmetic(self):
        rng = np.random.default_rng(59)
        seq = int_seq(rng.integers(0, 70, 400), kappa=70)
        est = estimate_direct(seq, order=2, stationary="empirical")
        # Independent tally over observed pairs.
        from collections import Counter

        states = seq.states.tolist()
        pairs = list(zip(states, states[1:]))
        trip = Counter(zip(pairs, pairs[1:]))
        row_tot = Counter(p for p, _ in trip.elements())
        grand = sum(trip.values())
        expected = 0.0
        for src in row_tot:
            row = np.array([n for (a, _), n in trip.items() if a == src], float)
            p = row / row.sum()
            expected += (row_tot[src] / grand) * -(p * np.log2(p)).sum()
        assert est.value == pytest.approx(expected, abs=1e-12)

    def test_order_ten_over_eight_symbols_runs_and_eleven_fails(self):
        # 8**10 = 2**30 composite states: the empirical estimate reads only
        # the observed transitions.  At 8**11 their codes would overflow int64.
        P = benchmark_matrix("low")
        seq = simulate_chain(P, 3000, rng=np.random.default_rng(10))
        est = estimate_direct(seq, order=10, stationary="empirical")
        from collections import Counter

        states = seq.states.tolist()
        windows = [tuple(states[t : t + 10]) for t in range(3000 - 9)]
        pairs = Counter(zip(windows, windows[1:]))
        row_tot = Counter(w for w, _ in pairs.elements())
        expected = sum(
            -(n / 2990) * np.log2(n / row_tot[w]) for (w, _), n in pairs.items()
        )
        assert 0.0 < est.value == pytest.approx(expected, abs=1e-12)
        with pytest.raises(StateSpaceError, match=r"8\*\*11 states overflow int64"):
            estimate_direct(seq, order=11, stationary="empirical")

    def test_sparse_eigen_unsupported(self):
        rng = np.random.default_rng(61)
        seq = int_seq(rng.integers(0, 70, 400), kappa=70)
        with pytest.raises(StateSpaceError, match="dense"):
            estimate_direct(seq, order=2, stationary="eigen")

    def test_sparse_all_visited_is_irreducible(self):
        # 65 symbols at m = 2: 4225 composite states, above the dense limit,
        # every one visited; 64 symbols give 4096, just inside it.  Either way
        # the estimate's memory follows the 200k transitions, not K**2.
        for kappa in (65, 64):
            seq = int_seq(np.random.default_rng(0).integers(0, kappa, 200_000), kappa)
            tracemalloc.start()
            try:
                est = estimate_direct(seq, order=2, stationary="empirical")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert not any("never-visited" in w for w in est.warnings)
            assert peak < 16 * 2**20, f"{kappa} symbols: traced peak {peak / 2**20:.1f} MB"

    def test_memory_follows_observed_transitions(self):
        # 5,000 distinct tokens at m = 2: 25 M composite states, of which the
        # 4,998 observed transitions visit 4,998; a K-length int64 array
        # would take 200 MB.
        seq = int_seq(np.random.default_rng(1).permutation(5000), 5000)
        tracemalloc.start()
        try:
            est = estimate_direct(seq, order=2, stationary="empirical")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert est.value == 0.0
        assert f"{5000**2 - 4998} never-visited state(s) carry zero stationary weight" in est.warnings
        assert peak < 4 * 2**20, f"traced peak {peak / 2**20:.2f} MB"

    def test_order_four_rejections_read_the_counts(self):
        # 10k `medium` symbols at m = 4 visit 1,197 of 4,096 states, so eigen
        # and limit must fail; they do so from the counts, before the 128 MB
        # MLE matrix exists.
        seq = simulate_chain(benchmark_matrix("medium"), 10_000, rng=5)
        for stationary, message in [
            ("eigen", "reducible transition matrix: 2899 row(s) never visited"),
            ("limit", "reducible transition matrix: 2899 row(s) never visited"),
        ]:
            tracemalloc.start()
            try:
                with pytest.raises(ReducibleMatrixError) as info:
                    estimate_direct(seq, order=4, stationary=stationary)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert str(info.value) == message
            assert peak < 4 * 2**20, f"{stationary}: traced peak {peak / 2**20:.2f} MB"

    @settings(deadline=None)
    @given(st.data())
    def test_empirical_equals_plug_in_through_matrix(self, data):
        kappa = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, 3))
        states = data.draw(st.lists(st.integers(0, kappa - 1), min_size=m + 1, max_size=80))
        seq = int_seq(states, kappa)
        # Never-visited states stay: their empty rows carry zero weight.
        table = count_transitions(embed_order(seq, m)).dense
        totals = table.sum(axis=1)
        probs = table / np.maximum(totals, 1)[:, None]
        est = estimate_direct(seq, order=m, stationary="empirical")
        assert est.value == pytest.approx(
            entropy_rate_loop_oracle(probs, totals / totals.sum()), abs=1e-12
        )
        n_never = int((totals == 0).sum())
        note = f"{n_never} never-visited state(s) carry zero stationary weight"
        assert [w for w in est.warnings if "never-visited" in w] == ([note] if n_never else [])


class TestEstimateDirectPooled:
    def test_boundary_exclusion(self):
        alphabet = Alphabet.of_size(2)
        seg1 = Sequence(np.array([0, 1, 0, 1]), alphabet)
        seg2 = Sequence(np.array([1, 1, 0, 0]), alphabet)
        pooled = estimate_direct_pooled([seg1, seg2])
        joined = Sequence(np.array([0, 1, 0, 1, 1, 1, 0, 0]), alphabet)
        joined_est = estimate_direct(joined)
        # The short-data warning counts both segments' symbols: 8 <= 2**3.
        pooled_order_3 = estimate_direct_pooled([seg1, seg2], order=3)
        assert (
            "sequence length 8 <= kappa^m = 8; order-3 direct estimates are unreliable"
            in pooled_order_3.warnings
        )
        # The pooled estimate skips the boundary 1->1 transition.
        assert pooled.value != pytest.approx(joined_est.value)

    def test_single_segment_matches_plain(self):
        seq = int_seq([0, 1, 1, 0, 1, 0, 0, 1], kappa=2)
        assert estimate_direct_pooled([seq]).value == pytest.approx(
            estimate_direct(seq).value
        )

    def test_mixed_alphabets_rejected(self):
        a = Sequence(np.array([0, 1]), Alphabet.of_size(2))
        b = Sequence(np.array([0, 1]), Alphabet.of_size(3))
        with pytest.raises(ValueError, match="share"):
            estimate_direct_pooled([a, b])

    def test_unknown_stationary_method_rejected(self):
        seq = int_seq([0, 1, 1, 0, 1, 0, 0, 1], kappa=2)
        with pytest.raises(ValueError, match="unknown stationary method 'bogus'"):
            estimate_direct_pooled([seq], 1, "bogus")

    @pytest.mark.parametrize(
        "seq, order, message",
        [
            (int_seq([0, 1, 1, 0], kappa=2), 0, "order must be >= 1"),
            (
                embed_order(int_seq([0, 1, 1, 0], kappa=2), 2),
                1,
                "direct estimates expect base-alphabet sequences",
            ),
        ],
        ids=["order-0", "composite-alphabet"],
    )
    def test_invalid_arguments_rejected(self, seq, order, message):
        assert_refused(lambda: estimate_direct(seq, order=order), ValueError, message)


@st.composite
def segment_sets(draw, shape):
    """(segments, order) over 1-3 symbols at orders 1-3: one segment whose
    last window is its first ("closed"), one open segment, or 2-3 pooled
    segments, each from a chain that repeats its last symbol with a drawn
    probability and otherwise draws uniformly."""
    kappa = draw(st.integers(2 if shape == "open" else 1, 3))
    m = draw(st.integers(1, 3))
    k = kappa**m
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stay = draw(st.sampled_from([0.0, 0.3, 0.6]))
    alphabet = Alphabet.of_size(kappa)
    segments = []
    for _ in range(draw(st.integers(2, 3)) if shape == "pooled" else 1):
        n = draw(st.integers(10 * k, 40 * k)) + m
        held = np.where(rng.random(n) < stay, 0, np.arange(n))
        states = rng.integers(0, kappa, n)[np.maximum.accumulate(held)]
        if shape == "closed":
            states = np.concatenate([states, states[:m]])
        segments.append(Sequence(states, alphabet))
    if shape == "open":
        assume(not np.array_equal(states[:m], states[-m:]))
    return segments, m


class TestFlowDefect:
    """Eigen's weights against the flow-defect oracle, which shares nothing
    with the bordered solve: they differ from the empirical weights only
    through where the segments start and end."""

    @staticmethod
    def solved(segments, m):
        """Eigen's pi, the oracle's (pi, mu) and the row totals, for counts
        that visit every state along a strongly connected support."""
        walks = [embed_order(seg, m) for seg in segments]
        k = walks[0].alphabet.kappa
        totals = np.bincount(np.concatenate([w.states[:-1] for w in walks]), minlength=k)
        assume(totals.all())
        P = mle_transition_matrix(count_transitions(*walks))
        assume(strongly_connected_oracle(P.probs))
        firsts = [int(w.states[0]) for w in walks]
        lasts = [int(w.states[-1]) for w in walks]
        oracle_pi, mu = flow_defect_oracle(P.probs, totals, firsts, lasts)
        return stationary_eigen(P).probs, oracle_pi, mu, totals

    @settings(deadline=None)
    @given(segment_sets("closed"))
    def test_closed_walk_eigen_equals_empirical(self, case):
        (seq,), m = case
        pi, oracle_pi, mu, totals = self.solved([seq], m)
        assert not mu.any()
        assert np.max(np.abs(pi - totals / totals.sum())) <= 1e-12
        eigen = estimate_direct(seq, order=m, stationary="eigen").value
        empirical = estimate_direct(seq, order=m, stationary="empirical").value
        assert abs(eigen - empirical) <= 1e-12

    @settings(deadline=None)
    @given(st.one_of(segment_sets("open"), segment_sets("pooled")))
    def test_open_and_pooled_walks_match_the_oracle(self, case):
        segments, m = case
        pi, oracle_pi, mu, totals = self.solved(segments, m)
        assert np.max(np.abs(pi - oracle_pi)) <= 1e-12
        # The end effect read off eigen's own pi, as a share of N + sum(mu).
        scale = totals.sum() + mu.sum()
        assert np.min(pi - totals / scale) >= -1e-12
