import warnings

import numpy as np
import pytest
from conftest import cesaro_loop_oracle, int_seq, random_stochastic
from hypothesis import given, settings
from hypothesis import strategies as st

from entrate import (
    ProbabilityVector,
    ReducibleMatrixError,
    Sequence,
    TransitionMatrix,
    count_transitions,
    embed_order,
    entropy_rate,
    estimate_direct,
    estimate_direct_pooled,
    mle_transition_matrix,
    shannon_entropy,
    stationary_eigen,
    stationary_empirical,
    stationary_limit,
)
from entrate.markov import Alphabet, TransitionCounts
from entrate.simulate import benchmark_matrix, simulate_chain

PQ_CHAIN = TransitionMatrix.from_probs([[0.6, 0.4], [0.75, 0.25]])
LOW_TRUE_RATE = -(0.95 * np.log2(0.95) + 0.05 * np.log2(0.05 / 7))


class TestShannonEntropy:
    def test_uniform_eight(self):
        assert shannon_entropy(np.full(8, 0.125)) == pytest.approx(3.0)

    def test_point_mass(self):
        assert shannon_entropy(np.array([1.0, 0.0, 0.0])) == 0.0

    def test_two_point(self):
        # -0.4 log2 0.4 - 0.6 log2 0.6
        assert shannon_entropy(np.array([0.4, 0.6])) == pytest.approx(0.9710, abs=1e-4)


class TestStationaryEmpirical:
    def test_row_totals(self):
        counts = TransitionCounts(kappa=2, dense=np.array([[2, 1], [1, 0]]), sparse=None)
        pi = stationary_empirical(counts)
        assert pi.probs.tolist() == [0.75, 0.25]

    def test_constant_sequence(self):
        pi = stationary_empirical(count_transitions(int_seq([0, 0, 0, 0], kappa=2)))
        assert pi.probs.tolist() == [1.0, 0.0]

    def test_symmetric_two_cycle_simulation(self):
        P = TransitionMatrix.from_probs([[0.1, 0.9], [0.9, 0.1]])
        seq = simulate_chain(P, 20_000, rng=3)
        pi = stationary_empirical(count_transitions(seq))
        assert np.allclose(pi.probs, [0.5, 0.5], atol=0.02)


class TestStationaryEigen:
    def test_two_cycle(self):
        pi = stationary_eigen(TransitionMatrix.from_probs([[0, 1], [1, 0]]))
        assert np.allclose(pi.probs, [0.5, 0.5])

    def test_pq_chain_closed_form(self):
        # pi = (q, p) / (p + q) for p = 0.4, q = 0.75
        pi = stationary_eigen(PQ_CHAIN)
        assert np.allclose(pi.probs, [0.75 / 1.15, 0.4 / 1.15], atol=1e-3)

    def test_doubly_stochastic_uniform(self):
        P = TransitionMatrix.from_probs(
            [[0.2, 0.3, 0.5], [0.5, 0.2, 0.3], [0.3, 0.5, 0.2]]
        )
        assert np.allclose(stationary_eigen(P).probs, 1 / 3)

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            P = random_stochastic(rng, int(rng.integers(2, 9)))
            pi = stationary_eigen(P)
            assert np.max(np.abs(pi.probs @ P.probs - pi.probs)) < 1e-10

    def test_block_diagonal_reducible(self):
        P = TransitionMatrix.from_probs(
            [[0.5, 0.5, 0, 0], [0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5], [0, 0, 0.5, 0.5]]
        )
        with pytest.raises(ReducibleMatrixError, match="reducible transition matrix"):
            stationary_eigen(P)

    def test_undefined_rows_rejected(self):
        P = TransitionMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([True, False]))
        with pytest.raises(ReducibleMatrixError, match="never visited"):
            stationary_eigen(P)


class TestStationaryLimit:
    def test_two_cycle_exact_at_two_steps(self):
        pi = stationary_limit(TransitionMatrix.from_probs([[0, 1], [1, 0]]), steps=2)
        assert pi.probs.tolist() == [0.5, 0.5]

    def test_agrees_with_eigen(self):
        rng = np.random.default_rng(23)
        P = random_stochastic(rng, 4)
        with pytest.warns(UserWarning, match="Cesaro average not converged"):
            pi_limit = stationary_limit(P, steps=10_000)
        pi_eigen = stationary_eigen(P)
        assert np.max(np.abs(pi_limit.probs - pi_eigen.probs)) < 1e-2

    def test_reducible_rejected(self):
        P = TransitionMatrix.from_probs([[1, 0], [0.5, 0.5]])
        with pytest.raises(ReducibleMatrixError):
            stationary_limit(P, steps=10)

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
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pi = stationary_limit(TransitionMatrix.from_probs(probs), steps=steps)
        assert np.max(np.abs(pi.probs - ref)) <= 1e-12
        fired = any("not converged" in str(w.message) for w in caught)
        if drift is None or abs(drift - 1e-6) > 1e-12:
            assert fired == (drift is not None and drift >= 1e-6)

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
        est = entropy_rate(
            TransitionMatrix.from_probs([[0, 1], [1, 0]]), np.array([0.5, 0.5])
        )
        assert est.value == 0.0
        assert est.irreducible is True

    def test_uniform_eight(self):
        P = TransitionMatrix.from_probs(np.full((8, 8), 0.125))
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
        P2 = TransitionMatrix.from_probs(P.probs[perm][:, perm])
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

    def test_zero_weight_undefined_row(self):
        P = TransitionMatrix(
            np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            np.array([True, True, False]),
        )
        est = entropy_rate(P, np.array([0.5, 0.5, 0.0]))
        assert est.value == pytest.approx(0.5)
        assert any("never-visited" in w for w in est.warnings)

    def test_positive_weight_on_undefined_row_rejected(self):
        P = TransitionMatrix(
            np.array([[0.5, 0.5], [0.0, 0.0]]), np.array([True, False])
        )
        with pytest.raises(ValueError, match="positive stationary weight"):
            entropy_rate(P, np.array([0.5, 0.5]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            entropy_rate(PQ_CHAIN, np.array([0.5, 0.25, 0.25]))


class TestEstimateDirect:
    def test_deterministic_alternation(self):
        seq = int_seq([0, 1] * 500, kappa=2)
        est = estimate_direct(seq, order=1, stationary="empirical")
        assert est.value == 0.0
        assert est.method == "direct_empirical"
        assert est.n_obs == 1000
        assert est.irreducible is True

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
        assert est.irreducible is False
        assert any("forced to 0" in w for w in est.warnings)

    def test_limit_method(self):
        P = TransitionMatrix.from_probs([[0.1, 0.9], [0.9, 0.1]])
        seq = simulate_chain(P, 5000, rng=47)
        est_limit = estimate_direct(seq, stationary="limit")
        est_eigen = estimate_direct(seq, stationary="eigen")
        assert est_limit.method == "direct_limit"
        assert est_limit.value == pytest.approx(est_eigen.value, abs=1e-3)

    def test_short_data_warning(self):
        rng = np.random.default_rng(53)
        seq = int_seq(rng.integers(0, 7, 300), kappa=7)
        est = estimate_direct(seq, order=3, stationary="empirical")
        assert any("343" in w for w in est.warnings)

    def test_order_exceeds_length(self):
        with pytest.raises(ValueError, match="insufficient length"):
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

    def test_sparse_eigen_unsupported(self):
        rng = np.random.default_rng(61)
        seq = int_seq(rng.integers(0, 70, 400), kappa=70)
        with pytest.raises(ValueError, match="dense"):
            estimate_direct(seq, order=2, stationary="eigen")

    def test_sparse_all_visited_is_irreducible(self):
        # 65 symbols at m = 2: 4225 composite states, above the dense limit,
        # every one visited; 64 symbols take the dense path.
        for kappa in (65, 64):
            seq = int_seq(np.random.default_rng(0).integers(0, kappa, 200_000), kappa)
            est = estimate_direct(seq, order=2, stationary="empirical")
            assert est.irreducible is True
            assert not any("never-visited" in w for w in est.warnings)

    @settings(deadline=None)
    @given(st.data())
    def test_empirical_equals_plug_in_through_matrix(self, data):
        kappa = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, 3))
        states = data.draw(st.lists(st.integers(0, kappa - 1), min_size=m + 1, max_size=80))
        seq = int_seq(states, kappa)
        counts = count_transitions(embed_order(seq, m))
        ref = entropy_rate(mle_transition_matrix(counts), stationary_empirical(counts))
        est = estimate_direct(seq, order=m, stationary="empirical")
        assert est.value == pytest.approx(ref.value, abs=1e-12)
        assert est.irreducible == ref.irreducible
        never = [w for w in est.warnings if "never-visited" in w]
        assert never == list(ref.warnings)


class TestEstimateDirectPooled:
    def test_boundary_exclusion(self):
        alphabet = Alphabet.of_size(2)
        seg1 = Sequence(np.array([0, 1, 0, 1]), alphabet)
        seg2 = Sequence(np.array([1, 1, 0, 0]), alphabet)
        pooled = estimate_direct_pooled([seg1, seg2])
        joined = Sequence(np.array([0, 1, 0, 1, 1, 1, 0, 0]), alphabet)
        joined_est = estimate_direct(joined)
        assert pooled.n_obs == joined_est.n_obs == 8
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
