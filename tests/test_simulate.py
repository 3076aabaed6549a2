import numpy as np
import pytest
from conftest import random_stochastic, simulate_chain_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entrate import (
    EstimatorSpec,
    ReducibleMatrixError,
    ReparamPoint,
    SecondOrderParams,
    StateSpaceError,
    TransitionMatrix,
    benchmark_matrix,
    entropy_rate,
    entropy_surface,
    estimate_direct,
    first_order_projection,
    gamma_bound,
    phi_bound,
    reparam_to_abcd,
    run_experiment,
    second_order_entropy,
    second_order_matrix,
    second_order_stationary,
    simulate_chain,
    simulate_second_order,
    stationary_eigen,
    swlz_entropy,
)
from entrate.markov import DENSE_STATE_LIMIT
from entrate.simulate import _WALK_BLOCK, ExperimentPlan

CASE_I = ReparamPoint(p=0.4, q=0.75, phi=-0.75, gamma=0.2 / 0.75 - 1.0)
CASE_II = ReparamPoint(p=0.4, q=0.75, phi=0.3, gamma=0.95 / 0.75 - 1.0)


class TestSimulateChain:
    def test_deterministic_cycle(self):
        P = TransitionMatrix([[0, 1], [1, 0]])
        seq = simulate_chain(P, 4, init=0, rng=1)
        assert seq.states.tolist() == [0, 1, 0, 1]

    def test_identity_constant(self):
        P = TransitionMatrix(np.eye(3))
        seq = simulate_chain(P, 5, init=2, rng=1)
        assert seq.states.tolist() == [2] * 5

    def test_identity_stationary_init_rejected(self):
        P = TransitionMatrix(np.eye(2))
        with pytest.raises(ReducibleMatrixError):
            simulate_chain(P, 5, rng=1)

    def test_stationary_frequencies(self):
        P = TransitionMatrix([[0.6, 0.4], [0.75, 0.25]])
        seq = simulate_chain(P, 100_000, rng=7)
        freq = np.bincount(seq.states, minlength=2) / seq.length
        assert np.allclose(freq, [0.75 / 1.15, 0.4 / 1.15], atol=0.01)

    def test_determinism(self):
        P = benchmark_matrix("medium")
        a = simulate_chain(P, 100, rng=3)
        b = simulate_chain(P, 100, rng=3)
        assert np.array_equal(a.states, b.states)

    @settings(deadline=None)
    @given(
        st.integers(1, 12),
        st.sampled_from(["weights", "flat"]),
        st.sampled_from(["stationary", "state", "vector"]),
        st.one_of(
            st.integers(1, 3),
            st.sampled_from([k * _WALK_BLOCK + d for k in (1, 2) for d in (0, 1, 2)]),
        ),
        st.integers(0, 2**32 - 1),
    )
    @example(10, "flat", "state", _WALK_BLOCK + 1, 0)
    def test_equals_step_oracle(self, k, shape, init_kind, n, seed):
        # "weights" rows come from integer weights 0-9 with zeros; "flat" rows
        # spread equal mass over a random support, and six, seven or ten
        # equal masses sum to 0.9999999999999999 (the example has two such
        # rows).  The walk runs n - 1 steps, so n = j * _WALK_BLOCK + 1 fills
        # exactly j blocks.
        rng = np.random.default_rng(seed)
        weights = rng.integers(0, 10, size=(k, k)) * (rng.random((k, k)) < 0.6)
        if shape == "flat":
            weights = (weights > 0).astype(np.int64)
        if init_kind == "stationary":
            # A cycle through every state keeps the chain irreducible.
            cycle = rng.permutation(k)
            weights[cycle, np.roll(cycle, 1)] += 1
        empty = weights.sum(axis=1) == 0
        weights[empty, np.flatnonzero(empty)] = 1
        P = TransitionMatrix(weights / weights.sum(axis=1, keepdims=True))
        init = {
            "stationary": None,
            "state": int(rng.integers(0, k)),
            "vector": rng.integers(0, 3, size=k) + (np.arange(k) == 0),
        }[init_kind]
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = simulate_chain(P, n, init=init, rng=got_rng)
        want = simulate_chain_oracle(P, n, init=init, rng=want_rng)
        assert got.states.dtype == np.int64
        assert np.array_equal(got.states, want)
        # Both walks leave the caller's generator at the same position.
        assert got_rng.random() == want_rng.random()


class TestBenchmarkMatrix:
    def test_low_analytic_rate(self):
        P = benchmark_matrix("low")
        # Uniform stationary by symmetry; rate from the row distribution.
        expected = -(0.95 * np.log2(0.95) + 0.05 * np.log2(0.05 / 7.0))
        est = entropy_rate(P, stationary_eigen(P))
        assert est.value == pytest.approx(expected, abs=1e-4)
        assert est.value == pytest.approx(0.4268, abs=1e-4)

    def test_high_rate_exactly_three(self):
        P = benchmark_matrix("high")
        assert entropy_rate(P, np.full(8, 0.125)).value == pytest.approx(3.0)

    def test_low_with_unit_diag_is_reducible_identity(self):
        from entrate import is_irreducible

        P = benchmark_matrix("low", diag=1.0)
        assert np.array_equal(P.probs, np.eye(8))
        assert not is_irreducible(P)

    def test_medium_builtin(self):
        from entrate import is_irreducible, shannon_entropy

        P = benchmark_matrix("medium-builtin")
        assert is_irreducible(P)
        row_entropies = [shannon_entropy(P.probs[i]) for i in range(8)]
        assert min(row_entropies) > 0.7
        assert max(row_entropies) < 2.5
        rate = entropy_rate(P, stationary_eigen(P)).value
        assert 1.3 < rate < 2.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            benchmark_matrix("extreme")

    def test_medium_requires_eight_states(self):
        with pytest.raises(ValueError):
            benchmark_matrix("medium", kappa=4)

    @pytest.mark.parametrize("kind", ["low", "high"])
    def test_generator_above_dense_limit_refused(self, kind):
        with pytest.raises(StateSpaceError, match=f"{kind} benchmark generator over 4097 states"):
            benchmark_matrix(kind, kappa=DENSE_STATE_LIMIT + 1)

    @pytest.mark.parametrize("kind", ["high", "medium", "medium-builtin"])
    def test_diag_applies_to_low_only(self, kind):
        with pytest.raises(ValueError, match="diag applies only to the low benchmark"):
            benchmark_matrix(kind, diag=0.95)


class TestSecondOrderMatrix:
    def test_structure(self):
        P = second_order_matrix(SecondOrderParams(0.5, 0.5, 0.5, 0.5))
        mask = P.probs > 0
        assert mask.tolist() == [
            [True, True, False, False],
            [False, False, True, True],
            [True, True, False, False],
            [False, False, True, True],
        ]
        assert np.all(P.probs[mask] == 0.5)

    def test_first_order_point_has_matching_rows(self):
        params = SecondOrderParams(a=0.3, b=0.6, c=0.3, d=0.6)
        P = second_order_matrix(params).probs
        assert np.array_equal(P[0], P[2])
        assert np.array_equal(P[1], P[3])

    def test_case_one_irreducible(self):
        from entrate import is_irreducible

        assert is_irreducible(second_order_matrix(reparam_to_abcd(CASE_I)))


class TestReparam:
    def test_case_one(self):
        params = reparam_to_abcd(CASE_I)
        assert params.a == pytest.approx(0.1, abs=1e-12)
        assert params.c == pytest.approx(0.85, abs=1e-12)
        assert params.d == pytest.approx(0.2, abs=1e-12)
        assert params.b == pytest.approx(0.93333333333, abs=1e-9)
        assert round(params.b, 3) == 0.933

    def test_case_two(self):
        params = reparam_to_abcd(CASE_II)
        assert params.a == pytest.approx(0.52, abs=1e-12)
        assert params.b == pytest.approx(0.68333333333, abs=1e-9)
        assert params.c == pytest.approx(0.22, abs=1e-12)
        assert params.d == pytest.approx(0.95, abs=1e-12)

    def test_zero_dependence_collapses_to_first_order(self):
        params = reparam_to_abcd(ReparamPoint(p=0.4, q=0.75, phi=0.0, gamma=0.0))
        assert params.a == params.c == pytest.approx(0.4)
        assert params.b == params.d == pytest.approx(0.75)

    def test_bounds_rejected_with_constraint(self):
        with pytest.raises(ValueError, match="phi"):
            ReparamPoint(p=0.4, q=0.75, phi=0.7, gamma=0.0)
        with pytest.raises(ValueError, match="gamma"):
            ReparamPoint(p=0.4, q=0.75, phi=0.0, gamma=0.5)

    def test_round_trip_identity(self):
        for phi in np.linspace(-1, phi_bound(0.4), 21):
            for gamma in np.linspace(-1, gamma_bound(0.75), 21):
                params = reparam_to_abcd(
                    ReparamPoint(p=0.4, q=0.75, phi=float(phi), gamma=float(gamma))
                )
                assert params.a / 0.4 - 1 == pytest.approx(phi, abs=1e-12)
                assert params.d / 0.75 - 1 == pytest.approx(gamma, abs=1e-12)


class TestFirstOrderProjection:
    def test_cases_recover_pq(self):
        expected = np.array([[0.6, 0.4], [0.75, 0.25]])
        for point in (CASE_I, CASE_II):
            proj = first_order_projection(reparam_to_abcd(point))
            assert np.max(np.abs(proj.probs - expected)) < 1e-10

    def test_first_order_point_is_fixed(self):
        params = SecondOrderParams(a=0.3, b=0.6, c=0.3, d=0.6)
        proj = first_order_projection(params)
        assert np.allclose(proj.probs, [[0.7, 0.3], [0.6, 0.4]])

    def test_projection_identity_over_grid(self):
        expected = np.array([[0.6, 0.4], [0.75, 0.25]])
        for phi in np.linspace(-0.9, phi_bound(0.4) - 1e-9, 7):
            for gamma in np.linspace(-0.9, gamma_bound(0.75) - 1e-9, 7):
                params = reparam_to_abcd(
                    ReparamPoint(p=0.4, q=0.75, phi=float(phi), gamma=float(gamma))
                )
                proj = first_order_projection(params)
                assert np.max(np.abs(proj.probs - expected)) < 1e-12

    def test_reducible_rejected(self):
        with pytest.raises(ReducibleMatrixError):
            first_order_projection(SecondOrderParams(a=0.0, b=1.0, c=0.0, d=0.0))


class TestSecondOrderStationary:
    def test_matches_eigen(self):
        for point in (CASE_I, CASE_II):
            params = reparam_to_abcd(point)
            closed = second_order_stationary(params)
            eig = stationary_eigen(second_order_matrix(params))
            assert np.max(np.abs(closed.probs - eig.probs)) < 1e-12

    def test_degenerate_rejected(self):
        with pytest.raises(ReducibleMatrixError):
            second_order_stationary(SecondOrderParams(a=0.0, b=1.0, c=1.0, d=0.0))


class TestEntropySurface:
    def test_first_order_point_value_and_max(self):
        phis = np.linspace(-1, phi_bound(0.4), 21)
        gammas = np.linspace(-1, gamma_bound(0.75), 21)
        grid = entropy_surface(0.4, 0.75, phis, gammas)
        i0 = int(np.argmin(np.abs(phis)))
        j0 = int(np.argmin(np.abs(gammas)))
        assert grid[i0, j0] == pytest.approx(0.915, abs=1e-3)
        assert np.nanmax(grid) == grid[i0, j0]

    def test_boundary_marked_invalid(self):
        grid = entropy_surface(0.4, 0.75, np.array([-1.0]), np.array([0.0]))
        assert np.isnan(grid[0, 0])

    def test_out_of_bounds_marked_invalid(self):
        grid = entropy_surface(0.4, 0.75, np.array([0.9]), np.array([0.0]))
        assert np.isnan(grid[0, 0])

    def test_moderate_dependence_region_above_08(self):
        # For |phi| <= 0.3 and -0.5 <= gamma <= 0.3 the exact rate stays
        # above 0.8 bits (both row-entropy contributions are concave, so
        # checking a grid covers the box), and Case II sits above 0.8 too.
        phis = np.linspace(-0.3, 0.3, 7)
        gammas = np.linspace(-0.5, 0.3, 9)
        grid = entropy_surface(0.4, 0.75, phis, gammas)
        assert np.all(grid > 0.8)
        assert second_order_entropy(reparam_to_abcd(CASE_II)) > 0.8

    def test_large_portion_above_08(self):
        phis = np.linspace(-1, phi_bound(0.4), 21)
        gammas = np.linspace(-1, gamma_bound(0.75), 21)
        grid = entropy_surface(0.4, 0.75, phis, gammas)
        assert np.nanmean(grid > 0.8) > 0.3

    def test_case_one_rate(self):
        # Strong second-order dependence: rate well below the 0.915 ceiling.
        rate = second_order_entropy(reparam_to_abcd(CASE_I))
        assert rate == pytest.approx(0.4976, abs=1e-3)


class TestSimulateSecondOrder:
    def test_alphabet_and_determinism(self):
        params = reparam_to_abcd(CASE_I)
        a = simulate_second_order(params, 50, rng=5)
        b = simulate_second_order(params, 50, rng=5)
        assert a.alphabet.symbols == ("A", "B")
        assert np.array_equal(a.states, b.states)

    def test_long_run_second_order_estimate_matches_truth(self):
        params = reparam_to_abcd(CASE_I)
        seq = simulate_second_order(params, 20_000, rng=11)
        est = estimate_direct(seq, order=2, stationary="empirical")
        assert est.value == pytest.approx(second_order_entropy(params), abs=0.02)

    def test_order_monotone_bias(self):
        # Misspecifying a second-order chain as first-order inflates the
        # estimate relative to the correctly specified one.
        params = reparam_to_abcd(CASE_I)
        m1, m2 = [], []
        for k in range(30):
            seq = simulate_second_order(params, 1000, rng=100 + k)
            m1.append(estimate_direct(seq, order=1).value)
            m2.append(estimate_direct(seq, order=2).value)
        assert np.mean(m1) > np.mean(m2)


class TestRunExperiment:
    @staticmethod
    def _plan(**kwargs):
        defaults = dict(
            generator=TransitionMatrix([[0.2, 0.8], [0.7, 0.3]]),
            lengths=(20, 50),
            replicates=3,
            estimators=(EstimatorSpec("empirical", 1), EstimatorSpec("swlz")),
            seed=77,
        )
        defaults.update(kwargs)
        return ExperimentPlan(**defaults)

    def test_determinism(self):
        a = run_experiment(self._plan())
        b = run_experiment(self._plan())
        for ca, cb in zip(a.cells, b.cells):
            assert (ca.length, ca.estimator, ca.mean, ca.sd) == (
                cb.length,
                cb.estimator,
                cb.mean,
                cb.sd,
            )

    def test_single_replicate_degenerate_stats(self):
        report = run_experiment(self._plan(replicates=1))
        for cell in report.cells:
            assert cell.minimum == cell.mean == cell.maximum
            assert cell.sd is None

    def test_cell_grid_shape(self):
        report = run_experiment(self._plan())
        assert len(report.cells) == 4
        assert all(c.n_ok == 3 and c.n_failed == 0 for c in report.cells)

    def test_invalid_order_marks_failures(self):
        plan = self._plan(
            lengths=(3, 50), estimators=(EstimatorSpec("empirical", 4),)
        )
        report = run_experiment(plan)
        short, long = report.cells
        assert short.n_ok == 0 and short.n_failed == 3
        assert short.mean is None
        assert long.n_ok == 3

    def test_decreasing_lengths_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            self._plan(lengths=(50, 20))

    def test_duplicate_estimator_rejected(self):
        spec = EstimatorSpec("empirical", 1)
        with pytest.raises(ValueError, match=r"direct_empirical\(m=1\) listed twice"):
            self._plan(estimators=(spec, EstimatorSpec("swlz"), spec))

    def test_swlz_cells_equal_fresh_estimates_of_each_cut(self):
        # The experiment derives every cut from one pass over the sequence.
        plan = self._plan(
            generator=benchmark_matrix("low"),
            lengths=(2, 30, 200, 600),
            replicates=4,
            estimators=(EstimatorSpec("swlz"),),
            seed=11,
        )
        report = run_experiment(plan)
        streams = np.random.SeedSequence(plan.seed).spawn(plan.replicates)
        init = stationary_eigen(plan.generator)
        seqs = [
            simulate_chain(plan.generator, 600, init=init, rng=np.random.default_rng(s))
            for s in streams
        ]
        for cell in report.cells:
            fresh = [swlz_entropy(seq.prefix(cell.length)).value for seq in seqs]
            assert (cell.n_ok, cell.n_failed) == (4, 0)
            assert cell.mean == float(np.mean(fresh))
            assert (cell.minimum, cell.maximum) == (min(fresh), max(fresh))

    def test_second_order_generator(self):
        plan = self._plan(
            generator=reparam_to_abcd(CASE_I),
            lengths=(200,),
            replicates=4,
            estimators=(EstimatorSpec("empirical", 2),),
        )
        report = run_experiment(plan)
        assert report.cells[0].n_ok == 4

    def test_paper_zero_mode_turns_failures_into_zeros(self):
        # Low benchmark at tiny n: the eigen method hits reducible estimates.
        plan = self._plan(
            generator=benchmark_matrix("low"),
            lengths=(30,),
            replicates=20,
            estimators=(EstimatorSpec("eigen", 1),),
            seed=123,
        )
        hard = run_experiment(plan)
        soft = run_experiment(
            self._plan(
                generator=benchmark_matrix("low"),
                lengths=(30,),
                replicates=20,
                estimators=(EstimatorSpec("eigen", 1, paper_zero_mode=True),),
                seed=123,
            )
        )
        assert hard.cells[0].n_failed > 0
        assert soft.cells[0].n_failed == 0
        assert soft.cells[0].minimum == 0.0

    def test_plain_value_error_propagates(self, monkeypatch):
        # Only EstimationError counts as a failed replicate.
        import entrate.simulate as simulate_module

        def faulty(*args, **kwargs):
            raise ValueError("probabilities must sum to 1 within 1e-12")

        monkeypatch.setattr(simulate_module, "run_estimator", faulty)
        with pytest.raises(ValueError, match="sum to 1"):
            run_experiment(self._plan())

    def test_mean_tracks_truth_at_long_lengths(self):
        plan = self._plan(
            generator=benchmark_matrix("low"),
            lengths=(5000,),
            replicates=20,
            estimators=(EstimatorSpec("empirical", 1),),
            seed=3,
        )
        report = run_experiment(plan)
        truth = -(0.95 * np.log2(0.95) + 0.05 * np.log2(0.05 / 7.0))
        assert report.cells[0].mean == pytest.approx(truth, abs=0.05)


class TestRandomMatrixHelpers:
    def test_random_stochastic_rows(self):
        rng = np.random.default_rng(5)
        P = random_stochastic(rng, 6)
        assert np.allclose(P.probs.sum(axis=1), 1.0)
