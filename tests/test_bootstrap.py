import numpy as np
import pytest
from conftest import assert_refused, int_seq, stationary_bootstrap_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from entrate import (
    Alphabet,
    BootstrapConfig,
    EstimationError,
    EstimatorSpec,
    ReducibleMatrixError,
    Sequence,
    bootstrap_se,
    choose_p,
    estimate_direct_pooled,
    stationary_bootstrap_sample,
)
from entrate.estimators import run_estimator
from entrate.simulate import benchmark_matrix, simulate_chain


class TestChooseP:
    def test_power_of_two(self):
        assert choose_p(1.0, 1024)[0] == pytest.approx(0.1)

    def test_zero_entropy_clamped_with_warning(self):
        p, note = choose_p(0.0, 100)
        assert "clamped" in note
        assert p == 1e-6

    def test_above_one_clamped(self):
        p, note = choose_p(20.0, 100)
        assert "clamped" in note
        assert p == 1.0

    def test_mean_block_length(self):
        # H = 2.8934 at n = 1000 targets blocks of mean length about 3.44.
        p, _ = choose_p(2.8934, 1000)
        assert 1.0 / p == pytest.approx(3.44, abs=0.01)

    @pytest.mark.parametrize(
        "h_hat, n, message",
        [(-0.1, 100, "entropy estimate must be nonnegative"), (1.0, 1, "need n >= 2")],
        ids=["negative-estimate", "n-below-2"],
    )
    def test_invalid_arguments_rejected(self, h_hat, n, message):
        assert_refused(lambda: choose_p(h_hat, n), ValueError, message)


class TestStationaryBootstrapSample:
    def test_length_and_alphabet_preserved(self):
        rng = np.random.default_rng(2)
        seq = int_seq([0, 1, 2, 1, 0, 2, 2, 1], kappa=3)
        out = stationary_bootstrap_sample(seq, 0.3, rng)
        assert out.length == seq.length
        assert set(out.states.tolist()) <= {0, 1, 2}

    def test_constant_sequence_unchanged(self):
        seq = int_seq([1] * 20, kappa=2)
        for p in (0.05, 0.5, 1.0):
            out = stationary_bootstrap_sample(seq, p, np.random.default_rng(3))
            assert out.states.tolist() == seq.states.tolist()

    def test_tiny_p_yields_wrapped_rotation(self):
        # With p = 1e-6 the first block almost surely covers the whole output,
        # so the sample is a wrap-around rotation of the input.
        seq = int_seq([0, 1, 2], kappa=3)
        out = stationary_bootstrap_sample(seq, 1e-6, np.random.default_rng(5))
        rotations = {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
        assert tuple(out.states.tolist()) in rotations

    @settings(deadline=None)
    @given(
        st.lists(st.integers(0, 5), min_size=2, max_size=300),
        st.floats(1e-6, 1.0),
        st.integers(0, 2**32 - 1),
    )
    def test_length_and_symbols_of_the_original(self, values, p, seed):
        seq = int_seq(values, kappa=6)
        out = stationary_bootstrap_sample(seq, p, np.random.default_rng(seed))
        assert out.length == seq.length
        assert out.alphabet is seq.alphabet
        assert set(out.states.tolist()) <= set(values)

    @settings(deadline=None)
    @given(st.integers(2, 300), st.integers(0, 2**32 - 1))
    def test_one_block_wraps_modulo_n(self, n, seed):
        # Distinct symbols name their positions.  At p = 1e-12 a second block
        # has probability below 3e-10, so the sample is one block: n
        # consecutive positions from a uniform start, continuing at 0 after
        # n - 1.
        seq = int_seq(list(range(n)), kappa=n)
        out = stationary_bootstrap_sample(seq, 1e-12, np.random.default_rng(seed)).states
        assert out.tolist() == ((out[0] + np.arange(n)) % n).tolist()

    @settings(deadline=None)
    @given(
        st.integers(2, 300),
        st.sampled_from((1e-6, 0.01, 0.212, 0.5, 1.0)) | st.floats(1e-6, 1.0),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_per_block_oracle(self, n, p, seed):
        # Distinct symbols name their positions, so equal samples mean equal
        # indices, from the same draws.  The oracle wraps each index % n; the
        # package subtracts n once, which is exact because every index is
        # below 2n.
        seq = int_seq(list(range(n)), kappa=n)
        out = stationary_bootstrap_sample(seq, p, np.random.default_rng(seed))
        expected = stationary_bootstrap_oracle(seq.states, p, np.random.default_rng(seed))
        assert np.array_equal(out.states, expected)

    def test_p_one_is_iid_position_sampling(self):
        # Geometric(1) blocks have length exactly 1.
        rng = np.random.default_rng(7)
        seq = int_seq(list(range(10)), kappa=10)
        out = stationary_bootstrap_sample(seq, 1.0, rng)
        counts = np.bincount(out.states, minlength=10)
        assert counts.sum() == 10

    def test_determinism(self):
        seq = int_seq([0, 1, 0, 0, 1, 1, 0, 1], kappa=2)
        a = stationary_bootstrap_sample(seq, 0.4, np.random.default_rng(11))
        b = stationary_bootstrap_sample(seq, 0.4, np.random.default_rng(11))
        assert np.array_equal(a.states, b.states)

    def test_block_length_distribution(self):
        # Geometric(p) on {1, 2, ...} has mean 1/p; at p = 0.2, 1e5 draws sit
        # within 2% of 5.
        rng = np.random.default_rng(13)
        draws = rng.geometric(0.2, size=100_000)
        assert draws.min() >= 1
        assert abs(draws.mean() - 5.0) / 5.0 < 0.02

    def test_invalid_p(self):
        seq = int_seq([0, 1], kappa=2)
        with pytest.raises(ValueError):
            stationary_bootstrap_sample(seq, 0.0, np.random.default_rng(1))
        with pytest.raises(ValueError):
            stationary_bootstrap_sample(seq, 1.5, np.random.default_rng(1))

    def test_single_symbol_rejected(self):
        seq = int_seq([1], kappa=2)
        rng = np.random.default_rng(1)
        assert_refused(
            lambda: stationary_bootstrap_sample(seq, 0.5, rng),
            ValueError,
            "need at least 2 symbols to resample",
        )


class TestBootstrapSe:
    def test_constant_sequence_zero_se(self):
        seq = int_seq([1] * 30, kappa=2)
        result = bootstrap_se(
            seq, EstimatorSpec("empirical", 1), BootstrapConfig(p=0.5, replicates=20, seed=1)
        )
        assert result.standard_error == 0.0
        assert result.estimates.tolist() == [0.0] * 20

    def test_determinism(self):
        rng = np.random.default_rng(17)
        seq = int_seq(rng.integers(0, 3, 200), kappa=3)
        config = BootstrapConfig(p=0.25, replicates=25, seed=99)
        a = bootstrap_se(seq, EstimatorSpec("empirical", 1), config)
        b = bootstrap_se(seq, EstimatorSpec("empirical", 1), config)
        assert np.array_equal(a.estimates, b.estimates)
        assert a.standard_error == b.standard_error

    def test_estimator_tag_and_point_estimate(self):
        rng = np.random.default_rng(19)
        seq = int_seq(rng.integers(0, 3, 300), kappa=3)
        spec = EstimatorSpec("swlz")
        result = bootstrap_se(seq, spec, BootstrapConfig(p=0.3, replicates=10, seed=5))
        assert result.point == run_estimator(seq, spec)
        assert result.point.value > 0

    # Rare symbol: some resamples never leave state 0, and eigen fails on them.
    RARE = [0] * 60 + [1] + [0] * 60 + [1, 0]

    def test_failed_replicates_are_left_out(self):
        # 5 of the 40 replicates fail; the other 35 are the estimates, in
        # stream order, and only they enter the SE.  Each failure replays
        # from its (seed, index) alone.
        seq = int_seq(self.RARE, kappa=2)
        spec = EstimatorSpec("eigen", 1)
        result = bootstrap_se(seq, spec, BootstrapConfig(p=0.9, replicates=40, seed=21))
        replayed, failed = [], []
        for index, stream in enumerate(np.random.SeedSequence(21).spawn(40)):
            resample = stationary_bootstrap_sample(seq, 0.9, np.random.default_rng(stream))
            try:
                replayed.append(run_estimator(resample, spec).value)
            except ReducibleMatrixError:
                failed.append(index)
        assert failed == [11, 13, 20, 21, 29]
        assert len(replayed) == result.estimates.size == 35
        assert result.estimates.tobytes() == np.array(replayed).tobytes()
        assert result.standard_error == pytest.approx(0.0576287, abs=1e-7)
        assert result.warnings == (
            "5 bootstrap replicate(s) failed and were left out of the SE",
        )

    def test_paper_zero_mode_replicates_are_zeros_not_failures(self):
        seq = int_seq(self.RARE, kappa=2)
        config = BootstrapConfig(p=0.9, replicates=40, seed=21)
        hard = bootstrap_se(seq, EstimatorSpec("eigen", 1), config)
        soft = bootstrap_se(seq, EstimatorSpec("eigen", 1, paper_zero_mode=True), config)
        assert hard.estimates.size == 35
        assert soft.estimates.size == 40
        assert (soft.estimates == 0.0).sum() >= 40 - 35
        assert soft.warnings == ()
        assert soft.standard_error == pytest.approx(0.0715009, abs=1e-7)

    def test_fewer_than_two_successful_replicates_raise(self):
        # Of B = 2 replicates, seed 1 has one fail and seed 0 none.
        seq = int_seq(self.RARE, kappa=2)
        spec = EstimatorSpec("eigen", 1)
        assert_refused(
            lambda: bootstrap_se(seq, spec, BootstrapConfig(p=0.9, replicates=2, seed=1)),
            EstimationError,
            "1 of 2 bootstrap replicates failed; an SE needs 2",
        )
        kept = bootstrap_se(seq, spec, BootstrapConfig(p=0.9, replicates=2, seed=0)).estimates
        assert kept.size == 2

    def test_p_none_is_choose_p_of_the_point(self):
        rng = np.random.default_rng(23)
        seq = int_seq(rng.integers(0, 3, 300), kappa=3)
        spec = EstimatorSpec("empirical", 1)
        derived = bootstrap_se(seq, spec, BootstrapConfig(p=None, replicates=15, seed=4))
        p, _ = choose_p(derived.point.value, seq.length)
        explicit = bootstrap_se(seq, spec, BootstrapConfig(p=p, replicates=15, seed=4))
        assert derived.p_used == explicit.p_used == p
        assert np.array_equal(derived.estimates, explicit.estimates)
        assert derived.standard_error == explicit.standard_error

    def test_clamped_p_is_reported(self):
        seq = int_seq([1] * 30, kappa=2)
        result = bootstrap_se(
            seq, EstimatorSpec("empirical", 1), BootstrapConfig(p=None, replicates=5, seed=1)
        )
        assert result.p_used == 1e-6
        assert any("clamped" in w for w in result.warnings)

    def test_plain_value_error_on_a_replicate_propagates(self, monkeypatch):
        # Only EstimationError marks a failed replicate; any other ValueError
        # is a fault and must not be counted away.
        import entrate.bootstrap as bootstrap_module

        seq = int_seq([0, 1, 1, 0, 1, 0, 0, 1] * 10, kappa=2)
        real = bootstrap_module.run_estimator

        def faulty(s, spec):
            if s is not seq:
                raise ValueError("probabilities must sum to 1 within 1e-12")
            return real(s, spec)

        monkeypatch.setattr(bootstrap_module, "run_estimator", faulty)
        with pytest.raises(ValueError, match="sum to 1"):
            bootstrap_se(
                seq, EstimatorSpec("empirical", 1), BootstrapConfig(p=0.5, replicates=5, seed=1)
            )

    def test_original_sequence_errors_propagate(self):
        seq = int_seq([0] * 50 + [1], kappa=2)
        with pytest.raises(ReducibleMatrixError):
            bootstrap_se(
                seq, EstimatorSpec("eigen", 1), BootstrapConfig(p=0.5, replicates=5, seed=1)
            )

    def test_conservative_for_low_entropy_chain(self):
        # Median bootstrap SE across 100 simulated series stays above 0.8x the
        # empirical SE of the point estimates, at n = 1000 and n = 5000.
        P = benchmark_matrix("low")
        spec = EstimatorSpec("empirical", 1)
        for n in (1000, 5000):
            rng = np.random.default_rng(42)
            points = []
            boot_ses = []
            for k in range(100):
                seq = simulate_chain(P, n, rng=rng)
                from entrate import estimate_direct

                h = estimate_direct(seq).value
                points.append(h)
                config = BootstrapConfig(
                    p=choose_p(h, n)[0], replicates=100, seed=1000 + k
                )
                boot_ses.append(bootstrap_se(seq, spec, config).standard_error)
            empirical_se = np.std(points, ddof=1)
            assert np.median(boot_ses) >= 0.8 * empirical_se


@pytest.fixture
def replicate_inputs(monkeypatch):
    """The segments of every ``run_estimator`` call ``bootstrap_se`` makes,
    the point estimate's first."""
    import entrate.bootstrap as bootstrap_module

    calls = []
    real = bootstrap_module.run_estimator

    def record(seq, spec, *more):
        calls.append((seq, *more))
        return real(seq, spec, *more)

    monkeypatch.setattr(bootstrap_module, "run_estimator", record)
    return calls


class TestSegmentedBootstrap:
    @staticmethod
    def segments(*lengths):
        rng = np.random.default_rng(31)
        alphabet = Alphabet.of_size(3)
        return [Sequence(rng.integers(0, 3, n), alphabet) for n in lengths]

    def test_each_segment_resampled_within_itself(self, replicate_inputs):
        alphabet = Alphabet.of_size(6)
        segments = [
            Sequence(np.array(v), alphabet)
            for v in ([0, 1, 0, 0, 1, 1, 0, 1], [2, 3, 3, 2, 3], [4], [5, 4, 5, 5])
        ]
        config = BootstrapConfig(p=0.4, replicates=30, seed=3)
        bootstrap_se(segments[0], EstimatorSpec("empirical", 1), config, *segments[1:])
        point, *replicates = replicate_inputs
        assert list(point) == segments and len(replicates) == 30
        for replicate in replicates:
            assert len(replicate) == len(segments)
            for got, original in zip(replicate, segments):
                assert got.length == original.length and got.alphabet is alphabet
                assert set(got.states.tolist()) <= set(original.states.tolist())
            # A 1-symbol segment cannot be resampled and is passed on as it is.
            assert replicate[2] is segments[2]
        assert any(not np.array_equal(r[0].states, segments[0].states) for r in replicates)

    def test_one_child_stream_per_replicate(self, replicate_inputs):
        # Segment k of replicate b is the next stationary_bootstrap_sample
        # drawn from child stream b; one segment draws exactly as before.
        seq, other = self.segments(120, 50)
        config = BootstrapConfig(p=0.3, replicates=12, seed=8)
        for more in ((), (other,)):
            replicate_inputs.clear()
            result = bootstrap_se(seq, EstimatorSpec("empirical", 1), config, *more)
            streams = np.random.SeedSequence(config.seed).spawn(config.replicates)
            assert len(replicate_inputs) == 1 + len(streams)
            for replicate, stream, value in zip(replicate_inputs[1:], streams, result.estimates):
                rng = np.random.default_rng(stream)
                expected = [stationary_bootstrap_sample(s, 0.3, rng) for s in (seq, *more)]
                assert len(replicate) == len(expected)
                for got, want in zip(replicate, expected):
                    assert np.array_equal(got.states, want.states)
                assert value == estimate_direct_pooled(expected).value

    @pytest.mark.parametrize("method", ["empirical", "eigen", "limit"])
    def test_point_is_the_pooled_estimate(self, method):
        segments = self.segments(80, 60, 40)
        config = BootstrapConfig(p=None, replicates=5, seed=2)
        result = bootstrap_se(segments[0], EstimatorSpec(method, 2), config, *segments[1:])
        pooled = estimate_direct_pooled(segments, 2, method)
        assert result.point == pooled
        assert result.p_used == choose_p(pooled.value, 180)[0]

    def test_swlz_refuses_segments(self):
        seq, other = self.segments(20, 20)
        with pytest.raises(ValueError, match="swlz takes one sequence"):
            run_estimator(seq, EstimatorSpec("swlz"), other)


class TestBootstrapConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BootstrapConfig(p=0.0, replicates=10, seed=1)
        with pytest.raises(ValueError):
            BootstrapConfig(p=0.5, replicates=1, seed=1)
