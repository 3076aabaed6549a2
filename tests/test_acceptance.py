"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Statistical criteria use fixed seeds and the stated replicate counts.
"""

import time

import numpy as np
import pytest
from conftest import naive_novel_length, plugin_rate_oracle, random_stochastic, token_seq

from entrate import (
    BootstrapConfig,
    EstimatorSpec,
    ReducibleMatrixError,
    ReparamPoint,
    TransitionMatrix,
    benchmark_matrix,
    bootstrap_se,
    choose_p,
    entropy_rate,
    entropy_surface,
    estimate_direct,
    first_order_projection,
    gamma_bound,
    novel_lengths,
    phi_bound,
    reparam_to_abcd,
    run_experiment,
    second_order_entropy,
    simulate_chain,
    stationary_eigen,
    stationary_limit,
    swlz_parse,
    ttest_pooled,
)
from entrate.cli import main
from entrate.direct import estimate_direct as _estimate
from entrate.markov import Alphabet, Sequence
from entrate.simulate import ExperimentPlan
from entrate.swlz import format_parsing

LOW_TRUE_RATE = -(0.95 * np.log2(0.95) + 0.05 * np.log2(0.05 / 7.0))

LBN_SWLZ = [1.6956, 1.6285, 1.6797, 1.6807, 1.7916, 1.8526]
CTL_SWLZ = [1.5483, 1.5107, 1.5727, 1.6571, 1.7552, 1.7864]
LBN_EMP1 = [1.8837, 1.8015, 1.8774, 1.8403, 1.9342, 2.0515]
CTL_EMP1 = [1.7393, 1.5322, 1.6256, 1.7427, 1.8164, 1.8590]


def report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:02d}: {detail}")


def test_criterion_01_table_parsing(capsys):
    expected = "1 | 3 | 131 | 2 | 132 | 323 | 31313 | 332"
    code = main(["parse", "--text", "13131213232331313332"])
    out = capsys.readouterr().out.strip()
    seq = token_seq("13131213232331313332")
    elapsed = min(
        _timed(lambda: format_parsing(seq, swlz_parse(seq))) for _ in range(10)
    )
    ok = code == 0 and out == expected and elapsed < 1e-3
    with capsys.disabled():
        report(1, ok, f"parse -> {out!r}; {elapsed * 1e6:.0f} us")
    assert out == expected
    assert code == 0
    assert elapsed < 1e-3


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_02_surface_anchor():
    phis = np.linspace(-1.0, phi_bound(0.4), 21)
    gammas = np.linspace(-1.0, gamma_bound(0.75), 21)
    grid = entropy_surface(0.4, 0.75, phis, gammas)
    i0, j0 = int(np.argmin(np.abs(phis))), int(np.argmin(np.abs(gammas)))
    center = grid[i0, j0]
    is_max = np.nanmax(grid) == center
    ok = abs(center - 0.915) <= 1e-3 and is_max
    report(2, ok, f"H(0,0) = {center:.4f}, grid max at origin: {is_max}")
    assert center == pytest.approx(0.915, abs=1e-3)
    assert is_max


def test_criterion_03_case_reparameterization():
    case1 = reparam_to_abcd(ReparamPoint(0.4, 0.75, -0.75, 0.2 / 0.75 - 1.0))
    case2 = reparam_to_abcd(ReparamPoint(0.4, 0.75, 0.3, 0.95 / 0.75 - 1.0))
    vals1 = (case1.a, case1.b, case1.c, case1.d)
    vals2 = (case2.a, case2.b, case2.c, case2.d)
    expect1 = (0.1, 0.933, 0.85, 0.2)
    expect2 = (0.52, 0.6833, 0.22, 0.95)
    proj_target = np.array([[0.6, 0.4], [0.75, 0.25]])
    gap1 = np.max(np.abs(first_order_projection(case1).probs - proj_target))
    gap2 = np.max(np.abs(first_order_projection(case2).probs - proj_target))
    match1 = all(abs(v - e) <= 5e-4 for v, e in zip(vals1, expect1))
    match2 = all(abs(v - e) <= 5e-4 for v, e in zip(vals2, expect2))
    ok = match1 and match2 and gap1 < 1e-10 and gap2 < 1e-10
    report(3, ok, f"case abcd match: {match1}/{match2}; projection gaps {gap1:.1e}/{gap2:.1e}")
    assert match1 and match2
    assert gap1 < 1e-10 and gap2 < 1e-10


def test_criterion_04_published_t_statistics():
    swlz = ttest_pooled(CTL_SWLZ, LBN_SWLZ)
    emp1 = ttest_pooled(CTL_EMP1, LBN_EMP1)
    ok = (
        abs(swlz.t_statistic - (-1.4425)) <= 1e-3
        and abs(swlz.means[0] - 1.6384) <= 1e-4
        and abs(swlz.means[1] - 1.7215) <= 1e-4
        and abs(emp1.t_statistic - (-2.9308)) <= 1e-3
    )
    report(
        4,
        ok,
        f"t_swlz = {swlz.t_statistic:.4f}, means {swlz.means[0]:.4f}/{swlz.means[1]:.4f}, "
        f"t_emp1 = {emp1.t_statistic:.4f}",
    )
    assert swlz.t_statistic == pytest.approx(-1.4425, abs=1e-3)
    assert swlz.means[0] == pytest.approx(1.6384, abs=1e-4)
    assert swlz.means[1] == pytest.approx(1.7215, abs=1e-4)
    assert emp1.t_statistic == pytest.approx(-2.9308, abs=1e-3)


def test_criterion_05_low_entropy_convergence():
    start = time.perf_counter()
    plan = ExperimentPlan(
        generator=benchmark_matrix("low"),
        lengths=(250, 10_000),
        replicates=100,
        estimators=(EstimatorSpec("empirical", 1),),
        seed=20250,
    )
    cells = {c.length: c for c in run_experiment(plan)}
    elapsed = time.perf_counter() - start
    # The plug-in estimator is biased downward at short lengths (Miller 1955;
    # Paninski 2003): at n = 250 its expected value for this matrix is about
    # 0.308, a bias of about -0.118.  So n = 250 is checked against that
    # expected value, from an independent brute-force oracle, and the estimate
    # must move toward the true rate by n = 10,000.
    oracle, oracle_se = plugin_rate_oracle(benchmark_matrix("low").probs, 250, reps=20_000, seed=5)
    c250, c10k = cells[250], cells[10_000]
    band = 4.0 * np.sqrt(c250.sd**2 / c250.n_ok + oracle_se**2)
    off_250 = abs(c250.mean - oracle)
    gap_250 = abs(c250.mean - LOW_TRUE_RATE)
    gap_10k = abs(c10k.mean - LOW_TRUE_RATE)
    no_failures = c250.n_failed == 0 and c10k.n_failed == 0
    ok = (
        elapsed < 60.0
        and no_failures
        and off_250 <= band
        and gap_10k <= 0.01
        and gap_10k < gap_250
    )
    report(
        5,
        ok,
        f"mean@250 = {c250.mean:.4f} vs plug-in oracle {oracle:.4f} "
        f"(|diff| {off_250:.4f} vs {band:.4f}), "
        f"mean@10000 = {c10k.mean:.4f} (|gap| {gap_10k:.4f} vs 0.01, "
        f"< {gap_250:.4f} at 250), failed {c250.n_failed}+{c10k.n_failed}, {elapsed:.1f}s",
    )
    assert elapsed < 60.0
    assert no_failures, f"failed replicates: {c250.n_failed} at 250, {c10k.n_failed} at 10000"
    assert off_250 <= band, (
        f"mean at n=250 is {c250.mean:.4f}, {off_250:.4f} away from the expected "
        f"plug-in value {oracle:.4f} (allowed {band:.4f})"
    )
    assert gap_10k <= 0.01
    assert gap_10k < gap_250


def test_criterion_06_bias_directions():
    low_plan = ExperimentPlan(
        generator=benchmark_matrix("low"),
        lengths=(1000,),
        replicates=100,
        estimators=(EstimatorSpec("swlz"),),
        seed=614,
    )
    high_plan = ExperimentPlan(
        generator=benchmark_matrix("high"),
        lengths=(1000,),
        replicates=100,
        estimators=(EstimatorSpec("swlz"), EstimatorSpec("empirical", 1)),
        seed=615,
    )
    low_cells = run_experiment(low_plan)
    high_cells = {c.estimator.tag: c for c in run_experiment(high_plan)}
    swlz_low = low_cells[0].mean
    swlz_high = high_cells["swlz"].mean
    direct_high = high_cells["direct_empirical"].mean
    ok = swlz_low > LOW_TRUE_RATE and swlz_high < 3.0 and direct_high < 3.0
    report(
        6,
        ok,
        f"swlz@low = {swlz_low:.4f} > {LOW_TRUE_RATE:.4f}; "
        f"swlz@uniform = {swlz_high:.4f} < 3; direct@uniform = {direct_high:.4f} < 3",
    )
    assert swlz_low > LOW_TRUE_RATE
    assert swlz_high < 3.0
    assert direct_high < 3.0


def test_criterion_07_misspecification_bias():
    params = reparam_to_abcd(ReparamPoint(0.4, 0.75, -0.75, 0.2 / 0.75 - 1.0))
    truth = second_order_entropy(params)
    plan = ExperimentPlan(
        generator=params,
        lengths=(1000,),
        replicates=200,
        estimators=(
            EstimatorSpec("empirical", 1),
            EstimatorSpec("empirical", 2),
            EstimatorSpec("empirical", 3),
        ),
        seed=4307,
    )
    cells = {c.estimator.order: c for c in run_experiment(plan)}
    excess_m1 = cells[1].mean - truth
    gap_m2 = abs(cells[2].mean - truth)
    gap_m3 = abs(cells[3].mean - truth)
    ok = excess_m1 > 0.05 and gap_m2 <= 0.05 and gap_m3 <= 0.1
    report(
        7,
        ok,
        f"truth = {truth:.4f}; m1 excess = {excess_m1:+.4f} (> 0.05); "
        f"m2 gap = {gap_m2:.4f} (<= 0.05); m3 gap = {gap_m3:.4f} (<= 0.1)",
    )
    assert excess_m1 > 0.05
    assert gap_m2 <= 0.05
    assert gap_m3 <= 0.1


def test_criterion_08_bootstrap_conservative():
    P = benchmark_matrix("medium-builtin")
    spec = EstimatorSpec("empirical", 1)
    details = []
    ok = True
    for n in (1000, 5000):
        rng = np.random.default_rng(4208)
        points, boot = [], []
        for k in range(100):
            seq = simulate_chain(P, n, rng=rng)
            h = estimate_direct(seq).value
            points.append(h)
            config = BootstrapConfig(p=choose_p(h, n)[0], replicates=100, seed=80_000 + k)
            boot.append(bootstrap_se(seq, spec, config).standard_error)
        emp_se = float(np.std(points, ddof=1))
        med = float(np.median(boot))
        details.append(f"n={n}: median {med:.4f} vs 0.8x empirical {0.8 * emp_se:.4f}")
        ok = ok and med >= 0.8 * emp_se
    report(8, ok, "; ".join(details))
    assert ok, details


def test_criterion_09_oracle_suites():
    # (a) novelty lengths against the brute-force substring oracle.
    rng = np.random.default_rng(909)
    mismatches = 0
    for _ in range(500):
        kappa = int(rng.integers(2, 5))
        n = int(rng.integers(2, 201))
        states = rng.integers(0, kappa, n)
        seq = Sequence(states, Alphabet.of_size(kappa))
        nl = novel_lengths(seq)
        for i in range(1, n):
            expect = naive_novel_length(states, i)
            if (int(nl.lengths[i]), bool(nl.capped[i])) != expect:
                mismatches += 1
    # (b) eigen fixed-point residuals on 1000 random irreducible matrices.
    rng_b = np.random.default_rng(910)
    worst_resid = 0.0
    for _ in range(1000):
        P = random_stochastic(rng_b, int(rng_b.integers(2, 11)))
        pi = stationary_eigen(P)
        worst_resid = max(worst_resid, float(np.max(np.abs(pi.probs @ P.probs - pi.probs))))
    # (c) Cesaro limit vs eigen at 1e5 steps on 4x4 matrices.
    rng_c = np.random.default_rng(911)
    worst_gap = 0.0
    mats = [random_stochastic(rng_c, 4) for _ in range(5)]
    mats.append(TransitionMatrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]))
    for P in mats:
        gap = np.max(
            np.abs(stationary_limit(P, steps=100_000)[0].probs - stationary_eigen(P).probs)
        )
        worst_gap = max(worst_gap, float(gap))
    ok = mismatches == 0 and worst_resid < 1e-10 and worst_gap < 1e-2
    report(
        9,
        ok,
        f"oracle mismatches: {mismatches}; worst eigen residual {worst_resid:.2e}; "
        f"worst Cesaro gap {worst_gap:.2e}",
    )
    assert mismatches == 0
    assert worst_resid < 1e-10
    assert worst_gap < 1e-2


def test_criterion_10_degenerate_inputs():
    constant = Sequence(np.zeros(100, dtype=np.int64), Alphabet.of_size(2))
    alternating = Sequence(np.tile([0, 1], 50), Alphabet.of_size(2))
    det_ok = (
        _estimate(constant).value == 0.0 and _estimate(alternating).value == 0.0
    )
    uniform = TransitionMatrix(np.full((8, 8), 0.125))
    analytic = entropy_rate(uniform, np.full(8, 0.125)).value
    uniform_ok = abs(analytic - 3.0) < 1e-12
    reducible = Sequence(np.array([0] * 50 + [1]), Alphabet.of_size(2))
    try:
        _estimate(reducible, stationary="eigen")
        raised = False
    except ReducibleMatrixError:
        raised = True
    rescued = _estimate(reducible, stationary="eigen", paper_zero_mode=True)
    zero_ok = rescued.value == 0.0 and any("reducible" in w for w in rescued.warnings)
    ok = det_ok and uniform_ok and raised and zero_ok
    report(
        10,
        ok,
        f"deterministic -> 0: {det_ok}; uniform analytic = {analytic:.12f}; "
        f"reducible eigen raises: {raised}; zero-mode warning: {zero_ok}",
    )
    assert det_ok and uniform_ok and raised and zero_ok
