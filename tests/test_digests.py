"""Full-precision digests of library outputs on fixed seeds.

Reports round to 10 digits; these pin every bit.  Each bootstrap case pins
how many replicates succeed, the sha256 of their estimates' bytes and
``float.hex`` of its point estimate, and the plan case pins each cell's counts
and ``float.hex`` of its minimum, mean, maximum and sd.  A change that alters
any value on purpose updates the digests here and says so in CHANGES.md.
"""

import hashlib

import pytest

from entrate import (
    BootstrapConfig,
    EstimatorSpec,
    ExperimentPlan,
    Sequence,
    bootstrap_se,
    run_experiment,
)
from entrate.simulate import benchmark_matrix, simulate_chain


def _chain(kind: str, n: int, seed: int):
    return simulate_chain(benchmark_matrix(kind), n, rng=seed)


# id -> (method, order, replicates, replicates that succeed,
#        segments as (benchmark, length, seed),
#        sha256 of the replicate estimates, float.hex of the point estimate)
BOOTSTRAPS = {
    "order1-empirical-low-1k": (
        "empirical", 1, 50, 50, [("low", 1_000, 11)],
        "e3412b7177497a97ebf486e28db59495fa8f582c014a2a86531d93fe9a0b1854",
        "0x1.6a623bbd3e97fp-2",
    ),
    "order1-eigen-low-1k": (
        "eigen", 1, 50, 49, [("low", 1_000, 11)],
        "2a4fed2f0e17ad066471a913dca3cd9693a93cc6130a037bbfca40b6840da373",
        "0x1.69b35b0c635b6p-2",
    ),
    "order2-eigen-medium-10k": (
        "eigen", 2, 10, 10, [("medium", 10_000, 12)],
        "1f9e202fd7b9f830589fedadeb3596b9f17623e83232c08efae54292d0100f0e",
        "0x1.9690c14db8a0cp+0",
    ),
    "order2-limit-medium-10k": (
        "limit", 2, 10, 10, [("medium", 10_000, 12)],
        "fa06f5566693e38fdfe36f9b97a225791ae26fca2ad4a6b6ce8d0d989f357d52",
        "0x1.9690668445762p+0",
    ),
    "order4-empirical-medium-10k": (
        "empirical", 4, 10, 10, [("medium", 10_000, 12)],
        "8e1b6066779018ffa4e4c4edca3baabeae0e2e0f5ce1669d67e3be40ba086a04",
        "0x1.53aa658bdeb1cp+0",
    ),
    "order2-eigen-pooled-two-segments": (
        "eigen", 2, 20, 20, [("medium", 3_000, 13), ("medium", 2_000, 14)],
        "ae9fbbe7f6dcd7cff448023630d7c13ec8094925e2993d548fc2cfc022cf7b3f",
        "0x1.8a5377bb73a8cp+0",
    ),
    # SWLZ uses no BLAS, so these two hold on any CPU.  The first is the
    # boot-swlz shape; the second runs many match rounds per replicate.
    "swlz-high-10k": (
        "swlz", None, 20, 20, [("high", 10_000, 12)],
        "307268a64132a50ccd562e1f49978b48f9347ca0aeb7f3dd3fe1c358f4001ae0",
        "0x1.6799a4fd2a928p+1",
    ),
    "swlz-low-10k": (
        "swlz", None, 20, 20, [("low", 10_000, 12)],
        "029714894f34e599673c0dd9bf3385e45fa55bdf7f4d68f0c8c3e72ce554a421",
        "0x1.d17d1aa2eb0aep-2",
    ),
}


@pytest.mark.parametrize("case", sorted(BOOTSTRAPS))
def test_bootstrap_digest(case):
    method, order, replicates, kept, segments, estimates_sha, point_hex = BOOTSTRAPS[case]
    seqs = [_chain(kind, n, seed) for kind, n, seed in segments]
    seqs[1:] = [Sequence(seq.states, seqs[0].alphabet) for seq in seqs[1:]]
    result = bootstrap_se(
        seqs[0], EstimatorSpec(method, order), BootstrapConfig(None, replicates, 7), *seqs[1:]
    )
    assert result.estimates.dtype == "float64" and result.estimates.size == kept
    assert hashlib.sha256(result.estimates.tobytes()).hexdigest() == estimates_sha
    assert result.point.value.hex() == point_hex


# (length, estimator tag) -> (n_ok, n_failed, float.hex of the cell minimum, mean,
#                              maximum and sd)
LOW_PLAN_CELLS = {
    (50, "direct_empirical"): (
        2, 0, "0x1.186d6036d47e1p-3", "0x1.032b2f44a35cap-2",
        "0x1.7a1fae6ddc7a3p-2", "0x1.5074aaf1762dbp-3",
    ),
    (50, "direct_eigen"): (
        2, 0, "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0",
    ),
    (50, "swlz"): (
        2, 0, "0x1.347b4b8560913p-1", "0x1.bb34cca25edb0p-1",
        "0x1.20f726dfae927p+0", "0x1.7d0f0cb3d1039p-2",
    ),
    (250, "direct_empirical"): (
        2, 0, "0x1.28eb02d960276p-2", "0x1.4e33bfc801758p-2",
        "0x1.737c7cb6a2c3ap-2", "0x1.a5d262348ff0cp-5",
    ),
    (250, "direct_eigen"): (
        2, 0, "0x0.0p+0", "0x1.5cfb3c2938ef8p-3",
        "0x1.5cfb3c2938ef8p-2", "0x1.ed88c1fed55bcp-3",
    ),
    (250, "swlz"): (
        2, 0, "0x1.64d4d0b350c62p-1", "0x1.9eeb0ed04458cp-1",
        "0x1.d9014ced37eb5p-1", "0x1.4896cb92c6033p-3",
    ),
    (500, "direct_empirical"): (
        2, 0, "0x1.0f3dce7249476p-2", "0x1.52e7877115d54p-2",
        "0x1.9691406fe2633p-2", "0x1.7ec275d71080dp-4",
    ),
    (500, "direct_eigen"): (
        2, 0, "0x1.060daf2260f9ap-2", "0x1.4b857b53663aep-2",
        "0x1.90fd47846b7c1p-2", "0x1.88f859e557ca3p-4",
    ),
    (500, "swlz"): (
        2, 0, "0x1.2c2d4c821966ep-1", "0x1.5e400a486eee6p-1",
        "0x1.9052c80ec475dp-1", "0x1.1b41c05132875p-3",
    ),
    (1000, "direct_empirical"): (
        2, 0, "0x1.5b81203917404p-2", "0x1.61a12f65b80f0p-2",
        "0x1.67c13e9258ddcp-2", "0x1.1532431dca652p-7",
    ),
    (1000, "direct_eigen"): (
        2, 0, "0x1.5b81203917404p-2", "0x1.60b424b1dd180p-2",
        "0x1.65e7292aa2efdp-2", "0x1.d695f2f8a029ap-8",
    ),
    (1000, "swlz"): (
        2, 0, "0x1.0597846f078fep-1", "0x1.10d4e9449b309p-1",
        "0x1.1c124e1a2ed14p-1", "0x1.fca7fb88e84ddp-6",
    ),
    (5000, "direct_empirical"): (
        2, 0, "0x1.88d9f9a495478p-2", "0x1.a045483852cc0p-2",
        "0x1.b7b096cc10508p-2", "0x1.08f527b4c2041p-5",
    ),
    (5000, "direct_eigen"): (
        2, 0, "0x1.88ab515de2ed6p-2", "0x1.a04ae46ba5c1bp-2",
        "0x1.b7ea777968960p-2", "0x1.0b447e84b663fp-5",
    ),
    (5000, "swlz"): (
        2, 0, "0x1.c79386951532fp-2", "0x1.dab3e60577310p-2",
        "0x1.edd44575d92f2p-2", "0x1.b0c844f1f7ff3p-6",
    ),
    (10000, "direct_empirical"): (
        2, 0, "0x1.a72627f37b0f4p-2", "0x1.b99787527d6e8p-2",
        "0x1.cc08e6b17fcdcp-2", "0x1.a1507720c8db9p-6",
    ),
    (10000, "direct_eigen"): (
        2, 0, "0x1.a7224268efedbp-2", "0x1.b9997d5b6df8ap-2",
        "0x1.cc10b84dec03ap-2", "0x1.a1d502a974551p-6",
    ),
    (10000, "swlz"): (
        2, 0, "0x1.bff0cef867b24p-2", "0x1.d45d71d10282fp-2",
        "0x1.e8ca14a99d53ap-2", "0x1.ce26879e9fed9p-6",
    ),
}


def test_low_plan_cell_means():
    # plans/low-entropy-benchmark.json with 2 replicates.
    plan = ExperimentPlan(
        generator=benchmark_matrix("low", 8, 0.95),
        lengths=(50, 250, 500, 1000, 5000, 10000),
        replicates=2,
        estimators=(
            EstimatorSpec("empirical", 1, True),
            EstimatorSpec("eigen", 1, True),
            EstimatorSpec("swlz", None, True),
        ),
        seed=20170,
    )
    cells = {
        (cell.length, cell.estimator.tag): (
            cell.n_ok, cell.n_failed, cell.minimum.hex(), cell.mean.hex(), cell.maximum.hex(),
            cell.sd.hex(),
        )
        for cell in run_experiment(plan)
    }
    assert cells == LOW_PLAN_CELLS
