"""The benchmark's workloads: seeded inputs, CLI invocations and output checks.

Each workload turns a seed into input files under a scratch directory and a
list of ``entrate`` CLI argument lists; the program sees only those files.
``check`` validates the JSON reports one repetition wrote.  Why each workload
exists is recorded in BENCHMARK.json and README.md beside this file.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

# Largest gap between an estimate and its stored reference output.
REFERENCE_TOL = 1e-9
# Largest gap between the n=10000 empirical mean on mc-low and the true rate.
TRUE_RATE_TOL = 0.05
REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Replicate counts are scaled down from the shipped plan / ROADMAP figures so
# one repetition takes 1-5 s; input sizes are kept, because they decide which
# layer each workload loads.
FULL = {"mc_replicates": 10, "mc_lengths": [50, 250, 500, 1000, 5000, 10000],
        "n": 10_000, "swlz_replicates": 40, "direct_replicates": 2,
        "order_high": 4, "order_low": 2}
# A seconds-long configuration for the benchmark's self-test only.
TINY = {"mc_replicates": 2, "mc_lengths": [50, 250, 500],
        "n": 500, "swlz_replicates": 2, "direct_replicates": 2,
        "order_high": 3, "order_low": 1}

_FAILED_REPLICATES = re.compile(r"(\d+) bootstrap replicate\(s\) failed")


@dataclass(frozen=True)
class Prepared:
    """Generated inputs of one workload run: CLI calls and where they report."""

    invocations: list[list[str]]
    reports: list[Path]
    expect: dict


def _write_sequence(path: Path, benchmark: str, n: int, seed: int) -> None:
    from entrate import benchmark_matrix, simulate_chain

    seq = simulate_chain(benchmark_matrix(benchmark), n, rng=seed)
    path.write_text(" ".join(seq.tokens()) + "\n", encoding="utf-8")


def _report_args(tmp: Path, tag: str) -> tuple[list[str], Path]:
    report = tmp / f"{tag}.report.json"
    return ["--json", str(report), "--csv", str(tmp / f"{tag}.report.csv")], report


def prepare(workload: str, seed: int, tmp: Path, tiny: bool) -> Prepared:
    size = TINY if tiny else FULL
    if workload == "mc-low":
        # plans/low-entropy-benchmark.json with the seed from the argument.
        plan = {
            "generator": {"benchmark": "low", "kappa": 8, "diag": 0.95},
            "lengths": size["mc_lengths"],
            "replicates": size["mc_replicates"],
            "estimators": [
                {"method": "empirical", "order": 1},
                {"method": "eigen", "order": 1},
                {"method": "swlz"},
            ],
            "seed": seed,
            "paper_zero_mode": True,
        }
        plan_path = tmp / "low-entropy.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        extra, report = _report_args(tmp, "experiment")
        return Prepared([["experiment", str(plan_path), *extra]], [report],
                        {"replicates": plan["replicates"], "lengths": plan["lengths"],
                         "methods": 3})
    if workload == "boot-swlz":
        data = tmp / "high.txt"
        _write_sequence(data, "high", size["n"], seed)
        b = size["swlz_replicates"]
        extra, report = _report_args(tmp, "bootstrap")
        argv = ["bootstrap", str(data), "--method", "swlz", "--method", "empirical",
                "--replicates", str(b), "--seed", str(seed), *extra]
        return Prepared([argv], [report], {"replicates": [b], "methods": [2]})
    if workload == "boot-direct":
        data = tmp / "medium.txt"
        _write_sequence(data, "medium", size["n"], seed)
        b = size["direct_replicates"]
        extra1, report1 = _report_args(tmp, "bootstrap-high-order")
        extra2, report2 = _report_args(tmp, "bootstrap-cesaro")
        common = ["--replicates", str(b), "--seed", str(seed)]
        first = ["bootstrap", str(data), "--method", "empirical",
                 "--order", str(size["order_high"]), *common, *extra1]
        second = ["bootstrap", str(data), "--method", "eigen", "--method", "limit",
                  "--order", str(size["order_low"]), *common, *extra2]
        return Prepared([first, second], [report1, report2],
                        {"replicates": [b, b], "methods": [1, 2]})
    raise ValueError(f"unknown workload {workload!r}")


def summarize(report: dict) -> list[list]:
    """The reported estimates of one CLI report, as rows to compare."""
    if report["command"] == "experiment":
        return [[c["length"], c["method"], c["order"], c["n_ok"], c["n_failed"],
                 c["min"], c["mean"], c["max"], c["sd"]] for c in report["cells"]]
    return [[e["method"], e["order"], e["replicates"], e["value_bits"], e["se"],
             e["p_used"]] for e in report["estimates"]]


def attempts(report: dict) -> tuple[int, int]:
    """(estimator applications attempted, failed) as the report states them."""
    if report["command"] == "experiment":
        ok = sum(c["n_ok"] for c in report["cells"])
        failed = sum(c["n_failed"] for c in report["cells"])
        return ok + failed, failed
    attempted = failed = 0
    for e in report["estimates"]:
        attempted += 1 + e["replicates"]  # point estimate plus replicates
        for w in e["warnings"]:
            match = _FAILED_REPLICATES.search(w)
            if match:
                failed += int(match.group(1))
    return attempted, failed


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _check_invariants(workload: str, reports: list[dict], expect: dict) -> list[str]:
    errors = []
    if workload == "mc-low":
        cells = reports[0]["cells"]
        if len(cells) != len(expect["lengths"]) * expect["methods"]:
            errors.append(f"{len(cells)} cells reported")
        for c in cells:
            where = f"cell n={c['length']} {c['method']}"
            if c["n_ok"] + c["n_failed"] != expect["replicates"]:
                errors.append(f"{where}: n_ok + n_failed != {expect['replicates']}")
            values = [c["min"], c["mean"], c["max"]] + ([c["sd"]] if c["n_ok"] > 1 else [])
            if c["n_ok"] and not all(_finite(v) for v in values):
                errors.append(f"{where}: non-finite value in {values}")
        return errors
    for report, b, methods in zip(reports, expect["replicates"], expect["methods"]):
        if len(report["estimates"]) != methods:
            errors.append(f"{len(report['estimates'])} estimates, expected {methods}")
        for e in report["estimates"]:
            where = f"{e['method']}(m={e['order']})"
            if e["replicates"] != b:
                errors.append(f"{where}: {e['replicates']} replicates, expected {b}")
            if not all(_finite(v) for v in (e["value_bits"], e["se"], e["p_used"])):
                errors.append(f"{where}: non-finite estimate, SE or p")
            elif e["se"] < 0:
                errors.append(f"{where}: negative SE")
    return errors


def true_rate_low() -> float:
    from entrate import benchmark_matrix, entropy_rate, stationary_eigen

    P = benchmark_matrix("low", kappa=8, diag=0.95)
    return entropy_rate(P, stationary_eigen(P)).value


def _compare_rows(got: list[list], want: list[list], label: str) -> list[str]:
    if len(got) != len(want):
        return [f"{label}: {len(got)} rows, reference has {len(want)}"]
    errors = []
    for row, ref in zip(got, want):
        for g, w in zip(row, ref):
            if isinstance(w, float) and isinstance(g, (int, float)):
                if not abs(g - w) <= REFERENCE_TOL:
                    errors.append(f"{label}: {row} differs from reference {ref}")
                    break
            elif g != w:
                errors.append(f"{label}: {row} differs from reference {ref}")
                break
    return errors


def check(workload: str, reports: list[dict], prepared: Prepared,
          reference: list[list[list]] | None) -> list[str]:
    """Every problem found in one repetition's reports; empty when correct.

    ``reference`` holds the rows ``summarize`` gave for this workload and seed
    when the reference file was written, or None for seeds not stored there.
    """
    errors = _check_invariants(workload, reports, prepared.expect)
    if workload == "mc-low" and prepared.expect["lengths"][-1] == 10_000:
        mean = next((c["mean"] for c in reports[0]["cells"]
                     if c["length"] == 10_000 and c["method"] == "direct_empirical"), None)
        truth = true_rate_low()
        if mean is None:
            errors.append("no n=10000 direct_empirical cell in the report")
        elif not (_finite(mean) and abs(mean - truth) <= TRUE_RATE_TOL):
            errors.append(f"n=10000 empirical mean {mean} is not within "
                          f"{TRUE_RATE_TOL} of the true rate {truth:.6f}")
    if reference is not None:
        for i, (report, ref) in enumerate(zip(reports, reference)):
            errors += _compare_rows(summarize(report), ref, f"invocation {i}")
    return errors


def load_reference(workload: str, seed: int) -> list[list[list]] | None:
    """Stored rows for this workload and seed, or None for a seed not stored."""
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))
