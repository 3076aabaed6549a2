"""Golden reports of the ``entrate`` CLI: the JSON, CSV and standard output of
a fixed list of small runs, one set of files per run in this directory, and
of each shipped ``plans/*.json`` run through ``entrate experiment``, in
``plans/`` here.

    python tests/golden/regenerate.py

rewrites every golden file from the source tree this script sits in;
``tests/test_golden.py`` runs the same ``CASES`` and compares byte for byte.
The shipped plans take seconds, so only this script runs them; a change
that leaves ``git diff tests/golden`` empty after it kept their reports.
Each run happens in a fresh working directory holding the inputs that
``write_inputs`` draws from fixed seeds, or a copy of the plan, under
relative names, so that no report holds a machine path.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent
PLAN_GOLDEN = GOLDEN / "plans"
SHIPPED_PLANS = GOLDEN.parents[1] / "plans"
SUFFIXES = (".stdout", ".json", ".csv")

# name -> argv; a run that writes reports writes ``<name>.json`` and ``<name>.csv``.
CASES = {
    "estimate": [
        "estimate", "a.txt", "b.txt", "--exclude-boundaries", "--method", "empirical",
        "--method", "eigen", "--method", "limit", "--method", "swlz", "--order", "2",
        "--json", "estimate.json", "--csv", "estimate.csv",
    ],
    "bootstrap": [
        "bootstrap", "a.txt", "--method", "empirical", "--method", "swlz", "--replicates", "20",
        "--seed", "4", "--json", "bootstrap.json", "--csv", "bootstrap.csv",
    ],
    "parse": [
        "parse", "--text", "A B A B B A B A A A B A B B B A", "--json", "parse.json",
        "--csv", "parse.csv",
    ],
    "ttest": ["ttest", "group_a.txt", "group_b.txt", "--json", "ttest.json", "--csv", "ttest.csv"],
    "simulate": ["simulate", "--benchmark", "medium", "--length", "300", "--seed", "3"],
    "experiment": [
        "experiment", "plan.json", "--json", "experiment.json", "--csv", "experiment.csv",
    ],
}

PLAN = {
    "generator": {"benchmark": "low", "kappa": 4},
    "lengths": [100, 500],
    "replicates": 2,
    "estimators": [
        {"method": "empirical", "order": 1},
        {"method": "eigen", "order": 1},
        {"method": "limit", "order": 1},
        {"method": "swlz"},
    ],
    "seed": 7,
    "paper_zero_mode": True,
}


def _sticky_tokens(n: int, seed: int) -> str:
    """n symbols over "ABCD" that repeat the last one with probability 1/2 and
    are otherwise uniform, drawn with numpy alone so the inputs do not depend
    on the code under test."""
    rng = np.random.default_rng(seed)
    moves, fresh = rng.random(n) < 0.5, rng.integers(0, 4, n)
    states = [int(fresh[0])]
    for move, value in zip(moves[1:].tolist(), fresh[1:].tolist()):
        states.append(value if move else states[-1])
    return " ".join("ABCD"[s] for s in states) + "\n"


def write_inputs(workdir: Path) -> None:
    """The input files every case reads, under ``workdir``."""
    (workdir / "a.txt").write_text(_sticky_tokens(400, 1))
    (workdir / "b.txt").write_text(_sticky_tokens(300, 2))
    for name, seed, shift in (("group_a.txt", 3, 1.6), ("group_b.txt", 4, 1.4)):
        values = np.random.default_rng(seed).normal(shift, 0.2, 12)
        (workdir / name).write_text("\n".join(f"{v:.4f}" for v in values) + "\n")
    (workdir / "plan.json").write_text(json.dumps(PLAN, indent=2) + "\n")


def run_case(name: str, workdir: Path) -> dict[str, bytes]:
    """The golden files of case ``name`` by file name, from running it with
    ``entrate.cli.main`` in ``workdir``, where ``write_inputs`` has run."""
    return _run(name, CASES[name], workdir)


def run_plan(plan: Path, workdir: Path) -> dict[str, bytes]:
    """The golden files of the shipped ``plan`` by file name, from running
    ``entrate experiment plans/<name>.json`` on a copy of it in ``workdir``,
    with the reports ``<name>.json`` and ``<name>.csv``."""
    name = plan.stem
    (workdir / "plans").mkdir()
    shutil.copy(plan, workdir / "plans" / plan.name)
    argv = ["experiment", f"plans/{plan.name}", "--json", f"{name}.json", "--csv", f"{name}.csv"]
    return _run(name, argv, workdir)


def _run(name: str, argv: list[str], workdir: Path) -> dict[str, bytes]:
    from entrate.cli import main

    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            rc = main(list(argv))
    finally:
        os.chdir(cwd)
    if rc != 0:
        raise RuntimeError(f"entrate {' '.join(argv)} exited {rc}")
    files = {f"{name}.stdout": stdout.getvalue().encode("utf-8")}
    for suffix in SUFFIXES[1:]:
        report = workdir / f"{name}{suffix}"
        if report.exists():
            files[report.name] = report.read_bytes()
    return files


def golden_files(directory: Path = GOLDEN) -> list[Path]:
    """The golden files now in ``directory``."""
    return sorted(p for p in directory.iterdir() if p.suffix in SUFFIXES)


def main() -> None:
    PLAN_GOLDEN.mkdir(exist_ok=True)
    for old in golden_files() + golden_files(PLAN_GOLDEN):
        old.unlink()
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            write_inputs(Path(tmp))
            for file_name, data in run_case(name, Path(tmp)).items():
                (GOLDEN / file_name).write_bytes(data)
    for plan in sorted(SHIPPED_PLANS.glob("*.json")):
        with tempfile.TemporaryDirectory() as tmp:
            for file_name, data in run_plan(plan, Path(tmp)).items():
                (PLAN_GOLDEN / file_name).write_bytes(data)


if __name__ == "__main__":
    # The goldens describe the source tree this script belongs to.
    sys.path.insert(0, str(GOLDEN.parents[1] / "src"))
    main()
