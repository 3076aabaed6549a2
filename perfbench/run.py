"""Benchmark of the ``entrate`` CLI on seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc-low --seed 1 --seconds 30 --trace 0

Inputs are generated from ``--seed`` into a scratch directory inside the
checkout, then the workload's CLI invocations are repeated, each in a fresh
interpreter running ``entrate.cli.main``, until ``--seconds`` have passed.
Every repetition's reports are checked (invariants, the true rate on mc-low,
and the stored reference output for the seeds in reference.json).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: medians over
repetitions of wall time and peak memory, the median set-up time of every
fresh interpreter, and the share of estimator applications that succeeded.
Wall and set-up times are scaled to a reference CPU speed sampled while they
run (``worker.SpeedProbe``); the times as measured are printed beside them.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics: medians over the traced repetitions, plus process CPU time
from the untraced ones and the tracing overhead between the two.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every check passed,
1 when an output check failed, and 2 when the benchmark could not run.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("mc-low", "boot-swlz", "boot-direct")
# Stop starting repetitions after this long, whatever --seconds says, so the
# run ends within its 180 s budget; one repetition takes at most ~10 s.
HARD_STOP_S = 150.0
CHILD_TIMEOUT_S = 170.0
BLAS_THREADS = "1"


class BenchError(Exception):
    """The benchmark could not run (as opposed to a wrong output)."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_invocation(argv: list[str], traced: bool, out: Path, deadline: float) -> dict:
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    try:
        proc = subprocess.run([sys.executable, str(WORKER), repr(time.monotonic()),
                               "1" if traced else "0", str(out), str(SRC), "--", *argv],
                              cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"entrate {' '.join(argv[:2])} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    result = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    if result["rc"] != 0:
        raise BenchError(f"entrate {' '.join(argv[:2])} exited {result['rc']}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return result


def environment() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
    }


def measure(args: argparse.Namespace, declared: dict[str, str], tmp: Path,
            started: float) -> tuple[dict, list[str]]:
    """Repeat the workload for ``args.seconds``; return metrics and check failures.

    ``declared`` maps each metric BENCHMARK.json names for this mode to its unit.
    """
    prepared = workloads.prepare(args.workload, args.seed, tmp, args.tiny)
    reference = None if args.tiny else workloads.load_reference(args.workload, args.seed)
    deadline = started + CHILD_TIMEOUT_S
    modes = (False, True) if args.trace else (False,)
    min_reps = 2 * len(modes) if args.trace else 3
    reps: list[dict] = []
    errors: list[str] = []
    first_rows = None
    t_start = time.monotonic()
    while True:
        traced = modes[len(reps) % len(modes)]
        results = [run_invocation(argv, traced, tmp / "worker.json", deadline)
                   for argv in prepared.invocations]
        reports = [json.loads(p.read_text(encoding="utf-8")) for p in prepared.reports]
        for p in prepared.reports:
            p.unlink()
        errors += [f"repetition {len(reps)}: {e}"
                   for e in workloads.check(args.workload, reports, prepared, reference)]
        rows = [workloads.summarize(r) for r in reports]
        if first_rows is None:
            first_rows = rows
        elif rows != first_rows:
            errors.append(f"repetition {len(reps)}: output differs from repetition 0")
        counted = [workloads.attempts(r) for r in reports]
        reps.append({
            "traced": traced,
            "wall_s": sum(r["wall_s"] for r in results),
            "ref_wall_s": sum(r["ref_wall_s"] for r in results),
            "cpu_s": sum(r["cpu_s"] for r in results),
            "setups": [r["setup_s"] for r in results],
            "ref_setups": [r["ref_setup_s"] for r in results],
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
            "attempted": sum(a for a, _ in counted),
            "failed": sum(f for _, f in counted),
            "layers": tracer.layer_metrics(*tracer.merge(
                [(tracer.span_totals(r["spans"]), r["counts"]) for r in results]))
            if traced else None,
        })
        now = time.monotonic()
        if now - t_start >= args.seconds and len(reps) >= min_reps:
            break
        if now - started >= HARD_STOP_S:
            if len(reps) < min_reps:
                raise BenchError(f"only {len(reps)} repetitions fit in {HARD_STOP_S} s")
            break

    plain = [r for r in reps if not r["traced"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if not args.trace:
        values = {
            "wall_s": statistics.median(r["ref_wall_s"] for r in plain),
            "setup_s": statistics.median(s for r in plain for s in r["ref_setups"]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "ok_frac": (attempted - failed) / attempted,
        }
    else:
        traced_reps = [r for r in reps if r["traced"]]
        values = {name: statistics.median(r["layers"][name] for r in traced_reps)
                  for name in traced_reps[0]["layers"]}
        wall = statistics.median(r["ref_wall_s"] for r in plain)
        traced_wall = statistics.median(r["ref_wall_s"] for r in traced_reps)
        values["process.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
        values["trace.overhead_frac"] = (traced_wall - wall) / wall
    if values.keys() != declared.keys():
        raise BenchError(f"metrics {sorted(values.keys() ^ declared.keys())} are "
                         "not both measured and named in BENCHMARK.json")
    metrics = {name: (values[name], declared[name]) for name in declared}
    summary = {"repetitions": len(reps), "traced_repetitions": len(reps) - len(plain),
               "measured_wall_s": [round(r["wall_s"], 4) for r in plain],
               "measured_setup_s": [round(s, 4) for r in plain for s in r["setups"]],
               "ref_wall_s": [round(r["ref_wall_s"], 4) for r in plain],
               "attempted": attempted, "failed": failed,
               "reference_checked": reference is not None}
    return {"metrics": metrics, "summary": summary}, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long input sizes, for the self-test")
    args = parser.parse_args(argv)
    started = time.monotonic()
    # On SIGTERM unwind normally, so subprocess.run kills and reaps the worker
    # and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "entrate" / "__init__.py").is_file():
        print(f"error: no entrate sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"]
                for m in benchmark["per_layer" if args.trace else "end_to_end"]}
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            outcome, errors = measure(args, declared, Path(tmp), started)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics = outcome["metrics"]
    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
                      **outcome["summary"]}))
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": outcome["summary"]["attempted"],
        "failed": outcome["summary"]["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
