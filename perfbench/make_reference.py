"""Write reference.json: the estimates each workload reports for seeds 0..63.

Usage, from the root of a checkout:

    python3 perfbench/make_reference.py

Runs each workload once per seed through the same worker as run.py and stores
the rows ``workloads.summarize`` extracts.  run.py compares later runs with
them to within ``workloads.REFERENCE_TOL``.  Regenerate only when a change is
meant to alter the estimates, and say so with the change.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True

import run  # noqa: E402
import workloads  # noqa: E402

REFERENCE_SEEDS = 64


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    reference: dict[str, dict[str, list]] = {}
    for workload in run.WORKLOADS:
        reference[workload] = {}
        for seed in range(REFERENCE_SEEDS):
            with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
                tmp = Path(tmp)
                prepared = workloads.prepare(workload, seed, tmp, tiny=False)
                for argv in prepared.invocations:
                    run.run_invocation(argv, False, tmp / "worker.json", float("inf"))
                reports = [json.loads(p.read_text(encoding="utf-8"))
                           for p in prepared.reports]
            errors = workloads.check(workload, reports, prepared, None)
            if errors:
                raise SystemExit(f"{workload} seed {seed}: {errors}")
            reference[workload][str(seed)] = [workloads.summarize(r) for r in reports]
            print(f"{workload} seed {seed}", file=sys.stderr)
    lines = []
    for workload, seeds in reference.items():
        body = ",\n".join(f"    {json.dumps(seed)}: {json.dumps(rows)}"
                          for seed, rows in seeds.items())
        lines.append(f"  {json.dumps(workload)}: {{\n{body}\n  }}")
    workloads.REFERENCE_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
