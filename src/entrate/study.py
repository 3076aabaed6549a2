"""The CLI's simulate, experiment and ttest commands, which ``entrate.cli``
imports only to run one of them, and the experiment plan format: the key
tables below, whose unlisted keys are input errors."""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any

from . import cli
from .cli import EXIT_OK, _base_report, _input, _round, _write_reports
from .estimators import EstimatorSpec
from .ingest import InputError, check_writable, read_text, read_tokens, write_text
from .markov import TransitionMatrix

if TYPE_CHECKING:
    from .simulate import ExperimentPlan, ExperimentReport


# ---------------------------------------------------------------- simulate


def _transition_matrix(rows: Any) -> TransitionMatrix:
    """A ``TransitionMatrix`` from a list of rows of numbers, such as parsed
    JSON; raises ``ValueError`` for any other entry (a bool or a numeric
    string is no number)."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("matrix must be a list of rows")
    for row in rows:
        for v in row:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"matrix entry {v!r} is not a number")
    return TransitionMatrix(rows)


def _parse_matrix(text: str) -> TransitionMatrix:
    """A ``--matrix`` file's text as a matrix: JSON rows, or one row per line."""
    if text.lstrip().startswith("["):
        rows = json.loads(text)
    else:
        rows = [
            [float(tok) for tok in line.split()]
            for line in text.splitlines()
            if line.strip() and not line.strip().startswith("#")
        ]
    return _transition_matrix(rows)


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .simulate import SecondOrderParams, benchmark_matrix, simulate_chain, simulate_second_order

    if sum(g is not None for g in (args.benchmark, args.matrix, args.second_order)) != 1:
        raise InputError("choose exactly one generator: --benchmark, --matrix, or --second-order")
    if args.second_order is not None and args.init is not None:
        raise InputError(
            "--init applies to --benchmark and --matrix; --second-order starts stationary"
        )
    if args.benchmark is None and (args.kappa is not None or args.diag is not None):
        raise InputError("--kappa and --diag apply to --benchmark only")
    check_writable(args.out, inputs=[args.matrix])
    if args.second_order is not None:
        abcd = args.second_order.split(",")
        if len(abcd) != 4:
            raise InputError("--second-order expects a,b,c,d")
        params = _input("--second-order", lambda: SecondOrderParams(*map(float, abcd)))
        seq = _input("simulate", simulate_second_order, params, args.length, rng=args.seed)
    else:
        if args.benchmark is not None:
            P = _input("--benchmark", benchmark_matrix, args.benchmark, args.kappa, args.diag)
        else:
            P = _input(args.matrix, _parse_matrix, read_text(args.matrix))
        seq = _input("simulate", simulate_chain, P, args.length, init=args.init, rng=args.seed)
    line = " ".join(seq.tokens()) + "\n"
    if args.out:
        write_text(args.out, line)
        print(f"wrote {seq.length} symbols to {args.out}")
    else:
        sys.stdout.write(line)
    return EXIT_OK


# ---------------------------------------------------------------- experiment


# The plan format: one table per plan object, key -> (type, required).  A key
# its table lacks is refused.  A generator names exactly one of its kinds.
_PLAN_KEYS = {
    "generator": (dict, True), "lengths": (list, True), "replicates": (int, True),
    "estimators": (list, True), "seed": (int, True), "paper_zero_mode": (bool, False),
}
_GENERATOR_KEYS = {
    "benchmark": {"benchmark": (str, True), "kappa": (int, False), "diag": (float, False)},
    "matrix": {"matrix": (list, True)},
    "second_order": {"second_order": (dict, True)},
}
_ABCD_KEYS = dict.fromkeys(("a", "b", "c", "d"), (float, True))
_REPARAM_KEYS = dict.fromkeys(("p", "q", "phi", "gamma"), (float, True))
_ESTIMATOR_KEYS = {"method": (str, True), "order": (int, False)}


def _plan_fields(obj: Any, keys: dict[str, tuple[type, bool]], where: str) -> dict[str, Any]:
    """The values of plan object ``obj`` at path ``where``, checked against its
    table ``keys``: every required key is present, no other key is, and each
    value has its type (an int counts as a float, a bool as no number)."""
    if not isinstance(obj, dict):
        raise InputError(f"plan field '{where}': expected dict")
    missing = [key for key, (_, required) in keys.items() if required and key not in obj]
    if missing:  # named by its object; a top-level key by itself
        raise InputError(f"plan field '{where or missing[0]}': missing {missing[0]!r}")
    fields = {}
    for key, value in obj.items():
        name = f"{where}.{key}" if where else key
        if key not in keys:
            raise InputError(f"plan field '{name}': unknown key")
        kind = keys[key][0]
        if type(value) is not kind and not (kind is float and type(value) is int):
            raise InputError(f"plan field '{name}': expected {kind.__name__}")
        fields[key] = kind(value)  # an int as a float; a dict or list is copied
    return fields


def _load_plan(path: str) -> tuple[ExperimentPlan, dict[str, Any]]:
    """The experiment plan in JSON file ``path``, and its parsed JSON.  The key
    tables above are the plan format: each plan object is checked against its
    table, which refuses any other key; the constructors check the values."""
    from .simulate import (
        BENCHMARK_NAMES, ExperimentPlan, ReparamPoint, SecondOrderParams, benchmark_matrix,
        reparam_to_abcd,
    )

    try:
        plan_dict = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(plan_dict, dict):
        raise InputError("plan must be a JSON object")
    top = _plan_fields(plan_dict, _PLAN_KEYS, "")
    kinds = [kind for kind in _GENERATOR_KEYS if kind in top["generator"]]
    if len(kinds) != 1:
        raise InputError("plan field 'generator': name one kind: benchmark, matrix or second_order")
    gen = _plan_fields(top["generator"], _GENERATOR_KEYS[kinds[0]], "generator")
    if "benchmark" in gen:
        name = gen.pop("benchmark")
        if name not in BENCHMARK_NAMES:
            raise InputError(f"plan field 'generator.benchmark': unknown name {name!r}")
        generator = _input("plan field 'generator'", benchmark_matrix, name, **gen)
    elif "matrix" in gen:
        generator = _input("plan field 'generator.matrix'", _transition_matrix, gen["matrix"])
    else:
        so = gen["second_order"]
        keys = _ABCD_KEYS if "a" in so else _REPARAM_KEYS
        values = _plan_fields(so, keys, "generator.second_order")
        build = SecondOrderParams if "a" in so else lambda **v: reparam_to_abcd(ReparamPoint(**v))
        generator = _input("plan field 'generator.second_order'", build, **values)
    if not all(isinstance(v, int) for v in top["lengths"]):
        raise InputError("plan field 'lengths': expected integers")
    # The plan's top-level flag applies to every estimator it lists.
    zero_mode = top.get("paper_zero_mode", False)
    estimators = []
    for k, item in enumerate(top["estimators"]):
        est = _plan_fields(item, _ESTIMATOR_KEYS, f"estimators[{k}]")
        spec = (est["method"], est.get("order"), zero_mode)
        estimators.append(_input(f"plan field 'estimators[{k}]'", EstimatorSpec, *spec))
    if top["seed"] < 0:
        raise InputError("plan field 'seed': must be >= 0")
    plan = _input(
        "plan validation", ExperimentPlan, generator=generator, lengths=tuple(top["lengths"]),
        replicates=top["replicates"], estimators=tuple(estimators), seed=top["seed"],
    )
    return plan, plan_dict


def _report_to_dict(report: ExperimentReport, plan_dict: dict[str, Any]) -> dict[str, Any]:
    out = _base_report("experiment", report.plan.seed)
    out["plan"] = plan_dict
    out["cells"] = [
        {
            "length": cell.length,
            "method": cell.estimator.tag,
            "order": cell.estimator.order,
            "n_ok": cell.n_ok,
            "n_failed": cell.n_failed,
            "min": _round(cell.minimum),
            "mean": _round(cell.mean),
            "max": _round(cell.maximum),
            "sd": _round(cell.sd),
        }
        for cell in report.cells
    ]
    return out


def _cmd_experiment(args: argparse.Namespace) -> int:
    plan, plan_dict = _load_plan(args.plan)
    json_path = args.json or str(Path(args.plan).with_suffix(".report.json"))
    check_writable(json_path, args.csv, inputs=[args.plan])
    report = cli.run_experiment(plan)  # looked up where the tests patch it
    out = _report_to_dict(report, plan_dict)
    _write_reports(json_path, args.csv, out, out["cells"])
    fmt = "{:>7} {:>22} {:>9} {:>9} {:>9} {:>9} {:>7}"
    print(fmt.format("length", "estimator", "min", "mean", "max", "sd", "failed"))
    for c in report.cells:
        print(
            fmt.format(
                c.length,
                c.estimator.describe(),
                "-" if c.minimum is None else f"{c.minimum:.4f}",
                "-" if c.mean is None else f"{c.mean:.4f}",
                "-" if c.maximum is None else f"{c.maximum:.4f}",
                "-" if c.sd is None else f"{c.sd:.4f}",
                c.n_failed,
            )
        )
    print(f"report written to {json_path}")
    return EXIT_OK


# ---------------------------------------------------------------- ttest


def _read_numbers(path: str) -> list[float]:
    tokens = read_tokens(path)
    values = _input(f"{path}: non-numeric value", lambda: [float(t) for t in tokens])
    bad = [t for t, v in zip(tokens, values) if not math.isfinite(v)]
    if bad:
        raise InputError(f"{path}: non-finite value(s): {', '.join(bad)}")
    return values


def _cmd_ttest(args: argparse.Namespace) -> int:
    from .stats import ttest_pooled

    a = _read_numbers(args.group_a)
    b = _read_numbers(args.group_b)
    check_writable(args.json, args.csv, inputs=[args.group_a, args.group_b])
    cmp = ttest_pooled(a, b)
    stats = {
        "t_statistic": _round(cmp.t_statistic),
        "df": cmp.df,
        "mean_a": _round(cmp.means[0]),
        "mean_b": _round(cmp.means[1]),
        "n_a": len(cmp.group_a),
        "n_b": len(cmp.group_b),
    }
    _write_reports(args.json, args.csv, _base_report("ttest", None) | stats, [stats])
    print(f"t = {cmp.t_statistic:.4f}  (df = {cmp.df})")
    print(f"group means: a = {cmp.means[0]:.4f}, b = {cmp.means[1]:.4f}")
    return EXIT_OK
