"""Command-line interface.

Subcommands: estimate, bootstrap, simulate, experiment, ttest, parse.
Reports are written as versioned JSON (--json) with a flat CSV mirror
(--csv), both checked to be writable, and to be neither an input nor each
other, before the estimates or the plan run; a human-readable summary
always goes to standard output.  The key tables of this module are the
format of an experiment plan, and a key they do not list is an input error.
Exit codes: 0 success; 1 InputError (a path that cannot be read as UTF-8 or
written, a malformed file or plan, a misused flag); 2 EstimationError (too
short, reducible, state space too large).  Each writes a JSON error object
to standard error; any other exception is a bug.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from collections import Counter
from collections.abc import Callable
from pathlib import Path
from typing import Any

from . import __version__
from .bootstrap import BootstrapConfig, bootstrap_se
# perfbench/tracer.py wraps cli.estimate_direct_pooled, which nothing here calls.
from .direct import DIRECT_METHODS, EntropyEstimate, estimate_direct_pooled  # noqa: F401
from .estimators import EstimatorSpec, run_estimator
from .ingest import (
    InputError,
    check_writable,
    ingest_many,
    read_text,
    read_tokens,
    tokens_from_text,
    write_text,
)
from .markov import EstimationError, Sequence, TransitionMatrix
from .simulate import (
    BENCHMARK_NAMES,
    ExperimentPlan,
    ExperimentReport,
    ReparamPoint,
    SecondOrderParams,
    benchmark_matrix,
    reparam_to_abcd,
    run_experiment,
    simulate_chain,
    simulate_second_order,
)
from .stats import ttest_pooled
from .swlz import format_parsing, swlz_parse

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2


class _Parser(argparse.ArgumentParser):
    # Flag misuse is an input error (exit 1), not argparse's default exit 2.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise InputError(message)


def _base_report(command: str, seed: int | None) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
        "seed": seed,
    }


def _write_reports(
    json_path: str | None,
    csv_path: str | None,
    report: dict[str, Any],
    rows: list[dict[str, Any]],
) -> None:
    """Write ``report`` as JSON and its ``rows`` as the flat CSV mirror; a
    None path skips that file.  Each command has passed both paths to
    ``check_writable`` before its work, so neither is written unless both
    can be.  The CSV header is the rows' keys, and a list cell is joined
    with "; "."""
    if json_path:
        write_text(json_path, json.dumps(report, indent=2) + "\n")
    if csv_path:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(rows[0])
        for row in rows:
            writer.writerow("; ".join(v) if isinstance(v, list) else v for v in row.values())
        write_text(csv_path, buffer.getvalue())


def _round(x: float | None, digits: int = 10) -> float | None:
    return None if x is None else round(float(x), digits)


def _input(prefix: str, build: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """``build(*args, **kwargs)``, whose ``ValueError`` becomes an ``InputError``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise InputError(f"{prefix}: {exc}") from exc


# ---------------------------------------------------------------- estimate


def _add_input_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("files", nargs="*", metavar="FILE", help="sequence file(s)")
    sub.add_argument("--text", help="inline sequence; not combinable with FILE(s)")
    sub.add_argument(
        "--format",
        choices=("tokens", "lines"),
        default="tokens",
        help="layout of FILE(s) and the --alphabet file: whitespace-separated "
        "tokens, or one token per line",
    )
    sub.add_argument(
        "--collapse-repeats",
        action="store_true",
        help="merge consecutive identical symbols before analysis",
    )
    sub.add_argument("--alphabet", metavar="FILE", help="declared alphabet, in the --format layout")


def _add_report_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", metavar="OUT", help="write JSON report here")
    sub.add_argument("--csv", metavar="OUT", help="write flat CSV report here")


def _read_alphabet(path: str | None, fmt: str) -> tuple[str, ...] | None:
    if path is None:
        return None
    symbols = tuple(read_tokens(path, fmt))
    repeated = sorted(t for t, n in Counter(symbols).items() if n > 1)
    if repeated:
        raise InputError(f"{path}: alphabet repeats token(s): {', '.join(repeated)}")
    return symbols


def _load_sequence(args: argparse.Namespace) -> tuple[Sequence, list[int], dict[str, Any]]:
    """The input sequence, its source starts and the report's input block.
    The report paths are checked here, before any estimate runs."""
    if args.text is not None and args.files:
        raise InputError("pass FILE(s) or --text, not both")
    declared = _read_alphabet(args.alphabet, args.format)
    if args.text is not None:
        sources = [("--text", tokens_from_text(args.text))]
    elif args.files:
        sources = [(p, read_tokens(p, args.format)) for p in args.files]
    else:
        raise InputError("no input: pass FILE(s) or --text")
    seq, starts = ingest_many(sources, declared, args.collapse_repeats)
    check_writable(args.json, args.csv, inputs=[*args.files, args.alphabet])
    source = {
        "text": args.text is not None,
        "files": list(args.files),
        "n_obs": seq.length,
        "kappa": seq.alphabet.kappa,
        "alphabet": list(seq.alphabet.symbols),
        "collapse_repeats": bool(args.collapse_repeats),
    }
    return seq, starts, source


def _split_segments(seq: Sequence, starts: list[int]) -> list[Sequence]:
    bounds = starts + [seq.length]
    return [Sequence(seq.states[a:b], seq.alphabet) for a, b in zip(bounds, bounds[1:])]


def _checked(cast, ok, rule: str):
    """An argparse type: ``cast`` the text, then require ``ok(value)``, which
    ``rule`` states."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {cast.__name__}, got {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {value}")
        return value

    return parse


_replicate_count = _checked(int, lambda v: v >= 2, "need at least 2 replicates")
_order = _checked(int, lambda v: v >= 1, "order must be >= 1")
_block_p = _checked(float, lambda v: 0.0 < v <= 1.0, "p must lie in (0, 1]")
_seed = _checked(int, lambda v: v >= 0, "seed must be >= 0")


def _estimator_specs(args: argparse.Namespace) -> list[EstimatorSpec]:
    methods = args.method or ["empirical"]
    for method, count in Counter(methods).items():
        if count > 1:
            raise InputError(f"--method: {method} listed twice")
    if args.order is not None and not set(methods) & set(DIRECT_METHODS):
        raise InputError("--order applies to the direct methods; swlz takes no order")
    if args.paper_zero_mode and not set(methods) & {"eigen", "limit"}:
        raise InputError("--paper-zero-mode applies to eigen and limit only")
    return [
        EstimatorSpec(m, None if m == "swlz" else args.order, args.paper_zero_mode)
        for m in methods
    ]


def _estimate_record(
    est: EntropyEstimate,
    se: float | None,
    p_used: float | None,
    replicates: int | None,
    extra_warnings: list[str],
) -> dict[str, Any]:
    return {
        "method": est.method,
        "order": est.order,
        "value_bits": _round(est.value),
        "se": _round(se),
        "p_used": _round(p_used),
        "replicates": replicates,
        "warnings": list(est.warnings) + extra_warnings,
    }


def _cmd_estimate(args: argparse.Namespace) -> int:
    replicates = args.replicates
    if args.p is not None and replicates is None:
        raise InputError("--p sets the bootstrap block parameter; it needs --replicates")
    if args.seed is not None and replicates is None:
        raise InputError("--seed sets the bootstrap RNG seed; it needs --replicates")
    seed = 0 if args.seed is None else args.seed
    specs = _estimator_specs(args)
    seq, starts, source = _load_sequence(args)
    segments = _split_segments(seq, starts) if args.exclude_boundaries else [seq]
    records = []
    lines = []
    for spec in specs:
        se = p_used = None
        extra: list[str] = []
        first, *more = [seq] if spec.method == "swlz" else segments
        if replicates:
            config = BootstrapConfig(p=args.p, replicates=replicates, seed=seed)
            result = bootstrap_se(first, spec, config, *more)
            est, se, p_used = result.point, result.standard_error, result.p_used
            extra.extend(result.warnings)
        else:
            est = run_estimator(first, spec, *more)
        if args.exclude_boundaries:
            extra.append(
                "--exclude-boundaries does not apply to swlz: the files were concatenated"
                if spec.method == "swlz"
                else "transitions across file boundaries excluded"
            )
        records.append(_estimate_record(est, se, p_used, replicates, extra))
        detail = f"{est.value:.4f} bits"
        if se is not None:
            detail += f"  (SE {se:.4f}, p={p_used:.4f}, B={replicates})"
        lines.append(f"{spec.describe():>24}: {detail}")
        for w in records[-1]["warnings"]:
            lines.append(f"{'':>26}warning: {w}")
    report = _base_report(args.command, seed if replicates else None)
    report["input"] = source
    report["estimates"] = records
    _write_reports(args.json, args.csv, report, records)
    print(f"n = {seq.length} observations over {seq.alphabet.kappa} symbols")
    for line in lines:
        print(line)
    return EXIT_OK


# ---------------------------------------------------------------- parse


def _cmd_parse(args: argparse.Namespace) -> int:
    seq, _, source = _load_sequence(args)
    parsing = swlz_parse(seq)
    rendered = format_parsing(seq, parsing)
    report = _base_report("parse", None)
    report["input"] = source
    report["phrases"] = [
        {"start": s, "length": ln} for s, ln in parsing.phrases
    ]
    report["last_capped"] = parsing.last_capped
    report["rendered"] = rendered
    _write_reports(args.json, args.csv, report, report["phrases"])
    print(rendered)
    return EXIT_OK


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
    report = run_experiment(plan)
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


# ---------------------------------------------------------------- wiring


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="entrate", description=__doc__)
    parser.add_argument("--version", action="version", version=f"entrate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # bootstrap is estimate with --replicates required.
    for name, help_text in (
        ("estimate", "entropy rate estimates for a sequence file"),
        ("bootstrap", "bootstrap standard errors (requires --replicates)"),
    ):
        est = sub.add_parser(name, help=help_text)
        est.set_defaults(run=_cmd_estimate)
        _add_input_options(est)
        est.add_argument(
            "--method",
            action="append",
            choices=(*DIRECT_METHODS, "swlz"),
            help="estimator; repeatable (default: empirical)",
        )
        est.add_argument(
            "--order", type=_order, help="assumed chain order m of the direct methods (default 1)"
        )
        est.add_argument(
            "--paper-zero-mode",
            action="store_true",
            help="report reducible eigen/limit estimates as 0 instead of failing",
        )
        est.add_argument(
            "--exclude-boundaries",
            action="store_true",
            help="do not count transitions spanning file boundaries (direct methods); "
            "the bootstrap resamples each file on its own",
        )
        est.add_argument(
            "--replicates",
            type=_replicate_count,
            required=name == "bootstrap",
            help="attach bootstrap SE with B >= 2 replicates",
        )
        est.add_argument(
            "--p", type=_block_p, help="bootstrap block parameter override (needs --replicates)"
        )
        est.add_argument(
            "--seed", type=_seed, help="bootstrap RNG seed (default 0; needs --replicates)"
        )
        _add_report_options(est)

    par = sub.add_parser("parse", help="shortest-never-seen phrase decomposition")
    par.set_defaults(run=_cmd_parse)
    _add_input_options(par)
    _add_report_options(par)

    sim = sub.add_parser("simulate", help="simulate a sequence from a known chain")
    sim.set_defaults(run=_cmd_simulate)
    sim.add_argument("--benchmark", choices=BENCHMARK_NAMES)
    sim.add_argument("--matrix", metavar="FILE", help="explicit row-stochastic matrix")
    sim.add_argument("--second-order", metavar="A,B,C,D", help="two-state pair chain")
    sim.add_argument("--kappa", type=int, help="states of --benchmark (default 8)")
    sim.add_argument("--diag", type=float, help="P_ii of --benchmark low (default 0.95)")
    sim.add_argument("--length", type=int, required=True)
    sim.add_argument(
        "--init",
        type=int,
        help="fixed initial state for --benchmark or --matrix (default: stationary)",
    )
    sim.add_argument("--seed", type=_seed, default=0)
    sim.add_argument("--out", metavar="FILE", help="write tokens here instead of stdout")

    exp = sub.add_parser("experiment", help="run a Monte Carlo experiment plan")
    exp.set_defaults(run=_cmd_experiment)
    exp.add_argument("plan", metavar="PLAN.json")
    _add_report_options(exp)

    tt = sub.add_parser("ttest", help="pooled-variance two-sample t statistic")
    tt.set_defaults(run=_cmd_ttest)
    tt.add_argument("group_a", metavar="FILE_A")
    tt.add_argument("group_b", metavar="FILE_B")
    _add_report_options(tt)

    return parser


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}}) + "\n")


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except InputError as exc:
        _emit_error("input", str(exc))
        return EXIT_INPUT
    except EstimationError as exc:
        _emit_error("numeric", str(exc))
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
