"""Span tracing for the benchmark, from outside the program.

``Tracer.install`` replaces public ``entrate`` functions with wrappers at the
module attributes their callers look them up through.  ``from .x import f``
copies the reference into the importing module, so each consumer's binding is
wrapped on its own (``BINDINGS``).  Every call records a span
``[name, start, end, parent]`` in memory; ``restore`` puts the originals back.
Work counts are taken from the wrapped functions' return values and
exceptions only, so one seed always gives the same counts.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

# (consumer module, attribute) pairs to wrap.  The span is named after the
# module that defines the function, so one function bound in several
# consumers reports under one name.
BINDINGS = (
    ("entrate.cli", "run_experiment"),
    ("entrate.cli", "bootstrap_se"),
    ("entrate.cli", "ingest_many"),
    ("entrate.cli", "run_estimator"),
    ("entrate.cli", "estimate_direct_pooled"),
    ("entrate.simulate", "simulate_chain"),
    ("entrate.simulate", "run_estimator"),
    ("entrate.simulate", "stationary_eigen"),
    ("entrate.bootstrap", "run_estimator"),
    ("entrate.bootstrap", "stationary_bootstrap_sample"),
    ("entrate.estimators", "swlz_entropy"),
    ("entrate.estimators", "estimate_direct"),
    ("entrate.swlz", "novel_lengths"),
    ("entrate.direct", "embed_order"),
    ("entrate.direct", "count_transitions"),
    ("entrate.direct", "mle_transition_matrix"),
    ("entrate.direct", "is_irreducible"),
    ("entrate.direct", "stationary_empirical"),
    ("entrate.direct", "stationary_eigen"),
    ("entrate.direct", "stationary_limit"),
    ("entrate.direct", "entropy_rate"),
)

ROOT_SPAN = "cli.main"
LAYERS = ("simulate", "markov", "direct", "swlz", "bootstrap", "estimators", "ingest", "cli")
FAILURE_TYPES = ("ReducibleMatrixError", "ValueError", "LinAlgError")


def _span_name(func) -> str:
    return f"{func.__module__.rsplit('.', 1)[-1]}.{func.__name__}"


class Tracer:
    """In-memory span recorder and work counters for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        # id(array owning the symbols) -> [array, most positions SWLZ needed].
        # Holding the array keeps its id from being reused within the run.
        self._swlz_roots: dict[int, list] = {}

    def install(self) -> None:
        for module_name, attr in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original))
            self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        self.counts["swlz.needed"] = sum(pos for _, pos in self._swlz_roots.values())
        self._swlz_roots.clear()

    def call(self, name: str, func, *args, **kwargs):
        """Run ``func`` inside a span called ``name``."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, original):
        name = _span_name(original)
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            try:
                result = self.call(name, original, *args, **kwargs)
            except Exception as exc:
                if name == "estimators.run_estimator":
                    kind = type(exc).__name__
                    self.counts[f"failures.{kind if kind in FAILURE_TYPES else 'other'}"] += 1
                raise
            if observe is not None:
                observe(self, args, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper


def _observe_novel_lengths(tracer: Tracer, args: tuple, result) -> None:
    positions = result.n_positions
    tracer.counts["swlz.positions"] += positions
    tracer.counts["swlz.match_steps"] += result.total() - positions
    root = args[0].states
    while root.base is not None:
        root = root.base
    entry = tracer._swlz_roots.setdefault(id(root), [root, 0])
    entry[1] = max(entry[1], positions)


def _observe_counts(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["markov.states_total"] += result.kappa
    tracer.counts["markov.states_visited"] += int((result.row_totals_arr > 0).sum())
    if result.dense is not None:
        nbytes = result.dense.nbytes
    else:  # map-of-maps: priced as (src, dst, count) int64 triples
        nbytes = 24 * sum(len(row) for row in result.sparse.values())
    nbytes += result.row_totals_arr.nbytes
    tracer.counts["markov.count_table_bytes"] = max(
        tracer.counts["markov.count_table_bytes"], nbytes
    )


def _observe_estimate(tracer: Tracer, args: tuple, result) -> None:
    if any("forced to 0" in w for w in result.warnings):
        tracer.counts["direct.zero_forced"] += 1


def _observe_ingest(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["ingest.tokens"] += result[0].length


_OBSERVERS = {
    "swlz.novel_lengths": _observe_novel_lengths,
    "markov.count_transitions": _observe_counts,
    "direct.estimate_direct": _observe_estimate,
    "direct.estimate_direct_pooled": _observe_estimate,
    "ingest.ingest_many": _observe_ingest,
}


def span_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: inclusive seconds, call count and self seconds.

    Self time is a span's duration minus the time its direct children cover;
    children of one parent run one after another on the single thread.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for (name, start, end, _), covered in zip(spans, child_time):
        entry = totals.setdefault(name, {"s": 0.0, "calls": 0, "self_s": 0.0})
        entry["s"] += end - start
        entry["calls"] += 1
        entry["self_s"] += end - start - covered
    return totals


def merge(parts: list[tuple[dict, dict]]) -> tuple[dict, Counter]:
    """Add up span totals and counts of several invocations (one repetition)."""
    totals: dict[str, dict[str, float]] = {}
    counts: Counter = Counter()
    for part_totals, part_counts in parts:
        for name, entry in part_totals.items():
            acc = totals.setdefault(name, {"s": 0.0, "calls": 0, "self_s": 0.0})
            for key, value in entry.items():
                acc[key] += value
        for key, value in part_counts.items():
            if key == "markov.count_table_bytes":
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value
    return totals, counts


def layer_metrics(totals: dict, counts: Counter) -> dict[str, float]:
    """The per-layer metrics of one traced repetition, except the two the
    runner takes from its untraced repetitions (process.cpu_s and
    trace.overhead_frac)."""

    def span(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        "swlz.novel_lengths.s": span("swlz.novel_lengths", "s"),
        "swlz.novel_lengths.calls": span("swlz.novel_lengths", "calls"),
        "swlz.positions": counts["swlz.positions"],
        "swlz.match_steps": counts["swlz.match_steps"],
        "swlz.useful_frac": ratio(counts["swlz.needed"], counts["swlz.positions"]),
        "markov.embed_order.s": span("markov.embed_order", "s"),
        "markov.count_transitions.s": span("markov.count_transitions", "s"),
        "markov.mle_transition_matrix.s": span("markov.mle_transition_matrix", "s"),
        "markov.is_irreducible.s": span("markov.is_irreducible", "s"),
        "markov.states_visited_frac": ratio(
            counts["markov.states_visited"], counts["markov.states_total"]
        ),
        "markov.count_table_bytes": counts["markov.count_table_bytes"],
        "direct.stationary_limit.s": span("direct.stationary_limit", "s"),
        "direct.stationary_eigen.s": span("direct.stationary_eigen", "s"),
        "direct.stationary_empirical.s": span("direct.stationary_empirical", "s"),
        "direct.entropy_rate.s": span("direct.entropy_rate", "s"),
        "direct.zero_forced": counts["direct.zero_forced"],
        "bootstrap.stationary_bootstrap_sample.s": span(
            "bootstrap.stationary_bootstrap_sample", "s"
        ),
        "bootstrap.stationary_bootstrap_sample.calls": span(
            "bootstrap.stationary_bootstrap_sample", "calls"
        ),
        "bootstrap.bootstrap_se.self_s": span("bootstrap.bootstrap_se", "self_s"),
        "simulate.simulate_chain.s": span("simulate.simulate_chain", "s"),
        "simulate.simulate_chain.calls": span("simulate.simulate_chain", "calls"),
        "estimators.run_estimator.calls": span("estimators.run_estimator", "calls"),
        "estimators.run_estimator.self_s": span("estimators.run_estimator", "self_s"),
        "ingest.ingest_many.s": span("ingest.ingest_many", "s"),
        "ingest.tokens": counts["ingest.tokens"],
        "cli.main.self_s": span(ROOT_SPAN, "self_s"),
    }
    for kind in (*FAILURE_TYPES, "other"):
        out[f"estimators.failures.{kind}"] = counts[f"failures.{kind}"]
    wall = span(ROOT_SPAN, "s")
    for layer in LAYERS:
        own = sum(e["self_s"] for name, e in totals.items() if name.split(".")[0] == layer)
        out[f"{layer}.self_frac"] = ratio(own, wall)
    return out
