"""Run one ``entrate`` CLI invocation in this fresh interpreter and report it.

Usage: worker.py T0 TRACE OUT SRC -- CLI_ARG...

T0 is the parent's ``time.monotonic()`` just before it started this process
(the clock is system-wide on Linux), so set-up time covers interpreter start
and ``import entrate`` up to the first command.  With TRACE=1 the public
functions are wrapped by ``tracer.Tracer`` for the call.  The result goes to
OUT as JSON: exit code, wall and CPU seconds of ``entrate.cli.main``, set-up
seconds, both also scaled to the reference speed (``SpeedProbe``), this
process's peak resident memory less the probe's table, and the spans and
counts.
"""

import json
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

PROBE_INTERVAL_S = 0.025
PROBE_ADDS = 10_000
PROBE_READS = 6_000
PROBE_TABLE_BYTES = 4 << 20
# Reference speed: one probe's timed part takes this many seconds.
PROBE_REF_S = 0.0009


class SpeedProbe:
    """Samples how fast this CPU runs the interpreter while the program runs.

    Other tenants of a shared host slow this process by up to 2x for seconds
    at a time; some spells slow arithmetic most, others memory access.  Inside
    ``with``, a SIGALRM handler runs every ``PROBE_INTERVAL_S``: it touches
    every cache line of the probe's own 4 MiB table (untimed), then times
    ``PROBE_ADDS`` integer additions plus ``PROBE_READS`` random byte reads
    from the table.  The timed part starts with the table in cache whatever
    the program did before, so its speed follows the host, not the program.
    ``normalize`` removes the probes' own time from a wall time measured
    meanwhile and scales the rest to the reference speed.

    Python runs the handler only between bytecodes, so during a long C call
    (a numpy kernel) the timer's ticks merge into one late sample.  Each
    sample is therefore weighted by the program time since the previous one
    ended: the span it stands for.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.weights: list[float] = []
        self.busy_s = 0.0
        rng = random.Random(0)
        self._table = rng.randbytes(PROBE_TABLE_BYTES)
        self._order = [rng.randrange(PROBE_TABLE_BYTES) for _ in range(PROBE_READS)]
        self._last = time.perf_counter()

    def sample(self, *_) -> None:
        t0 = time.perf_counter()
        table = self._table
        table[::64]  # touch every cache line: refill the cache after the program ran
        t1 = time.perf_counter()
        x = 0
        for i in range(PROBE_ADDS):
            x += i
        for i in self._order:
            x += table[i]
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.weights.append(t0 - self._last)
        self.busy_s += t2 - t0
        self._last = t2

    def __enter__(self) -> "SpeedProbe":
        self.samples.clear()
        self.weights.clear()
        self.busy_s = 0.0
        self._last = time.perf_counter()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()  # so a call shorter than the interval has one sample

    def speed(self) -> float:
        """Mean speed relative to the reference, each sample weighted by the
        program time it stands for."""
        return (sum(w * PROBE_REF_S / s for w, s in zip(self.weights, self.samples))
                / sum(self.weights))

    def start_speed(self) -> float:
        """Plain mean speed of back-to-back samples taken outside ``with``."""
        return statistics.mean(PROBE_REF_S / s for s in self.samples)

    def normalize(self, wall_s: float) -> float:
        return (wall_s - self.busy_s) * self.speed()


def main() -> int:
    t0, trace, out, src, sep, *cli_argv = sys.argv[1:]
    c0 = time.perf_counter()
    probe = SpeedProbe()
    for _ in range(3):
        probe.sample()
    start_speed = probe.start_speed()
    probe_start_s = time.perf_counter() - c0
    if sep != "--":
        raise SystemExit("usage: worker.py T0 TRACE OUT SRC -- CLI_ARG...")
    sys.path.insert(0, src)
    import entrate.cli

    if not Path(entrate.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported entrate from {entrate.__file__}, not from {src}")
    setup_s = time.monotonic() - float(t0) - probe_start_s

    tracer = None
    if trace == "1":
        from tracer import ROOT_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
    cpu0 = time.process_time()
    w0 = time.perf_counter()
    try:
        with probe:
            if tracer is None:
                rc = entrate.cli.main(cli_argv)
            else:
                rc = tracer.call(ROOT_SPAN, entrate.cli.main, cli_argv)
    finally:
        wall_s = time.perf_counter() - w0
        cpu_s = time.process_time() - cpu0
        if tracer is not None:
            tracer.restore()

    result = {
        "rc": rc,
        "wall_s": wall_s,
        "ref_wall_s": probe.normalize(wall_s),
        "cpu_s": cpu_s,
        "setup_s": setup_s,
        "ref_setup_s": setup_s * start_speed,
        # The probe's table is resident for the whole call: leave it out.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
                        - PROBE_TABLE_BYTES) / 2**20,
        "spans": tracer.spans if tracer else [],
        "counts": dict(tracer.counts) if tracer else {},
    }
    Path(out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
