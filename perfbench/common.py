"""Shared pieces of the benchmark: metric tables, statistics, the run result."""

from __future__ import annotations

import gc
import os
import statistics
import time
from typing import Dict, Iterable, List, Optional

#: Metrics every workload reports on an untraced run (``--trace 0``).
#: Each workload defines its round and its operation (see README.md).
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "emitted_bytes": "bytes",
    "round_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
}

PROGRAMS = ("STOPWATCH", "WATCH", "ALARM", "CHRONO", "SUPERVISOR", "PACE_MAKER", "ROBOT")

#: Metrics every workload reports on a traced run (``--trace 1``); a layer a
#: workload does not exercise reads 0.  Times are self times per round.
PER_LAYER: Dict[str, str] = {
    # fig13-cold: compile layers, per cold pass over the suite
    "lang.parse_s": "s",
    "lang.normalize_s": "s",
    "lang.types_s": "s",
    "clocks.equations_s": "s",
    "clocks.resolve_s": "s",
    "clocks.check_s": "s",
    "graph.dependency_s": "s",
    "graph.causality_s": "s",
    "graph.schedule_s": "s",
    "codegen.ir_s": "s",
    "codegen.emit_s": "s",
    "codegen.step_load_s": "s",
    "service.record_s": "s",
    "codegen.ir_builds": "count",
    "bdd.nodes": "count",
    **{f"program.{name}.compile_ms": "ms" for name in PROGRAMS},
    "compile_suite_s": "s",
    # fleet-serve: serving layers, per replay of the request stream
    "service.units_compiled": "count",
    "service.unit_hit_ratio": "ratio",
    "service.link_hit_ratio": "ratio",
    "service.unit_compile_s": "s",
    "codegen.link_s": "s",
    "lang.split_units_s": "s",
    "service.store_get_s": "s",
    "service.store_put_s": "s",
    "service.store_bytes": "bytes",
    "daemon.request_s": "s",
    "daemon.hit_overhead_ms": "ms",
    "daemon.miss_overhead_ms": "ms",
    "client.reply_bytes": "bytes",
    "daemon.memory_hits": "count",
    "daemon.store_hits": "count",
    "daemon.compiles": "count",
    "requests_per_s": "1/s",
    "request_p95_ms": "ms",
    "hit_p50_ms": "ms",
    "store_hit_p50_ms": "ms",
    "miss_p50_ms": "ms",
    # sim-run: runtime layers, per stepping round
    "runtime.mass.build_s": "s",
    "runtime.mass.pack_s": "s",
    "runtime.mass.step_many_s": "s",
    "runtime.mass.snapshot_s": "s",
    "runtime.python.step_s": "s",
    "runtime.distributed.fragment_step_s": "s",
    "runtime.distributed.channel_s": "s",
    "runtime.distributed.overhead_ratio": "ratio",
    "python_steps_per_s": "1/s",
    "c_steps_per_s": "1/s",
    "distributed_steps_per_s": "1/s",
    # every workload
    "trace.overhead_ratio": "ratio",
    "gauge.reference_ms": "ms",
}


#: Seconds one :func:`reference_work` takes at the reference speed.  This
#: defines the unit of every reported time; the 2-core x86 runner the
#: baseline was taken on ran it in 11-16 ms.
REFERENCE_S = 0.010


def reference_work() -> int:
    """A fixed pure-Python workload of dict, tuple, string and sort steps."""
    table: Dict[int, int] = {}
    items = []
    for i in range(20000):
        key = (i * 7919) % 10007
        table[key] = table.get(key, 0) + i
        items.append((str(i & 511), i, key))
    items.sort()
    return sum(table.values()) + len(items)


class Gauge:
    """Measures the machine's current speed next to each timed interval.

    On a shared runner the speed of the same code drifts by up to 2x over
    minutes, which no amount of repetition inside one run averages out.
    A run of :func:`reference_work` follows every timed interval, and the
    interval's duration is reported scaled by ``REFERENCE_S / median(last
    WINDOW reference times)``: seconds at the reference speed.  The window
    spans the readings before and after the interval; its median follows
    the drift while ignoring a single disturbed reading.  The program's own code
    never runs inside the reference work, so a change to the program moves
    the scaled time exactly as it moves the raw one.
    """

    WINDOW = 5

    def __init__(self) -> None:
        #: every reference time read, in seconds
        self.samples: List[float] = []

    def read(self) -> float:
        # Garbage the measured work left must not be collected on the clock
        # of the reference work.
        gc.collect()
        started = time.perf_counter()
        reference_work()
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        return elapsed

    def factor(self) -> float:
        """Scale for the interval just before the last reading."""
        return REFERENCE_S / statistics.median(self.samples[-self.WINDOW :])

    def timed(self, action) -> float:
        """Scaled seconds of one ``action()`` call."""
        started = time.perf_counter()
        action()
        elapsed = time.perf_counter() - started
        self.read()
        return elapsed * self.factor()


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values: Iterable[float], fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` of a process (this one by default), in MiB."""
    path = f"/proc/{pid or os.getpid()}/status"
    with open(path, encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in {path}")


def timed_median(gauge: Gauge, action, repeats: int) -> float:
    """Median scaled time of ``repeats`` calls of ``action()``."""
    return median(gauge.timed(action) for _ in range(repeats))


def replay_divergence(executable, interpreter, schedule, perturb: bool = False):
    """Run ``executable`` over ``schedule``, then replay it on ``interpreter``.

    Returns ``(trace, instant)``: ``instant`` is the first instant whose
    observations differ from the kernel interpreter's, or ``None``.
    ``perturb`` corrupts the interpreter's answer at instant 0, which the
    self-check uses to prove that a divergence is counted.
    """
    from repro.runtime import ReactiveExecutor

    trace = ReactiveExecutor(executable).run(len(schedule), inputs_per_step=schedule)
    for instant, step in enumerate(trace):
        expected = interpreter.step(
            step.inputs, present=step.observations.keys(), unknown_as_absent=True
        )
        if perturb and instant == 0:
            expected = dict(expected, PERTURBED=True)
        if expected != dict(step.observations):
            return trace, instant
    return trace, None


class Outcome:
    """Operations attempted and failed, plus the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def fail(self, message: str, operations: int = 1) -> None:
        self.failed += operations
        if len(self.messages) < 20:
            self.messages.append(message)
