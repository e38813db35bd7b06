#!/usr/bin/env python
"""Two-location split vs monolithic execution of one annotated program.

The partitioner (``repro.lang.partition``) cuts a location-annotated
program into per-location fragments that the distributed harness
(``repro.runtime.distributed``) advances lock-step, copying the cut
signals producer-to-consumer each instant.  This benchmark compiles one
edge/cloud pipeline and steps it over one random schedule three ways:

* ``monolithic`` -- the unsplit generated step (the baseline);
* ``composite``  -- the generated in-process composite
  (``DistributedProgram.run``): both fragments lock-step in one process;
* ``processes``  -- one OS process per fragment, channels as
  multiprocessing pipes (the real distributed deployment).

The three traces must be identical -- any divergence fails the benchmark
(exit 1); that is the same differential oracle the fuzz suite applies.

Timing: both in-process legs are warmed, then run 21 times (11 with
``--quick``), alternating, and each leg reports its median.  The
composite time is split into *fragment steps* (the fragments' generated
``step`` methods replayed alone on the inputs the composite fed them)
and *glue* (the rest: wiring inputs, channel flags, gathering outputs).
The gate is ``channel_overhead_factor`` = composite / monolithic median
time, at most 1.5.  The OS-process leg is one run; it needs one core per
fragment to mean anything, so on machines with fewer cores it prints
``SKIP`` for that leg (the in-process legs still run and gate).

Usage::

    PYTHONPATH=src python benchmarks/bench_distributed.py
    PYTHONPATH=src python benchmarks/bench_distributed.py --instants 2000
    PYTHONPATH=src python benchmarks/bench_distributed.py --json
    PYTHONPATH=src python benchmarks/bench_distributed.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import sys
import time

try:
    import repro  # noqa: F401
except ImportError:  # direct invocation without PYTHONPATH=src
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.codegen.python_backend import load_step_class
from repro.runtime.distributed import build_distributed
from repro.runtime.executor import random_input_schedule

#: An edge/cloud pipeline: the edge samples and pre-filters a sensor,
#: the cloud accumulates and classifies what the edge forwards.
PROGRAM = """
process PIPELINE =
  ( ? integer RAW at edge; boolean ENABLE at edge;
    ! integer SMOOTH at edge; integer TOTAL at cloud; boolean ALERT at cloud; )
  (| ZRAW := RAW $ 1 init 0
   | SMOOTH := (RAW + ZRAW) / 2
   | SAMPLE := SMOOTH when ENABLE
   | ZTOTAL := TOTAL $ 1 init 0
   | TOTAL := SAMPLE + ZTOTAL at cloud
   | ALERT := TOTAL > 100 at cloud
  |)
  where integer ZRAW, SAMPLE, ZTOTAL;
end;
"""

#: untimed runs of each in-process leg before the timed ones
WARMUP = 3
#: timed runs of each in-process leg, alternating (``--quick``: 11)
REPEATS = 21
#: the gate on composite / monolithic median time
MAX_OVERHEAD = 1.5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--instants",
        type=int,
        default=1000,
        help="instants to run per leg (default 1000)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="schedule seed (default 0)"
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable JSON summary"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="200 instants, 11 repeats (CI smoke)",
    )
    return parser.parse_args(argv)


def fragment_inputs(distributed, schedule):
    """Per fragment, the inputs the composite passes to each of its steps.

    Runs the program's generated composite module once with recording
    subclasses of the fragment step classes.
    """
    recorded = []
    classes = []
    for runtime in distributed.runtimes:
        log = []
        recorded.append(log)
        classes.append(_recording(type(runtime.executable.step_instance), log))
    composite_class = load_step_class(
        distributed.composite_source(), f"{distributed.program.name}_composite"
    )
    composite_class(*classes).run(schedule)
    return recorded


def _recording(step_class, log):
    class Recording(step_class):
        def step(self, inputs, *rest):
            log.append(inputs)
            return super().step(inputs, *rest)

    return Recording


def main(argv=None) -> int:
    arguments = parse_args(argv)
    instants = 200 if arguments.quick else arguments.instants
    repeats = 11 if arguments.quick else REPEATS

    distributed = build_distributed(source=PROGRAM)
    reference = distributed.reference
    schedule = random_input_schedule(
        reference.types,
        list(reference.executable.inputs),
        list(reference.executable.root_flags),
        steps=instants,
        seed=arguments.seed,
    )
    outputs = set(distributed.program.outputs)
    recorded = fragment_inputs(distributed, schedule)
    fragment_classes = [
        type(runtime.executable.step_instance) for runtime in distributed.runtimes
    ]

    def monolithic_leg():
        step = reference.executable.fresh()
        return [
            {name: value for name, value in step.step(instant).items() if name in outputs}
            for instant in schedule
        ]

    def composite_leg():
        return distributed.run(schedule)

    def fragment_leg():
        for step_class, inputs in zip(fragment_classes, recorded):
            step = step_class().step
            for values in inputs:
                step(values)

    def timed(leg):
        started = time.perf_counter()
        leg()
        return time.perf_counter() - started

    legs = {
        "monolithic": monolithic_leg,
        "composite": composite_leg,
        "fragments": fragment_leg,
    }
    for _ in range(WARMUP):
        for leg in legs.values():
            leg()
    samples = {name: [] for name in legs}
    for _ in range(repeats):
        for name, leg in legs.items():
            samples[name].append(timed(leg))
    medians = {name: statistics.median(times) for name, times in samples.items()}
    monolithic_seconds = medians["monolithic"]
    composite_seconds = medians["composite"]
    fragment_seconds = min(medians["fragments"], composite_seconds)
    glue_seconds = composite_seconds - fragment_seconds

    monolithic = monolithic_leg()
    failures = []
    if composite_leg() != monolithic:
        failures.append("in-process composite trace diverges from monolithic")

    cores = os.cpu_count() or 1
    needed = len(distributed.locations) + 1  # fragments plus the driver
    process_seconds = None
    process_skip = None
    if cores < needed:
        process_skip = (
            f"{cores} core(s) available, {needed} needed for "
            f"{len(distributed.locations)} fragment processes plus the driver"
        )
    else:
        started = time.perf_counter()
        processes = distributed.run_multiprocess(schedule)
        process_seconds = time.perf_counter() - started
        if processes != monolithic:
            failures.append("OS-process composite trace diverges from monolithic")

    def rate(seconds):
        return instants / seconds if seconds else float("inf")

    overhead = (
        composite_seconds / monolithic_seconds if monolithic_seconds > 0 else 1.0
    )
    if overhead > MAX_OVERHEAD:
        failures.append(
            f"composite takes {overhead:.2f}x the monolithic step time "
            f"(gate: <= {MAX_OVERHEAD:.2f}x)"
        )
    summary = {
        "instants": instants,
        "repeats": repeats,
        "locations": distributed.locations,
        "channels": [
            {"producer": c.producer, "consumer": c.consumer, "signals": len(c.signals)}
            for c in distributed.partitioned.channels
        ],
        "monolithic_per_sec": rate(monolithic_seconds),
        "composite_per_sec": rate(composite_seconds),
        "monolithic_us_per_instant": monolithic_seconds / instants * 1e6,
        "composite_us_per_instant": composite_seconds / instants * 1e6,
        "fragment_step_us_per_instant": fragment_seconds / instants * 1e6,
        "glue_us_per_instant": glue_seconds / instants * 1e6,
        "channel_overhead_factor": overhead,
        "max_overhead": MAX_OVERHEAD,
        "processes_per_sec": rate(process_seconds) if process_seconds else None,
        "processes_skipped": process_skip,
        "matches_monolithic": not any("diverges" in f for f in failures),
        "passed": not failures,
    }
    if arguments.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(
            f"2-location split ({' -> '.join(distributed.locations)}), "
            f"{instants} instants, median of {repeats} alternating runs:"
        )
        print(
            f"  monolithic:      {summary['monolithic_per_sec']:,.0f} instants/s "
            f"({summary['monolithic_us_per_instant']:.2f} us/instant)"
        )
        print(
            f"  composite:       {summary['composite_per_sec']:,.0f} instants/s "
            f"({overhead:.2f}x the monolithic step time; gate <= "
            f"{MAX_OVERHEAD:.2f}x)"
        )
        print(
            f"    fragment steps {summary['fragment_step_us_per_instant']:.2f} us/instant, "
            f"glue {summary['glue_us_per_instant']:.2f} us/instant"
        )
        if process_skip is not None:
            print(f"  OS processes:    SKIP ({process_skip})")
        else:
            print(f"  OS processes:    {summary['processes_per_sec']:,.0f} instants/s")
        if failures:
            for failure in failures:
                print(f"  FAIL: {failure}")
        else:
            print("  composite traces match the monolithic reference")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
