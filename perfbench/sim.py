"""``sim-run``: stepping compiled programs with the runtime layers only.

Set-up compiles the ``MASSBENCH`` control program and builds its
``c_shared`` library with ``cc``, partitions the edge/cloud ``PIPELINE``
into a distributed program, and packs the C population's input columns.
The compiler never runs after set-up, so compiler changes should leave
this workload unchanged.

The operation is one *tick*, which advances three legs in turn:

* the python leg -- ``PYTHON_INSTANCES`` instances, each stepped through
  the generated python ``CompiledProcess.step``;
* the C leg -- ``C_INSTANCES`` instances in one columnar ``CPopulation``
  (``step_packed`` then ``output_snapshot``); instance ``i`` replays the
  python schedule of instance ``i % PYTHON_INSTANCES``;
* the distributed leg -- ``DistributedProgram.run`` over a
  ``DISTRIBUTED_INSTANTS``-instant chunk of the pipeline's schedule.

The leg sizes give each leg about a third of a tick on a 2-core x86
runner.  A round is ``TICKS`` ticks after resetting every instance, so
every round must reproduce the first round's outputs exactly.  The first
round is checked against references that are not the leg under test: each
C instance against the python step, a seeded sample of python instances
against the kernel interpreter, and each distributed chunk against the
unsplit (monolithic) step.
"""

from __future__ import annotations

import gc
import random
import time
from array import array
from typing import Dict, List, Optional

from repro import CompilationService
from repro.programs import ControlProgramSpec, generate_control_program
from repro.runtime import SharedCProgram, random_input_schedule
from repro.runtime.distributed import build_distributed

from common import (
    REFERENCE_S,
    Gauge,
    Outcome,
    median,
    peak_rss_mb,
    percentile,
    replay_divergence,
)
from tracing import Tracer

#: modes, counters, filters and floored arithmetic: every operator class the
#: C backend lowers (the program of benchmarks/bench_mass_sim.py)
SPEC = ControlProgramSpec(
    name="MASSBENCH",
    modules=3,
    branching=2,
    sensors=2,
    with_filter=True,
    with_counter=True,
    with_arithmetic=True,
)

#: the edge/cloud pipeline of benchmarks/bench_distributed.py
PIPELINE = """
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

PYTHON_INSTANCES = 32
C_INSTANCES = 1024
DISTRIBUTED_INSTANTS = 16
TICKS = 16
SETUPS = 3
INTERPRETER_SAMPLE = 4
TRACED_ROUNDS = 40
#: rounds between two readings of the machine-speed gauge
GAUGED_ROUNDS = 16
EMITTED = ("python_source", "c_source", "c_shared_source")
#: per leg, in tick order: its rate metric and the steps one tick makes
LEG_RATES = {
    "python_steps_per_s": PYTHON_INSTANCES,
    "c_steps_per_s": C_INSTANCES,
    "distributed_steps_per_s": DISTRIBUTED_INSTANTS,
}


class _Setup:
    """Everything the timed legs need, built from the seed."""

    def __init__(self, seed: int):
        self.result = CompilationService().compile(generate_control_program(SPEC))
        executable = self.result.executable
        self.library = SharedCProgram.from_result(self.result)
        self.distributed = build_distributed(source=PIPELINE)
        self.schedules = [
            random_input_schedule(
                self.result.types,
                executable.inputs,
                executable.root_flags,
                steps=TICKS,
                seed=random.Random(f"sim-run:{seed}:{index}"),
            )
            for index in range(PYTHON_INSTANCES)
        ]
        self.processes = [executable.fresh() for _ in range(PYTHON_INSTANCES)]
        self.population = self.library.population(C_INSTANCES)
        self.packed = [
            self.population.pack_instant(
                [self.schedules[i % PYTHON_INSTANCES][tick] for i in range(C_INSTANCES)]
            )
            for tick in range(TICKS)
        ]
        reference = self.distributed.reference
        pipeline = random_input_schedule(
            reference.types,
            list(reference.executable.inputs),
            list(reference.executable.root_flags),
            steps=TICKS * DISTRIBUTED_INSTANTS,
            seed=random.Random(f"sim-run-pipeline:{seed}"),
        )
        self.chunks = [
            pipeline[tick * DISTRIBUTED_INSTANTS : (tick + 1) * DISTRIBUTED_INSTANTS]
            for tick in range(TICKS)
        ]

    def emitted_bytes(self) -> int:
        return sum(
            len(getattr(result, method)().encode("utf-8"))
            for result in (self.result, self.distributed.reference)
            for method in EMITTED
        )


class _Timings:
    """Scaled leg times per tick, in flat arrays so that keeping them does
    not grow the peak RSS the workload reports.  Tick ``t`` of round ``r``
    is at index ``r * TICKS + t``."""

    def __init__(self) -> None:
        self.legs = (array("d"), array("d"), array("d"))

    def add(self, ticks: List[tuple], factor: float) -> None:
        for tick in ticks:
            for column, leg in zip(self.legs, tick):
                column.append(leg * factor)

    @property
    def rounds(self) -> int:
        return len(self.legs[0]) // TICKS

    def tick_ms(self) -> List[float]:
        return [sum(tick) * 1000.0 for tick in zip(*self.legs)]

    def round_s(self) -> float:
        """Median time of one round."""
        ticks = [sum(tick) for tick in zip(*self.legs)]
        return median(
            sum(ticks[start : start + TICKS]) for start in range(0, len(ticks), TICKS)
        )

    def leg_median(self, leg: int) -> float:
        return median(self.legs[leg])


class _Legs:
    def __init__(self, setup: _Setup, outcome: Outcome, gauge: Gauge):
        self.setup = setup
        self.outcome = outcome
        self.gauge = gauge
        self.first: Optional[List[tuple]] = None
        self.last: Optional[List[tuple]] = None
        self.rounds = 0

    def one_round(self) -> List[tuple]:
        """One round; per tick (python s, C s, distributed s)."""
        setup = self.setup
        for process in setup.processes:
            process.reset()
        setup.population.reset()
        times = []
        outputs = []
        for tick in range(TICKS):
            self.outcome.attempted += 1
            started = time.perf_counter()
            python_out = [
                process.step(schedule[tick])
                for process, schedule in zip(setup.processes, setup.schedules)
            ]
            python_done = time.perf_counter()
            roots, columns = setup.packed[tick]
            setup.population.step_packed(roots, columns)
            snapshot = setup.population.output_snapshot()
            c_done = time.perf_counter()
            composite = setup.distributed.run(setup.chunks[tick])
            ended = time.perf_counter()
            times.append((python_done - started, c_done - python_done, ended - c_done))
            outputs.append((python_out, snapshot, composite))
        if self.first is None:
            self.first = outputs
        else:
            # Value bytes of absent C outputs are stale, so a later round is
            # compared on presence here and decoded in full for the last one.
            for tick, (got, want) in enumerate(zip(outputs, self.first)):
                if (got[0], got[1][1], got[2]) != (want[0], want[1][1], want[2]):
                    self.outcome.fail(f"round {self.rounds} tick {tick} differs from round 0")
        self.last = outputs
        self.rounds += 1
        return times

    def run_for(self, seconds: float, max_rounds: Optional[int] = None) -> _Timings:
        """Rounds of scaled per-tick leg times, gauged every few rounds."""
        timings = _Timings()
        deadline = time.perf_counter() + seconds
        while not timings.rounds or (
            time.perf_counter() < deadline
            and (max_rounds is None or timings.rounds < max_rounds)
        ):
            block = [tick for _ in range(GAUGED_ROUNDS) for tick in self.one_round()]
            self.gauge.read()
            timings.add(block, self.gauge.factor())
        return timings

    def check_outputs(self, seed: int, perturb: bool) -> None:
        """Check round 0 (and the C leg of the last round) against references."""
        setup = self.setup
        broken: Dict[int, str] = {}
        # C population == python step, instance by instance, in the first
        # and the last round.
        for tick, (python_out, snapshot, _composite) in enumerate(self.first):
            for label, taken in (("first", snapshot), ("last", self.last[tick][1])):
                decoded = setup.population.decode_outputs(taken)
                for index, outputs in enumerate(decoded):
                    if outputs != python_out[index % PYTHON_INSTANCES]:
                        broken.setdefault(
                            tick, f"C instance {index} differs from python ({label} round)"
                        )
                        break
        # Python step == kernel interpreter, on a seeded sample of instances.
        sample = random.Random(f"sim-run-sample:{seed}").sample(
            range(PYTHON_INSTANCES), INTERPRETER_SAMPLE
        )
        for index in sample:
            trace, instant = replay_divergence(
                setup.result.executable.fresh(),
                setup.result.interpreter(),
                setup.schedules[index],
            )
            if instant is not None:
                broken.setdefault(instant, f"python instance {index} != interpreter")
            for tick, step in enumerate(trace):
                if step.outputs != self.first[tick][0][index]:
                    broken.setdefault(tick, f"python instance {index} is not replayable")
        # Distributed composite == monolithic step, chunk by chunk.
        for tick, chunk in enumerate(setup.chunks):
            expected = self._monolithic(chunk)
            if perturb and tick == 0:
                expected[0] = dict(expected[0], PERTURBED=0)
            if self.first[tick][2] != expected:
                broken.setdefault(tick, "distributed composite != monolithic step")
        for tick, message in sorted(broken.items()):
            self.outcome.fail(f"tick {tick}: {message}", operations=self.rounds)

    def _monolithic(self, chunk) -> List[dict]:
        step = self.setup.distributed.reference.executable.fresh()
        outputs = set(self.setup.distributed.program.outputs)
        return [
            {name: value for name, value in step.step(instant).items() if name in outputs}
            for instant in chunk
        ]

    def overhead_ratio(self, repeats: int = 20) -> float:
        """Composite over monolithic time for the same chunks (untraced)."""
        composite, monolithic = [], []
        for _ in range(repeats):
            started = time.perf_counter()
            for chunk in self.setup.chunks:
                self.setup.distributed.run(chunk)
            middle = time.perf_counter()
            for chunk in self.setup.chunks:
                self._monolithic(chunk)
            monolithic.append(time.perf_counter() - middle)
            composite.append(middle - started)
        return median(composite) / median(monolithic)


def run(seed: int, seconds: float, trace: bool, perturb: bool, out_path: str):
    outcome = Outcome()
    gauge = Gauge()
    built: List[_Setup] = []
    setup_times = []
    for _ in range(SETUPS):
        # Free the previous set-up first, so the peak RSS holds one set-up.
        built.clear()
        gc.collect()
        setup_times.append(gauge.timed(lambda: built.append(_Setup(seed))))
    setup_s = median(setup_times)
    setup = built[0]
    legs = _Legs(setup, outcome, gauge)
    timings = legs.run_for(seconds)
    rss = peak_rss_mb()
    reference_s = median(gauge.samples)
    tick_ms = timings.tick_ms()
    round_s = timings.round_s()

    metrics: Dict[str, float] = {}
    if trace:
        for leg, (name, per_tick) in enumerate(LEG_RATES.items()):
            metrics[name] = per_tick / timings.leg_median(leg)
        metrics["runtime.distributed.overhead_ratio"] = legs.overhead_ratio()
        legs.gauge = Gauge()
        with Tracer() as setup_tracer:
            legs.gauge.timed(lambda: _Setup(seed))
        with Tracer() as tracer:
            traced = legs.run_for(seconds, max_rounds=TRACED_ROUNDS)
        tracer.dump(out_path)
        speed = REFERENCE_S / median(legs.gauge.samples)
        setup_times = setup_tracer.self_times()
        for layer in ("build", "pack"):
            metrics[f"runtime.mass.{layer}_s"] = (
                setup_times.get(f"runtime.mass.{layer}", 0.0) * speed
            )
        count = traced.rounds / speed
        names = {span[0]: span[1] for span in tracer.spans}
        fragment = [
            span for span in tracer.spans
            if span[1] == "runtime.step" and names.get(span[4]) == "runtime.distributed.run"
        ]
        standalone = [
            span for span in tracer.spans if span[1] == "runtime.step" and span[4] < 0
        ]
        totals = tracer.self_times()
        metrics["runtime.python.step_s"] = tracer.self_times(standalone).get("runtime.step", 0.0) / count
        metrics["runtime.distributed.fragment_step_s"] = (
            tracer.self_times(fragment).get("runtime.step", 0.0) / count
        )
        metrics["runtime.distributed.channel_s"] = totals.get("runtime.distributed.run", 0.0) / count
        for layer in ("step_many", "snapshot"):
            metrics[f"runtime.mass.{layer}_s"] = totals.get(f"runtime.mass.{layer}", 0.0) / count
        metrics["trace.overhead_ratio"] = traced.round_s() / round_s
        metrics["gauge.reference_ms"] = reference_s * 1000.0
    else:
        metrics.update(
            {
                "setup_s": setup_s,
                "peak_rss_mb": rss,
                "emitted_bytes": setup.emitted_bytes(),
                "round_s": round_s,
                "op_p50_ms": percentile(tick_ms, 0.50),
                "op_p90_ms": percentile(tick_ms, 0.90),
            }
        )

    legs.check_outputs(seed, perturb)
    legs_ms = ", ".join(
        f"{name.split('_')[0]} {timings.leg_median(leg) * 1e3:.3f}"
        for leg, name in enumerate(LEG_RATES)
    )
    notes = [
        f"sim-run: {legs.rounds} rounds x {TICKS} ticks, median tick "
        f"{percentile(tick_ms, 0.5):.3f} ms ({legs_ms} ms)"
    ]
    return outcome, metrics, notes
