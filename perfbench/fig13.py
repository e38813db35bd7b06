"""``fig13-cold``: cold compiles of the seven Figure-13 programs.

Each operation is ``CompilationService().compile_record(source)`` on a
fresh service, so every cache is bypassed and each compile runs the whole
clock calculus and IR path and renders the tree, python, C and
``c_shared`` artifacts.  A round is one pass over the suite in the
paper's order; the seed draws the interpreter schedules (a seeded order
made the peak RSS and the per-program times depend on the seed).
Outputs are checked twice: every pass must render byte-identical records,
and each program's generated python step must replay a seeded schedule
identically on the reference interpreter.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import time
from typing import Dict, List, Optional

from repro import CompilationService, KernelInterpreter, parse_process
from repro.lang.kernel import normalize
from repro.programs import benchmark_names, benchmark_source
from repro.runtime import random_input_schedule
from repro.service import executable_from_record, types_from_record

from common import (
    REFERENCE_S,
    Gauge,
    Outcome,
    median,
    peak_rss_mb,
    percentile,
    replay_divergence,
    timed_median,
)
from tracing import Tracer

#: instants of the seeded schedule each program replays on the interpreter
REPLAY_INSTANTS = 6
EMITTED = ("python", "c", "c_shared")


def _generate() -> Dict[str, str]:
    return {name: benchmark_source(name) for name in benchmark_names()}


class _Suite:
    def __init__(self, seed: int, outcome: Outcome):
        self.seed = seed
        self.gauge = Gauge()
        self.outcome = outcome
        self.sources = _generate()
        #: program -> (record digest, record) of its first compile
        self.first: Dict[str, tuple] = {}
        self.broken: Dict[str, str] = {}
        self.program_ms: Dict[str, List[float]] = {name: [] for name in self.sources}

    def one_pass(self, tracer: Optional[Tracer] = None) -> Dict[str, object]:
        """Compile every program once; returns op times and BDD node counts."""
        op_times: List[float] = []
        bdd_nodes = 0
        for name in self.sources:
            self.outcome.attempted += 1
            # Start every compile from the same collector state, so garbage
            # left by the previous program is not charged to this one.
            gc.collect()
            started = time.perf_counter()
            try:
                service = CompilationService()
                record = service.compile_record(self.sources[name])
            except Exception as error:  # a failed compile is a failed operation
                self.outcome.fail(f"{name}: compile raised {error!r}")
                continue
            elapsed = time.perf_counter() - started
            self.gauge.read()
            elapsed *= self.gauge.factor()
            op_times.append(elapsed)
            if tracer is None:
                self.program_ms[name].append(elapsed * 1000.0)
            else:
                bdd_nodes += service.statistics()["pooled_bdd_nodes"]
            digest = hashlib.sha256(
                json.dumps(record, sort_keys=True).encode("utf-8")
            ).hexdigest()
            if name not in self.first:
                self.first[name] = (digest, record)
            elif digest != self.first[name][0]:
                self.outcome.fail(f"{name}: record differs from the first pass")
        return {"op_times": op_times, "bdd_nodes": bdd_nodes}

    def run_for(self, seconds: float, tracer: Optional[Tracer] = None) -> List[dict]:
        passes = []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            passes.append(self.one_pass(tracer))
        return passes

    def check_on_interpreter(self, perturb: bool) -> None:
        """Replay each program's generated step on the kernel interpreter."""
        for index, name in enumerate(sorted(self.first)):
            try:
                problem = self._replay(name, perturb and index == 0)
            except Exception as error:  # an unloadable step is a wrong output
                problem = f"generated step does not run: {error!r}"
            if problem is not None:
                self.broken[name] = problem

    def _replay(self, name: str, perturb: bool) -> Optional[str]:
        record = self.first[name][1]
        program = normalize(parse_process(self.sources[name]))
        if program.fingerprint() != record["fingerprint"]:
            return "record fingerprint differs from the kernel's"
        types = types_from_record(record)
        executable = executable_from_record(record)
        schedule = random_input_schedule(
            types,
            executable.inputs,
            executable.root_flags,
            steps=REPLAY_INSTANTS,
            seed=random.Random(f"fig13-replay:{self.seed}:{name}"),
        )
        _trace, instant = replay_divergence(
            executable, KernelInterpreter(program, types), schedule, perturb
        )
        return None if instant is None else f"instant {instant} diverges from the interpreter"

    def charge_broken(self, passes: int) -> None:
        for name, message in sorted(self.broken.items()):
            self.outcome.fail(f"{name}: {message}", operations=passes)


def _pass_time(one_pass: dict) -> float:
    return sum(one_pass["op_times"])


def run(seed: int, seconds: float, trace: bool, perturb: bool, out_path: str):
    outcome = Outcome()
    suite = _Suite(seed, outcome)
    setup_s = timed_median(suite.gauge, _generate, repeats=21)
    passes = suite.run_for(seconds)
    reference_s = median(suite.gauge.samples)
    rss = peak_rss_mb()
    op_times = [t for one in passes for t in one["op_times"]]
    round_s = median(_pass_time(one) for one in passes)

    metrics: Dict[str, float] = {}
    if trace:
        suite.gauge = Gauge()
        with Tracer() as tracer:
            traced = suite.run_for(seconds, tracer)
        tracer.dump(out_path)
        count = len(traced)
        # Span times are scaled by the traced segment's median speed.
        scale = REFERENCE_S / median(suite.gauge.samples) / count
        for name, value in tracer.self_times().items():
            metrics[f"{name}_s"] = value * scale
        metrics["codegen.ir_builds"] = tracer.counts().get("codegen.ir", 0) / count
        metrics["bdd.nodes"] = traced[0]["bdd_nodes"]
        for name, times in suite.program_ms.items():
            metrics[f"program.{name}.compile_ms"] = median(times)
        metrics["compile_suite_s"] = round_s
        metrics["trace.overhead_ratio"] = median(map(_pass_time, traced)) / round_s
        metrics["gauge.reference_ms"] = reference_s * 1000.0
        passes_run = len(passes) + count
    else:
        metrics.update(
            {
                "setup_s": setup_s,
                "peak_rss_mb": rss,
                "emitted_bytes": sum(
                    len(record["artifacts"][kind].encode("utf-8"))
                    for _digest, record in suite.first.values()
                    for kind in EMITTED
                ),
                "round_s": round_s,
                "op_p50_ms": percentile(op_times, 0.50) * 1000.0,
                "op_p90_ms": percentile(op_times, 0.90) * 1000.0,
            }
        )
        passes_run = len(passes)

    suite.check_on_interpreter(perturb)
    suite.charge_broken(passes_run)
    notes = [
        f"fig13-cold: {len(passes)} passes, {len(op_times)} compiles, "
        f"median pass {round_s:.3f} s"
    ]
    return outcome, metrics, notes
