"""``fleet-serve``: one closed-loop client against the compilation daemon.

Each round starts a ``python -m repro serve`` daemon on an empty store and
sends, over one ``RemoteCompiler`` connection, a seeded request stream of
``compile(modular=True, emit=["python", "c"])`` requests in four phases:

* ``cold``    -- a 20-member fleet from a 10-module library (units and
  links miss);
* ``novel``   -- a second fleet from the same library under another
  library seed (units hit, links miss);
* ``repeat``  -- three seeded shuffles of both fleets (memory hits);
* ``restart`` -- a fresh daemon on the same store replays a seeded sample
  of both fleets (store hits).

The operation is one request; a round is one replay of the stream, timed
as the sum of its client-observed latencies (daemon start is set-up).
Every reply must carry the fingerprint and artifacts of an in-process
``CompilationService.compile_modular_record`` of the same source, every
reply for one source must be identical whatever tier answered, and each
source's generated python step must replay a seeded schedule identically
on the reference interpreter.  The in-process replay of the same stream
through one service and store also gives the in-process latency per tier
that the daemon overhead metrics subtract.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro import CompilationService, KernelInterpreter, parse_process
from repro.codegen import GenerationStyle
from repro.codegen.python_backend import CompiledProcess
from repro.lang.kernel import normalize
from repro.programs import FleetSpec, generate_fleet
from repro.runtime import random_input_schedule
from repro.service import RemoteCompiler, types_from_record

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

HERE = os.path.dirname(os.path.abspath(__file__))
EMIT = ("python", "c")
REPEATS = 3
RESTART_SAMPLE = 20
REPLAY_INSTANTS = 6
#: requests between two readings of the machine-speed gauge
BLOCK = 20
#: the tier each phase is meant to exercise
PHASE_ORIGIN = {
    "cold": "compiled",
    "novel": "compiled",
    "repeat": "memory",
    "restart": "store",
}
#: the phases each daemon of a round serves; both share one store
LEGS = (("d1", ("cold", "novel", "repeat")), ("d2", ("restart",)))
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0


def _fleet(name: str, seed: int) -> FleetSpec:
    return FleetSpec(
        name=name,
        programs=20,
        library_size=10,
        units_per_program=6,
        shared_units=2,
        seed=seed,
    )


def build_stream(seed: int) -> Tuple[List[str], List[Tuple[str, int]]]:
    """The sources and the (phase, source index) request stream of a seed."""
    rng = random.Random(f"fleet-serve:{seed}")
    library_seeds = rng.sample(range(1 << 20), 2)
    sources = generate_fleet(_fleet("FLA", library_seeds[0])) + generate_fleet(
        _fleet("FLB", library_seeds[1])
    )
    first = len(sources) // 2
    stream = [("cold", index) for index in range(first)]
    stream += [("novel", index) for index in range(first, len(sources))]
    for _ in range(REPEATS):
        order = list(range(len(sources)))
        rng.shuffle(order)
        stream += [("repeat", index) for index in order]
    stream += [
        ("restart", index) for index in rng.sample(range(len(sources)), RESTART_SAMPLE)
    ]
    return sources, stream


class Daemon:
    """A ``repro serve`` child process on a unix socket; always reaped."""

    def __init__(self, workdir: str, tag: str, store: str, spans: Optional[str]):
        self.socket_path = os.path.relpath(os.path.join(workdir, f"{tag}.sock"))
        serve = ["serve", "--socket", self.socket_path, "--store", store]
        if spans is None:
            command = [sys.executable, "-m", "repro"] + serve
        else:
            command = [sys.executable, os.path.join(HERE, "traced_serve.py"), spans] + serve
        self._log_path = os.path.join(workdir, f"{tag}.log")
        self._log = open(self._log_path, "wb")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.DEVNULL, stderr=self._log, cwd=os.getcwd()
        )
        try:
            self.client = self._connect()
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - started

    def _connect(self) -> RemoteCompiler:
        deadline = time.perf_counter() + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited early: {self._log_tail()}")
            if os.path.exists(self.socket_path):
                try:
                    client = RemoteCompiler(socket_path=self.socket_path, timeout=120.0)
                    client.ping()
                    return client
                except OSError:
                    pass
            time.sleep(0.005)
        raise RuntimeError("daemon did not start listening in time")

    def _log_tail(self) -> str:
        self._log.flush()
        with open(self._log_path, "rb") as handle:
            return handle.read()[-2000:].decode("utf-8", "replace")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """Shutdown request, then terminate, then kill; waits for the exit."""
        client = getattr(self, "client", None)
        try:
            if client is not None and self.process.poll() is None:
                try:
                    client.shutdown()
                except Exception:  # noqa: BLE001 - escalate below instead
                    pass
                client.close()
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.terminate()
                try:
                    self.process.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
        finally:
            self._log.close()
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)


def _tier_counts(stats: dict) -> Dict[str, int]:
    return {key: stats["daemon"][key] for key in ("memory_hits", "store_hits", "compiles")}


def _ratio(hits: int, total: int) -> float:
    return hits / total if total else 0.0


class _Fleet:
    def __init__(self, seed: int, workdir: str, outcome: Outcome, perturb: bool):
        self.seed = seed
        self.gauge = Gauge()
        self.workdir = workdir
        self.outcome = outcome
        self.sources, self.stream = build_stream(seed)
        self.rounds = 0
        self.reference: List[dict] = []
        self.in_process_ms: Dict[str, List[float]] = {"compiled": [], "memory": [], "store": []}
        self._mirror()
        if perturb:
            self.reference[0]["artifacts"]["python"] += "# perturbed\n"
        #: per source, the artifacts of its first reply
        self.replies: Dict[int, Dict[str, str]] = {}
        self.broken: Dict[int, str] = {}

    def _mirror(self) -> None:
        """Replay the stream in-process: reference records and tier latencies."""
        store = os.path.join(self.workdir, "mirror-store")
        records: Dict[int, dict] = {}

        def compile_one(service: CompilationService, index: int) -> Tuple[dict, float]:
            started = time.perf_counter()
            record = service.compile_modular_record(self.sources[index])
            return record, (time.perf_counter() - started) * 1000.0

        for _leg, phases in LEGS:
            # like the daemons: one store directory, fresh caches per leg
            with CompilationService(store=store) as service:
                requests = [(p, i) for p, i in self.stream if p in phases]
                for phase, index, record, elapsed in self._scaled(
                    requests, lambda _phase, index: compile_one(service, index)
                ):
                    records.setdefault(index, record)
                    self.in_process_ms[PHASE_ORIGIN[phase]].append(elapsed)
        self.reference = [records[index] for index in range(len(self.sources))]
        shutil.rmtree(store, ignore_errors=True)

    def _scaled(self, requests, send):
        """Send each request; yield ``(phase, index, answer, scaled ms)``.

        ``send(phase, index)`` returns ``(answer, raw ms)``; the gauge is
        read around every block of ``BLOCK`` requests.
        """
        for start in range(0, len(requests), BLOCK):
            block = [
                (phase, index) + send(phase, index)
                for phase, index in requests[start : start + BLOCK]
            ]
            self.gauge.read()
            factor = self.gauge.factor()
            for phase, index, answer, elapsed in block:
                yield phase, index, answer, elapsed * factor

    def one_round(self, spans_prefix: Optional[str]) -> dict:
        store = os.path.join(self.workdir, f"store-{self.rounds}")
        tag = f"r{self.rounds}"
        self.rounds += 1
        latencies: List[Tuple[str, str, float]] = []
        starts: List[float] = []
        rss: List[float] = []
        stats: List[dict] = []
        daemon: Optional[Daemon] = None
        try:
            for leg, phases in LEGS:
                spans = None if spans_prefix is None else f"{spans_prefix}-{tag}-{leg}"
                daemon = Daemon(self.workdir, f"{tag}-{leg}", store, spans)
                self.gauge.read()
                starts.append(daemon.start_s * self.gauge.factor())
                requests = [(p, i) for p, i in self.stream if p in phases]
                client = daemon.client
                for phase, _index, origin, elapsed in self._scaled(
                    requests, lambda phase, index: self._request(client, phase, index)
                ):
                    latencies.append((phase, origin, elapsed))
                stats.append(daemon.client.stats())
                rss.append(daemon.peak_rss_mb())
                daemon.stop()
                daemon = None
        finally:
            if daemon is not None:
                daemon.stop()
            shutil.rmtree(store, ignore_errors=True)
        return {
            "latencies": latencies,
            "starts": starts,
            "rss": max(rss),
            "stats": stats,
            "spans": [] if spans_prefix is None else [
                f"{spans_prefix}-{tag}-{leg}" for leg, _phases in LEGS
            ],
        }

    def _request(self, client: RemoteCompiler, phase: str, index: int):
        self.outcome.attempted += 1
        started = time.perf_counter()
        try:
            result = client.compile(self.sources[index], emit=EMIT, modular=True)
        except Exception as error:  # a failed request is a failed operation
            self.outcome.fail(f"{phase} request {index} raised {error!r}")
            return "failed", (time.perf_counter() - started) * 1000.0
        elapsed = (time.perf_counter() - started) * 1000.0
        expected = self.reference[index]
        artifacts = {kind: result.artifacts.get(kind) for kind in EMIT}
        first = self.replies.setdefault(index, artifacts)
        if result.fingerprint != expected["fingerprint"]:
            self.outcome.fail(f"{phase} request {index}: fingerprint differs")
        elif artifacts != {kind: expected["artifacts"][kind] for kind in EMIT}:
            self.outcome.fail(f"{phase} request {index}: artifacts differ from in-process")
        elif artifacts != first:
            self.outcome.fail(f"{phase} request {index}: reply differs across tiers")
        return result.origin, elapsed

    def run_for(self, seconds: float, spans_prefix: Optional[str] = None) -> List[dict]:
        rounds = []
        deadline = time.perf_counter() + seconds
        while not rounds or time.perf_counter() < deadline:
            rounds.append(self.one_round(spans_prefix))
        return rounds

    def check_on_interpreter(self) -> None:
        """Replay each source's served python step on the kernel interpreter."""
        for index in sorted(self.replies):
            try:
                self._replay(index)
            except Exception as error:  # an unloadable reply is a wrong output
                self.broken[index] = f"served step does not run: {error!r}"

    def _replay(self, index: int) -> None:
        artifacts = self.replies[index]
        entry = self.reference[index]["executable"]
        types = types_from_record(self.reference[index])
        step = CompiledProcess.from_generated_source(
            artifacts["python"],
            name=entry["name"],
            style=GenerationStyle.HIERARCHICAL,
            inputs=entry["inputs"],
            outputs=entry["outputs"],
            root_flags=entry["root_flags"],
            types=types,
        )
        schedule = random_input_schedule(
            types,
            step.inputs,
            step.root_flags,
            steps=REPLAY_INSTANTS,
            seed=random.Random(f"fleet-replay:{self.seed}:{index}"),
        )
        interpreter = KernelInterpreter(normalize(parse_process(self.sources[index])), types)
        _trace, instant = replay_divergence(step, interpreter, schedule)
        if instant is not None:
            self.broken[index] = f"instant {instant} diverges from the interpreter"

    def charge_broken(self) -> None:
        for index, message in sorted(self.broken.items()):
            served = sum(1 for _phase, i in self.stream if i == index) * self.rounds
            self.outcome.fail(f"source {index}: {message}", operations=served)


def _round_s(one: dict) -> float:
    return sum(latency for _phase, _origin, latency in one["latencies"]) / 1000.0


def _latencies(rounds: List[dict], origin: Optional[str] = None) -> List[float]:
    return [
        latency
        for one in rounds
        for _phase, got, latency in one["latencies"]
        if origin is None or got == origin
    ]


def run(seed: int, seconds: float, trace: bool, perturb: bool, out_path: str):
    outcome = Outcome()
    workdir = os.environ["TMPDIR"]
    fleet = _Fleet(seed, workdir, outcome, perturb)
    generate_s = timed_median(fleet.gauge, lambda: build_stream(seed), repeats=5)
    rounds = fleet.run_for(seconds)
    reference_s = median(fleet.gauge.samples)
    round_s = median(map(_round_s, rounds))
    everything = _latencies(rounds)

    metrics: Dict[str, float] = {}
    if trace:
        tracer = Tracer()
        reply_bytes: List[int] = []

        def count_reply(response) -> None:
            if response.get("origin") == "memory":
                reply_bytes.append(len(json.dumps(response).encode("utf-8")) + 1)

        tracer.result_hooks["client.request"] = count_reply
        prefix = out_path[: -len(".jsonl")]
        fleet.gauge = Gauge()
        with tracer:
            traced = fleet.run_for(seconds, spans_prefix=prefix)
        scale = REFERENCE_S / median(fleet.gauge.samples) / len(traced)
        tracer.dump(out_path)
        layer_totals: Dict[str, float] = {}
        for one in traced:
            for path in one["spans"]:
                with open(path + ".summary.json", encoding="utf-8") as handle:
                    summary = json.load(handle)
                for name, value in summary["self_times"].items():
                    layer_totals[name] = layer_totals.get(name, 0.0) + value
        for name, value in layer_totals.items():
            metrics[f"{name}_s"] = value * scale
        first = rounds[0]["stats"]
        service = first[0]["service"]
        metrics["service.units_compiled"] = service["unit_misses"]
        metrics["service.unit_hit_ratio"] = _ratio(
            service["unit_hits"],
            service["unit_hits"] + service["unit_misses"] + service["unit_store_hits"],
        )
        metrics["service.link_hit_ratio"] = _ratio(
            service["link_hits"],
            service["link_hits"] + service["link_misses"] + service["link_store_hits"],
        )
        metrics["service.store_bytes"] = first[-1]["store"]["disk_bytes"]
        for key in ("memory_hits", "store_hits", "compiles"):
            metrics[f"daemon.{key}"] = sum(_tier_counts(s)[key] for s in first)
        tier_p50 = {
            origin: percentile(_latencies(rounds, origin), 0.5)
            for origin in ("memory", "store", "compiled")
        }
        metrics["daemon.hit_overhead_ms"] = tier_p50["memory"] - median(
            fleet.in_process_ms["memory"]
        )
        metrics["daemon.miss_overhead_ms"] = tier_p50["compiled"] - median(
            fleet.in_process_ms["compiled"]
        )
        metrics["client.reply_bytes"] = median(reply_bytes)
        metrics["requests_per_s"] = median(
            len(one["latencies"]) / _round_s(one) for one in rounds
        )
        metrics["request_p95_ms"] = percentile(everything, 0.95)
        metrics["hit_p50_ms"] = tier_p50["memory"]
        metrics["store_hit_p50_ms"] = tier_p50["store"]
        metrics["miss_p50_ms"] = tier_p50["compiled"]
        metrics["trace.overhead_ratio"] = median(map(_round_s, traced)) / round_s
        metrics["gauge.reference_ms"] = reference_s * 1000.0
    else:
        metrics.update(
            {
                "setup_s": generate_s + median(sum(one["starts"]) for one in rounds),
                "peak_rss_mb": median(one["rss"] for one in rounds),
                "emitted_bytes": sum(
                    len(record["artifacts"][kind].encode("utf-8"))
                    for record in fleet.reference
                    for kind in EMIT
                ),
                "round_s": round_s,
                "op_p50_ms": percentile(everything, 0.50),
                "op_p90_ms": percentile(everything, 0.90),
            }
        )

    fleet.check_on_interpreter()
    fleet.charge_broken()
    origins = {}
    for _phase, origin, _latency in rounds[0]["latencies"]:
        origins[origin] = origins.get(origin, 0) + 1
    notes = [
        f"fleet-serve: {len(rounds)} rounds x {len(fleet.stream)} requests, "
        f"tiers of round 1 {origins}, median round {round_s:.3f} s"
    ]
    return outcome, metrics, notes
