"""Lock-step execution of a partitioned program, in one process or many.

The partitioner (:mod:`repro.lang.partition`) cuts a program into one
kernel program per location plus typed channels at the cuts.  This module
compiles every fragment through the :class:`~repro.service.service.
CompilationService` (the modular path by default, so fragments sharing
modules dedupe against the fleet-wide unit cache), wires them once, when
the harness is built, and advances the fragments **instant by instant**:

* each instant, fragments step in the topological order of the location
  graph; a channel carries, per instant, the pair (presence, value) of
  every cut signal -- absence is transmitted explicitly as a missing key,
  so the consumer's clocks see exactly what the monolithic program saw;
* free clocks of a fragment are resolved from two sources: classes
  containing a channel signal take their presence from the producer
  ("did the value arrive this instant"), all other classes map back onto
  a free clock of the *monolithic* program and read the driving schedule
  directly, falling back to that clock's monolithic default when an
  instant omits it.  A fragment clock that is neither is constrained at another
  location -- the partition is rejected when the harness is built;
* the wiring plan of a fragment (its external inputs, the producer of
  each channel input, its flag plans and its channel outputs) is fixed at
  build time and drives both execution modes.

:meth:`DistributedProgram.run` executes the composite as *generated code*,
the way the paper compiles a whole program to one step: on first use the
wiring plan is rendered as one small python module (see
:func:`render_composite_module`) whose ``run(schedule)`` builds fresh
fragment step instances and, per instant, calls their generated ``step``
methods directly with literal per-signal input statements.  The module is
loaded through :func:`repro.codegen.python_backend.load_step_class` once
per program and cached on it.

:meth:`DistributedProgram.run_multiprocess` spawns one OS process per
fragment, wires the channels as :func:`multiprocessing.Pipe` pairs, and
drives the children over a control pipe.  Children are always reaped: the
parent sends a shutdown sentinel, joins, and terminates stragglers even on
``KeyboardInterrupt`` or ``SIGTERM``.  The wire format on every pipe is
one picklable dict per instant: ``{"inputs": {...}, "flags": {...}}``
parent-to-child, ``{signal: value}`` (present signals only)
child-to-parent and on every channel pipe.
"""

from __future__ import annotations

import multiprocessing
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..codegen import python_backend
from ..errors import PartitionError
from ..lang.ast import Process
from ..lang.kernel import KernelProgram, normalize
from ..lang.parser import parse_process
from ..lang.partition import Fragment, PartitionedProgram, partition_program
from ..lang.types import SignalType

__all__ = [
    "FragmentRuntime",
    "DistributedProgram",
    "build_distributed",
    "render_composite_module",
]

#: serializes first loads, so racing threads share one loaded composite
_LOAD_LOCK = threading.Lock()


def _serialize_atoms(atoms) -> List[Tuple[str, str]]:
    """Clock atoms as ``(kind, signal)`` pairs (mirrors the unit records)."""
    from ..clocks.algebra import CondFalse, CondTrue, SignalClock

    serialized: List[Tuple[str, str]] = []
    for atom in atoms:
        if isinstance(atom, SignalClock):
            serialized.append(("signal", atom.signal))
        elif isinstance(atom, CondTrue):
            serialized.append(("cond_true", atom.signal))
        elif isinstance(atom, CondFalse):
            serialized.append(("cond_false", atom.signal))
    return serialized


def _root_flag_atoms(result) -> List[List[Tuple[str, str]]]:
    """Atom sets of the free classes behind ``result.executable.root_flags``.

    Aligned index-by-index with the executable's root-flag list.  Works for
    both monolithic results (read off the clock hierarchy) and linked
    modular results (read off the per-unit records, renamed back to the
    program's signal names).
    """
    hierarchy = getattr(result, "hierarchy", None)
    if hierarchy is not None:
        return [
            _serialize_atoms(c.atoms)
            for c in hierarchy.free_classes()
            if not c.is_null
        ]
    atoms_per_flag: List[List[Tuple[str, str]]] = []
    for unit, record in zip(result.units, result.unit_records):
        rename = unit.from_canonical
        by_id = {free["id"]: free["atoms"] for free in record["free_classes"]}
        payload = next(iter(record["ir"].values()))
        for cid, _key, _default in payload["root_flags"]:
            atoms_per_flag.append(
                [(kind, rename.get(signal, signal)) for kind, signal in by_id[cid]]
            )
    return atoms_per_flag


@dataclass
class FragmentRuntime:
    """One compiled fragment plus its wiring plan."""

    fragment: Fragment
    result: object
    #: per root flag of the fragment executable: ``(key, "channel", members)``
    #: or ``(key, "external", (monolithic_key, monolithic_default))``
    flag_plans: List[Tuple[str, str, object]] = field(default_factory=list)
    #: channel outputs grouped by consumer location, in topological order
    sends: List[Tuple[str, List[str]]] = field(default_factory=list)
    #: the producing location of every channel input
    sources: Dict[str, str] = field(default_factory=dict)

    @property
    def location(self) -> str:
        return self.fragment.location

    @property
    def executable(self):
        return self.result.executable

    @property
    def external_flags(self) -> List[Tuple[str, str, bool]]:
        """``(key, monolithic_key, monolithic_default)`` of every flag read
        off the schedule: an instant that omits the monolithic flag means
        what it means to the monolithic step, its default."""
        return [
            (key, *payload) for key, kind, payload in self.flag_plans
            if kind == "external"
        ]

    @property
    def channel_flags(self) -> List[Tuple[str, List[str]]]:
        """``(key, members)`` of every flag set by a channel's arrival."""
        return [
            (key, payload) for key, kind, payload in self.flag_plans
            if kind == "channel"
        ]

    @property
    def reads_instant(self) -> bool:
        """Whether the driving instant itself is this fragment's input.

        True when every input is external and every free clock reads the
        monolithic flag of the same key and the same default: the generated
        step then reads from the instant exactly what a copy of the
        fragment's inputs would hold (the step only reads its inputs).
        """
        executable = self.executable
        return set(executable.inputs) <= set(self.fragment.external_inputs) and all(
            kind == "external" and payload == (key, default)
            for (key, kind, payload), (_cid, _key, default) in zip(
                self.flag_plans, executable.root_flags
            )
        )

    def worker_payload(self) -> dict:
        """Everything a child process needs to rebuild and run the step."""
        executable = self.executable
        return {
            "source": executable.source,
            "name": executable.name,
            "style": executable.style.value,
            "inputs": list(executable.inputs),
            "outputs": list(executable.outputs),
            "root_flags": [list(flag) for flag in executable.root_flags],
            "types": {name: t.value for name, t in executable.types.items()},
            "channel_flags": self.channel_flags,
        }


def render_composite_module(
    name: str, runtimes: Sequence[FragmentRuntime], program_outputs: Sequence[str]
) -> str:
    """The lock-step composite of ``runtimes`` as python source.

    The module defines ``<name>_composite_step``, constructed with the
    step class of every fragment (in ``runtimes`` order).  Its
    ``run(schedule)`` builds fresh fragment instances, so delay registers
    start from their initial values on every run, and steps them in order
    each instant.  Fragment ``k``'s inputs ``i<k>`` are literal statements
    over the instant (external inputs and flags) and over the output dict
    ``o<p>`` of each producer ``p`` (channel values, and channel flags as
    "did a member arrive"); a fragment that :attr:`~FragmentRuntime.
    reads_instant` is passed the instant itself.  Returns, per instant,
    the present program outputs, gathered into the output dict of the last
    fragment that emits program outputs only (a fresh dict per step).
    """
    index = {runtime.location: k for k, runtime in enumerate(runtimes)}
    wanted = set(program_outputs)
    fragments = ", ".join(runtime.location for runtime in runtimes)
    parameters = "".join(f", f{k}" for k in range(len(runtimes)))
    lines = [
        '"""Generated by the SIGNAL reproduction compiler -- do not edit."""',
        "",
        "",
        f"class {name}_composite_step:".replace("-", "_"),
        f'    """Lock-step composite of process {name} (fragments: {fragments})."""',
        "",
        f"    def __init__(self{parameters}):",
    ]
    lines += [f"        self.f{k} = f{k}" for k in range(len(runtimes))] or ["        pass"]
    lines += ["", "    def run(self, schedule):"]
    lines += [f"        step{k} = self.f{k}().step" for k in range(len(runtimes))]
    lines += [
        "        composite = []",
        "        append = composite.append",
        "        for instant in schedule:",
    ]
    wired = [runtime for runtime in runtimes if not runtime.reads_instant]
    if any(runtime.external_flags for runtime in wired):
        lines.append("            get = instant.get")
    for k, runtime in enumerate(runtimes):
        if runtime.reads_instant:
            lines.append(f"            o{k} = step{k}(instant)")
            continue
        flags = [
            f"{key!r}: bool(get({monolithic!r}, {default!r}))"
            for key, monolithic, default in runtime.external_flags
        ] + [
            f"{key!r}: "
            + " or ".join(
                f"{member!r} in o{index[runtime.sources[member]]}" for member in members
            )
            for key, members in runtime.channel_flags
        ]
        lines.append(f"            i{k} = {{{', '.join(flags)}}}")
        for signal in runtime.fragment.external_inputs:
            lines.append(f"            if {signal!r} in instant:")
            lines.append(f"                i{k}[{signal!r}] = instant[{signal!r}]")
        for signal in runtime.fragment.channel_inputs:
            producer = f"o{index[runtime.sources[signal]]}"
            lines.append(f"            if {signal!r} in {producer}:")
            lines.append(f"                i{k}[{signal!r}] = {producer}[{signal!r}]")
        lines.append(f"            o{k} = step{k}(i{k})")
    # Fragments emitting program outputs only are gathered whole; the last
    # of them lends its (per-step) output dict to the composite trace.
    whole = [
        k for k, runtime in enumerate(runtimes)
        if runtime.executable.outputs and wanted.issuperset(runtime.executable.outputs)
    ]
    if whole:
        lines.append(f"            observed = o{whole[-1]}")
    else:
        lines.append("            observed = {}")
    for k, runtime in enumerate(runtimes):
        if whole and k == whole[-1]:
            continue
        if k in whole:
            lines.append(f"            observed.update(o{k})")
            continue
        for signal in runtime.executable.outputs:
            if signal in wanted:
                lines.append(f"            if {signal!r} in o{k}:")
                lines.append(f"                observed[{signal!r}] = o{k}[{signal!r}]")
    lines += ["            append(observed)", "        return composite", ""]
    return "\n".join(lines)


@dataclass
class DistributedProgram:
    """A partitioned program, compiled per fragment and ready to run."""

    partitioned: PartitionedProgram
    #: monolithic reference compilation (drives schedules and external clocks)
    reference: object
    runtimes: List[FragmentRuntime]
    #: the loaded composite, built on the first :meth:`run`
    _composite: Optional[object] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def program(self) -> KernelProgram:
        return self.partitioned.program

    @property
    def locations(self) -> List[str]:
        return [runtime.location for runtime in self.runtimes]

    def interpreter(self):
        """A fresh reference interpreter for the unsplit program."""
        return self.reference.interpreter()

    def composite_source(self) -> str:
        """The generated python module behind :meth:`run`."""
        return render_composite_module(
            self.program.name, self.runtimes, self.program.outputs
        )

    def run(self, schedule: Sequence[Mapping[str, object]]) -> List[Dict[str, object]]:
        """Step every fragment in one process, instant by instant.

        ``schedule`` is a monolithic driving schedule (input values plus
        presence booleans for the monolithic program's free clocks, as
        produced by :func:`repro.runtime.executor.random_input_schedule`
        for the reference compilation).  Returns, per instant, the present
        *program* outputs of the composite system.  Every run starts from
        fresh delay registers.
        """
        composite = self._composite
        if composite is None:
            with _LOAD_LOCK:
                if self._composite is None:
                    composite_class = python_backend.load_step_class(
                        self.composite_source(), f"{self.program.name}_composite"
                    )
                    self._composite = composite_class(
                        *(
                            type(runtime.executable.step_instance)
                            for runtime in self.runtimes
                        )
                    )
                composite = self._composite
        return composite.run(schedule)

    # -- multi-process execution -------------------------------------------
    def run_multiprocess(
        self,
        schedule: Sequence[Mapping[str, object]],
        join_timeout: float = 10.0,
    ) -> List[Dict[str, object]]:
        """Like :meth:`run`, with one OS process per fragment.

        Channels are anonymous pipes wired producer-to-consumer; the parent
        only distributes the external schedule and collects outputs.
        Children are reaped on every exit path, including
        ``KeyboardInterrupt``.
        """
        context = multiprocessing.get_context("spawn")
        # One control pipe per fragment, one data pipe per channel pair.
        channel_pipes: Dict[Tuple[str, str], Tuple] = {}
        for runtime in self.runtimes:
            for consumer, _signals in runtime.sends:
                receive_end, send_end = context.Pipe(duplex=False)
                channel_pipes[(runtime.location, consumer)] = (receive_end, send_end)

        children: List = []
        controls: List = []
        program_outputs = set(self.program.outputs)
        messages = [
            (runtime.fragment.external_inputs, runtime.external_flags)
            for runtime in self.runtimes
        ]
        try:
            for runtime in self.runtimes:
                parent_end, child_end = context.Pipe()
                in_conns = [
                    receive_end
                    for (producer, consumer), (receive_end, _s) in channel_pipes.items()
                    if consumer == runtime.location
                ]
                out_conns = [
                    (channel_pipes[(runtime.location, consumer)][1], signals)
                    for consumer, signals in runtime.sends
                ]
                child = context.Process(
                    target=_fragment_worker,
                    args=(child_end, in_conns, out_conns, runtime.worker_payload()),
                    daemon=True,
                    name=f"repro-frag-{runtime.location}",
                )
                child.start()
                child_end.close()
                children.append(child)
                controls.append(parent_end)
            # The parent keeps the channel send-ends open only inside the
            # producing child; close its copies so EOF propagates.
            for receive_end, send_end in channel_pipes.values():
                send_end.close()
                receive_end.close()

            composite: List[Dict[str, object]] = []
            for instant in schedule:
                for (external, flags), control in zip(messages, controls):
                    control.send(
                        {
                            "inputs": {
                                name: instant[name] for name in external if name in instant
                            },
                            "flags": {
                                key: bool(instant.get(monolithic, default))
                                for key, monolithic, default in flags
                            },
                        }
                    )
                observed: Dict[str, object] = {}
                for control in controls:
                    outputs = control.recv()
                    for name, value in outputs.items():
                        if name in program_outputs:
                            observed[name] = value
                composite.append(observed)
            return composite
        finally:
            for control in controls:
                try:
                    control.send(None)
                except (BrokenPipeError, OSError):
                    pass
            for child in children:
                child.join(timeout=join_timeout)
            for child in children:
                if child.is_alive():
                    child.terminate()
                    child.join(timeout=join_timeout)
            for control in controls:
                control.close()


def _fragment_worker(control, in_conns, out_conns, payload) -> None:
    """Child process body: rebuild the step, then loop until shutdown.

    Exits cleanly on the ``None`` sentinel, on control-pipe EOF (parent
    died) and on ``KeyboardInterrupt``/``SIGTERM`` -- the parent's reaper
    then joins it without force.
    """
    from ..codegen.ir import GenerationStyle
    from ..codegen.python_backend import CompiledProcess

    executable = CompiledProcess.from_generated_source(
        source=payload["source"],
        name=payload["name"],
        style=GenerationStyle(payload["style"]),
        inputs=payload["inputs"],
        outputs=payload["outputs"],
        root_flags=[tuple(flag) for flag in payload["root_flags"]],
        types={name: SignalType(value) for name, value in payload["types"].items()},
    )
    channel_flags = payload["channel_flags"]
    try:
        while True:
            try:
                message = control.recv()
            except (EOFError, OSError):
                break
            if message is None:
                break
            values = dict(message["inputs"])
            values.update(message["flags"])
            arrived: Dict[str, object] = {}
            for conn in in_conns:
                arrived.update(conn.recv())
            values.update(arrived)
            for key, members in channel_flags:
                values[key] = any(member in arrived for member in members)
            outputs = executable.step(values)
            for conn, signals in out_conns:
                conn.send({s: outputs[s] for s in signals if s in outputs})
            control.send(outputs)
    except KeyboardInterrupt:
        pass
    finally:
        control.close()


def _plan_fragment_flags(
    runtime_result,
    fragment: Fragment,
    monolithic_flags_by_atom: Dict[Tuple[str, str], Tuple[str, bool]],
) -> List[Tuple[str, str, object]]:
    """Decide, per fragment free clock, where its presence comes from."""
    plans: List[Tuple[str, str, object]] = []
    channel_inputs = set(fragment.channel_inputs)
    atoms_per_flag = _root_flag_atoms(runtime_result)
    root_flags = runtime_result.executable.root_flags
    if len(atoms_per_flag) != len(root_flags):  # pragma: no cover - invariant
        raise PartitionError(
            f"fragment {fragment.location!r}: free-clock metadata out of sync"
        )
    for (cid, key, _default), atoms in zip(root_flags, atoms_per_flag):
        members = [
            signal for kind, signal in atoms
            if kind == "signal" and signal in channel_inputs
        ]
        if members:
            plans.append((key, "channel", members))
            continue
        monolithic = None
        for atom in atoms:
            monolithic = monolithic_flags_by_atom.get(atom)
            if monolithic is not None:
                break
        if monolithic is None:
            names = ", ".join(signal for _kind, signal in atoms) or key
            raise PartitionError(
                f"fragment {fragment.location!r}: the clock of {names} is free"
                " locally but constrained at another location; co-locate the"
                " constraint or annotate the signals explicitly"
            )
        plans.append((key, "external", monolithic))
    return plans


def build_distributed(
    source: Optional[str] = None,
    process: Optional[Process] = None,
    program: Optional[KernelProgram] = None,
    service=None,
    style=None,
    modular: bool = True,
) -> DistributedProgram:
    """Partition, compile and wire a program for distributed execution.

    The monolithic program is compiled once (the reference for schedules
    and differential checks), each fragment once through ``service`` --
    by default the modular path, so fragments reuse fleet-wide unit
    artifacts.  Raises :class:`~repro.errors.PartitionError` when the cut
    cannot be executed lock-step.
    """
    from ..codegen.ir import GenerationStyle
    from ..service.service import CompilationService

    if style is None:
        style = GenerationStyle.HIERARCHICAL
    if program is None:
        if process is None:
            if source is None:
                raise ValueError("provide source, process or program")
            process = parse_process(source)
        program = normalize(process)
    if process is None:
        process = Process(name=program.name)

    owns_service = service is None
    if owns_service:
        service = CompilationService()
    try:
        partitioned = partition_program(program)
        reference = service.compile_process(process, style=style, program=program)
        monolithic_flags_by_atom: Dict[Tuple[str, str], Tuple[str, bool]] = {}
        for (cid, key, default), atoms in zip(
            reference.executable.root_flags, _root_flag_atoms(reference)
        ):
            for atom in atoms:
                monolithic_flags_by_atom[atom] = (key, default)

        consumer_order = {loc: i for i, loc in enumerate(partitioned.assignment.locations)}
        runtimes: List[FragmentRuntime] = []
        for fragment in partitioned.fragments:
            stub = Process(name=fragment.program.name)
            if modular:
                result = service.compile_modular(
                    process=stub, program=fragment.program, style=style
                )
            else:
                result = service.compile_process(
                    stub, style=style, program=fragment.program
                )
            sends: Dict[str, List[str]] = {}
            sources: Dict[str, str] = {}
            for channel in partitioned.channels:
                if channel.producer == fragment.location:
                    sends[channel.consumer] = [s.name for s in channel.signals]
                if channel.consumer == fragment.location:
                    sources.update((s.name, channel.producer) for s in channel.signals)
            runtimes.append(
                FragmentRuntime(
                    fragment=fragment,
                    result=result,
                    flag_plans=_plan_fragment_flags(
                        result, fragment, monolithic_flags_by_atom
                    ),
                    sends=sorted(
                        sends.items(), key=lambda item: consumer_order[item[0]]
                    ),
                    sources=sources,
                )
            )
        return DistributedProgram(
            partitioned=partitioned, reference=reference, runtimes=runtimes
        )
    finally:
        if owns_service:
            service.close()
