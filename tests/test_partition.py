"""Location-directed partitioning and the distributed run harness.

Three layers of coverage:

* **placement inference** -- deterministic propagation of ``at`` annotations
  (Hypothesis over randomly-annotated pipelines), conflicting placements
  rejected with a :class:`~repro.errors.SourceLocation`, location cycles
  rejected before any fragment is compiled;
* **cut structure** -- every kernel process lands in exactly one fragment,
  channels carry exactly the cross-location reads, fragment programs are
  self-contained and fingerprint-stable run to run;
* **the harness** -- the composite trace of the split system equals the
  monolithic reference, both in-process and across real OS processes, and
  the multi-process driver never leaks children (all reaped on every exit
  path, including a poisoned worker);
* **the generated composite** -- in-process runs go through one generated
  module per program, loaded on the first run and never at build time,
  whose runs start from fresh delay registers, in either style.
"""

import multiprocessing
import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro import CompilationService
from repro.codegen import python_backend
from repro.codegen.ir import GenerationStyle
from repro.errors import PartitionError
from repro.lang import normalize, parse_process
from repro.lang.partition import (
    DEFAULT_LOCATION,
    infer_locations,
    partition_program,
    partition_source,
)
from repro.programs import generate_control_program
from repro.runtime.distributed import build_distributed
from repro.runtime.executor import random_input_schedule

from test_differential_fuzz import distributed_spec_for_seed

#: One service for every compiling test in this module.
_SERVICE = CompilationService(max_entries=256)


EDGE_CLOUD_SOURCE = """
process PIPE =
  ( ? integer RAW at edge; boolean ENABLE at edge;
    ! integer SMOOTH at edge; integer TOTAL at cloud; )
  (| ZRAW := RAW $ 1 init 0
   | SMOOTH := (RAW + ZRAW) / 2
   | SAMPLE := SMOOTH when ENABLE
   | ZTOTAL := TOTAL $ 1 init 0
   | TOTAL := SAMPLE + ZTOTAL at cloud
  |)
  where integer ZRAW, SAMPLE, ZTOTAL;
end;
"""


def _monolithic_trace(distributed, schedule):
    outputs = set(distributed.program.outputs)
    step = distributed.reference.executable.fresh()
    return [
        {name: value for name, value in step.step(instant).items() if name in outputs}
        for instant in schedule
    ]


def _schedule(distributed, steps, seed):
    reference = distributed.reference
    return random_input_schedule(
        reference.types,
        list(reference.executable.inputs),
        list(reference.executable.root_flags),
        steps=steps,
        seed=seed,
    )


# -- placement inference -----------------------------------------------------


def test_unannotated_program_is_one_default_fragment():
    part = partition_source(
        "process P = ( ? integer X; ! integer Y; )\n"
        "  (| Y := X + 1 |)\nend;"
    )
    assert [f.location for f in part.fragments] == [DEFAULT_LOCATION]
    assert part.channels == []
    assert len(part.fragments[0].program.processes) == len(part.program.processes)


def test_declaration_annotations_propagate_forward():
    """An unannotated equation adopts its first placed operand's location."""
    part = partition_source(
        "process P = ( ? integer X at a; ! integer Y, Z; )\n"
        "  (| Y := X + 1\n"
        "   | Z := (Y * 2) at b |)\nend;"
    )
    assignment = part.assignment
    assert assignment.signal_locations["Y"] == "a"
    assert assignment.signal_locations["Z"] == "b"
    assert [c.producer + ">" + c.consumer for c in part.channels] == ["a>b"]
    assert [s.name for c in part.channels for s in c.signals] == ["Y"]


def test_equation_annotation_pulls_its_intermediates():
    """Backward rule: a placed equation pulls unplaced defined operands."""
    program = normalize(
        parse_process(
            "process P = ( ? integer X at a; ! integer Y; )\n"
            "  (| T := X * 2\n"
            "   | Y := (T + 1) at a |)\n"
            "  where integer T;\nend;"
        )
    )
    assignment = infer_locations(program)
    assert assignment.signal_locations["T"] == "a"
    assert set(assignment.process_locations) == {"a"}


def test_conflicting_annotations_raise_with_source_location():
    source = (
        "process P = ( ? integer X; ! integer Y at a; )\n"
        "  (| Y := (X + 1) at b |)\nend;"
    )
    with pytest.raises(PartitionError) as excinfo:
        normalize(parse_process(source))
    error = excinfo.value
    assert error.location is not None, "conflict must carry a SourceLocation"
    assert error.location.line == 2
    assert "'a'" in str(error) and "'b'" in str(error)


def test_agreeing_annotations_are_fine():
    part = partition_source(
        "process P = ( ? integer X; ! integer Y at a; )\n"
        "  (| Y := (X + 1) at a |)\nend;"
    )
    assert [f.location for f in part.fragments] == ["a"]


def test_location_cycle_is_rejected():
    """Instantaneously legal feedback spanning two locations cannot be
    scheduled at whole-step granularity and must be rejected up front."""
    source = (
        "process CYC = ( ? integer U; ! integer X, Y; )\n"
        "  (| ZX := (X $ 1 init 0) at b\n"
        "   | Y := (ZX + 1) at a\n"
        "   | X := (Y + U) at b |)\n"
        "  where integer ZX;\nend;"
    )
    with pytest.raises(PartitionError) as excinfo:
        partition_source(source)
    message = str(excinfo.value)
    assert "'a'" in message and "'b'" in message


def test_partition_is_deterministic():
    first = partition_source(EDGE_CLOUD_SOURCE)
    second = partition_source(EDGE_CLOUD_SOURCE)
    assert first.describe() == second.describe()
    for a, b in zip(first.fragments, second.fragments):
        assert a.program.canonical_form() == b.program.canonical_form()
    assert first.channels == second.channels


def test_locations_do_not_change_unannotated_fingerprints():
    """``locations`` only appears in the canonical form when non-empty, so
    every pre-existing fingerprint (and cached artifact) is preserved."""
    plain = normalize(
        parse_process("process P = ( ? integer X; ! integer Y; ) (| Y := X + 1 |) end;")
    )
    pinned = normalize(
        parse_process(
            "process P = ( ? integer X at a; ! integer Y; ) (| Y := X + 1 |) end;"
        )
    )
    assert "locs" not in plain.canonical_form()
    assert "locs" in pinned.canonical_form()
    assert plain.fingerprint() != pinned.fingerprint()


# -- Hypothesis: annotated pipelines ----------------------------------------
#
# A linear pipeline of arithmetic stages with a *non-decreasing* location
# per stage (monotone cuts are always schedulable); each stage is annotated
# or left to propagation.  Inference must place every stage, respect every
# explicit pin, and cut exactly at the location switches.

_OPS = ["+ 1", "* 2", "- 3"]


@st.composite
def pipeline_cases(draw):
    stages = draw(st.integers(min_value=2, max_value=6))
    location_count = draw(st.integers(min_value=1, max_value=3))
    per_stage = sorted(
        draw(
            st.lists(
                st.integers(0, location_count - 1),
                min_size=stages,
                max_size=stages,
            )
        )
    )
    annotated = draw(st.lists(st.booleans(), min_size=stages, max_size=stages))
    return stages, per_stage, annotated


def _pipeline_source(stages, per_stage, annotated):
    lines = []
    previous = "X"
    for index in range(stages):
        op = _OPS[index % len(_OPS)]
        suffix = f" at L{per_stage[index]}" if annotated[index] else ""
        lines.append(f"S{index} := ({previous} {op}){suffix}")
        previous = f"S{index}"
    locals_ = ", ".join(f"S{i}" for i in range(stages - 1))
    where = f"  where integer {locals_};\n" if locals_ else ""
    return (
        f"process CHAIN = ( ? integer X at L{per_stage[0]}; "
        f"! integer S{stages - 1}; )\n"
        "  (| " + "\n   | ".join(lines) + " |)\n" + where + "end;"
    )


@given(pipeline_cases())
@settings(max_examples=40, deadline=None)
def test_pipeline_placement_properties(case):
    stages, per_stage, annotated = case
    part = partition_source(_pipeline_source(stages, per_stage, annotated))
    assignment = part.assignment

    # Every kernel process lands in exactly one fragment; none is lost.
    assert sum(len(f.program.processes) for f in part.fragments) == len(
        part.program.processes
    )

    # Explicit pins are honoured verbatim.
    for index in range(stages):
        if annotated[index]:
            assert assignment.signal_locations[f"S{index}"] == f"L{per_stage[index]}"

    # Unannotated stages inherit a location no later than their own pin
    # (propagation only ever copies an earlier stage's placement).
    placed = [int(assignment.signal_locations[f"S{i}"][1:]) for i in range(stages)]
    assert all(
        placed[i] <= placed[i + 1] for i in range(stages - 1)
    ), f"placement not monotone: {placed}"

    # Channels cut exactly at the location switches, producers upstream.
    order = {loc: i for i, loc in enumerate(assignment.locations)}
    for channel in part.channels:
        assert order[channel.producer] < order[channel.consumer]
        for signal in channel.signals:
            assert assignment.signal_locations[signal.name] == channel.producer

    # Deterministic: a second partition gives identical fragments.
    again = partition_source(_pipeline_source(stages, per_stage, annotated))
    assert [f.program.canonical_form() for f in again.fragments] == [
        f.program.canonical_form() for f in part.fragments
    ]


@given(pipeline_cases(), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=10, deadline=None)
def test_pipeline_composite_matches_monolithic(case, seed):
    stages, per_stage, annotated = case
    source = _pipeline_source(stages, per_stage, annotated)
    distributed = build_distributed(source=source, service=_SERVICE)
    schedule = _schedule(distributed, steps=12, seed=random.Random(seed))
    assert distributed.run(schedule) == _monolithic_trace(distributed, schedule)


# -- cut structure on a realistic program ------------------------------------


def test_edge_cloud_cut_structure():
    part = partition_source(EDGE_CLOUD_SOURCE)
    assert [f.location for f in part.fragments] == ["edge", "cloud"]

    edge = part.fragment_at("edge")
    cloud = part.fragment_at("cloud")
    assert edge.external_inputs == ["RAW", "ENABLE"]
    assert edge.channel_inputs == []
    assert cloud.external_inputs == []
    # The cloud consumes the sampled value; the delayed total stays local.
    assert "SAMPLE" in cloud.channel_inputs
    assert "SAMPLE" in edge.channel_outputs

    (channel,) = part.channels
    assert (channel.producer, channel.consumer) == ("edge", "cloud")
    by_name = {s.name: s.type_name for s in channel.signals}
    assert by_name["SAMPLE"] == "integer"

    # Fragment programs are self-contained: every read is declared.
    for fragment in part.fragments:
        program = fragment.program
        declared = set(program.inputs) | set(program.outputs) | set(program.locals)
        assert set(program.declared_types) == declared


def test_channel_types_are_inferred_for_fresh_intermediates():
    """A cut through a desugared sub-expression types the fresh signal."""
    source = (
        "process F = ( ? integer X at a; ! integer Y; )\n"
        "  (| Y := ((X + (X $ 1 init 0)) * 2) at b |)\nend;"
    )
    part = partition_source(source)
    for channel in part.channels:
        for signal in channel.signals:
            assert signal.type_name in ("integer", "boolean", "event", "real")


# -- the harness -------------------------------------------------------------


def test_composite_trace_matches_monolithic_in_process():
    distributed = build_distributed(source=EDGE_CLOUD_SOURCE, service=_SERVICE)
    schedule = _schedule(distributed, steps=48, seed=random.Random(11))
    assert distributed.run(schedule) == _monolithic_trace(distributed, schedule)


def test_composite_trace_matches_monolithic_across_processes():
    """The acceptance-criterion path: >= 2 real OS processes, byte-identical
    composite trace."""
    distributed = build_distributed(source=EDGE_CLOUD_SOURCE, service=_SERVICE)
    assert len(distributed.locations) >= 2
    schedule = _schedule(distributed, steps=32, seed=random.Random(23))
    reference = _monolithic_trace(distributed, schedule)
    assert distributed.run_multiprocess(schedule) == reference


def test_multiprocess_reaps_children_on_success():
    distributed = build_distributed(source=EDGE_CLOUD_SOURCE, service=_SERVICE)
    schedule = _schedule(distributed, steps=8, seed=random.Random(5))
    distributed.run_multiprocess(schedule)
    assert _no_fragment_children()


def test_multiprocess_reaps_children_on_driver_failure():
    """A schedule that poisons the parent loop mid-run must still leave no
    orphaned fragment processes behind."""
    distributed = build_distributed(source=EDGE_CLOUD_SOURCE, service=_SERVICE)
    good = _schedule(distributed, steps=4, seed=random.Random(7))

    with pytest.raises(RuntimeError, match="poisoned instant"):
        distributed.run_multiprocess(list(good[:1]) + [_Exploding()])
    assert _no_fragment_children()


class _Exploding(dict):
    """A schedule instant whose reads blow up inside the driver loop."""

    def __contains__(self, key):
        raise RuntimeError("poisoned instant")


def _no_fragment_children(timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not [
            child
            for child in multiprocessing.active_children()
            if child.name.startswith("repro-frag-")
        ]:
            return True
        time.sleep(0.05)
    return False


def test_channel_presence_drives_consumer_clock():
    """A cut signal with a derived clock is fine: its presence travels with
    the value, so the consumer's clock sees exactly the monolithic clock."""
    source = (
        "process H = ( ? integer X at a; boolean C at a; ! integer Y; )\n"
        "  (| T := X when C\n"
        "   | Y := (T + 1) at b |)\n"
        "  where integer T;\nend;"
    )
    distributed = build_distributed(source=source, service=_SERVICE)
    schedule = _schedule(distributed, steps=24, seed=random.Random(3))
    assert distributed.run(schedule) == _monolithic_trace(distributed, schedule)


def test_unschedulable_free_clock_is_rejected_at_build_time():
    """A fragment whose free clock is constrained at another location --
    here ``X``'s presence is tied to ``C`` at ``a`` while ``b`` reads ``X``
    directly -- must fail when the harness is built, not diverge silently
    at run time."""
    source = (
        "process H = ( ? integer X at a; boolean C at a; ! integer Y; )\n"
        "  (| synchro { X, when C }\n"
        "   | Y := (X + 1) at b |)\nend;"
    )
    with pytest.raises(PartitionError, match="constrained at another location"):
        build_distributed(source=source, service=_SERVICE)


# -- the annotated fuzz corpus ------------------------------------------------


def test_distributed_corpus_spec_cuts_into_two_locations():
    from repro.programs import ControlProgramSpec, generate_control_program

    spec = ControlProgramSpec(name="DSPEC", modules=2, distributed=True)
    part = partition_source(generate_control_program(spec))
    assert [f.location for f in part.fragments] == ["edge", "cloud"]
    assert part.channels, "the cloud layer must consume edge-defined signals"
    produced = {s.name for c in part.channels for s in c.signals}
    assert {"ALR_0", "FLT_0"} <= produced


def test_distributed_spec_off_is_byte_identical():
    """The flag defaults off and must not perturb existing corpus sources."""
    from repro.programs import ControlProgramSpec, generate_control_program

    plain = ControlProgramSpec(name="SAME", modules=2)
    explicit = ControlProgramSpec(name="SAME", modules=2, distributed=False)
    assert generate_control_program(plain) == generate_control_program(explicit)
    assert "at " not in generate_control_program(plain)


# -- the generated composite ---------------------------------------------------


@pytest.fixture()
def step_loads(monkeypatch):
    """The name of every generated module compiled and executed, in order."""
    loads = []
    real = python_backend.load_step_class

    def counting(source, name):
        loads.append(name)
        return real(source, name)

    monkeypatch.setattr(python_backend, "load_step_class", counting)
    return loads


@pytest.mark.parametrize("case", ["pipeline", 0, 17])
def test_flat_composite_matches_flat_monolithic(case):
    """The flat style splits too: the pipeline and two annotated corpus
    seeds, fragments and reference all compiled flat."""
    if case == "pipeline":
        source = EDGE_CLOUD_SOURCE
    else:
        source = generate_control_program(distributed_spec_for_seed(case))
    distributed = build_distributed(
        source=source, service=_SERVICE, style=GenerationStyle.FLAT
    )
    assert distributed.locations == ["edge", "cloud"]
    styles = {runtime.executable.style for runtime in distributed.runtimes}
    assert styles | {distributed.reference.executable.style} == {GenerationStyle.FLAT}
    schedule = _schedule(distributed, steps=48, seed=random.Random(f"flat:{case}"))
    assert distributed.run(schedule) == _monolithic_trace(distributed, schedule)


def test_repeated_and_interleaved_runs_start_from_fresh_registers():
    """Every run owns its fragment instances: running twice, running
    another schedule in between, or starting a run while another is halfway
    through its schedule never leaks delay-register state between runs."""
    distributed = build_distributed(source=EDGE_CLOUD_SOURCE, service=_SERVICE)
    first = _schedule(distributed, steps=24, seed=random.Random(31))
    second = _schedule(distributed, steps=24, seed=random.Random(32))
    want_first = _monolithic_trace(distributed, first)
    want_second = _monolithic_trace(distributed, second)
    assert want_first != want_second

    assert distributed.run(first) == want_first
    assert distributed.run(first) == want_first
    assert distributed.run(second) == want_second
    assert distributed.run(first) == want_first

    nested = []

    def interleaved():
        for index, instant in enumerate(first):
            if index == len(first) // 2:
                nested.append(distributed.run(second))
            yield instant

    assert distributed.run(interleaved()) == want_first
    assert nested == [want_second]


def test_composite_module_loads_once_per_program_never_at_build(step_loads):
    service = CompilationService()
    try:
        distributed = build_distributed(source=EDGE_CLOUD_SOURCE, service=service)
        assert step_loads == [], "building the harness loads no generated code"
        schedule = _schedule(distributed, steps=16, seed=random.Random(41))
        want = _monolithic_trace(distributed, schedule)
        assert distributed.run(schedule) == want
        assert distributed.run(schedule) == want
        assert step_loads.count("PIPE_composite") == 1

        # A second program of the same source gets its own module.
        again = build_distributed(source=EDGE_CLOUD_SOURCE, service=service)
        assert again.run(schedule) == want
        assert step_loads.count("PIPE_composite") == 2
        assert "PIPE_composite_step" in again.composite_source()
    finally:
        service.close()


def test_flat_multiprocess_matches_and_reaps_without_the_composite(step_loads):
    """The OS-process mode shares the wiring plan, not the generated
    composite: it never loads the module, matches the monolithic trace in
    the flat style, and reaps its children."""
    distributed = build_distributed(
        source=EDGE_CLOUD_SOURCE, service=_SERVICE, style=GenerationStyle.FLAT
    )
    schedule = _schedule(distributed, steps=16, seed=random.Random(43))
    want = _monolithic_trace(distributed, schedule)
    assert distributed.run_multiprocess(schedule) == want
    assert _no_fragment_children()
    assert "PIPE_composite" not in step_loads


def test_source_fragment_reads_the_instant_only_where_equivalent():
    """A fragment is handed the driving instant itself only when its
    inputs are all external and its free clocks are the monolithic flags
    of the same key and default: dropping the false flags from every
    instant then changes nothing.  The annotated corpus's single edge
    clock defaults to present in the fragment and in the monolithic
    program alike, so that edge fragment reads the instant too."""
    distributed = build_distributed(source=EDGE_CLOUD_SOURCE, service=_SERVICE)
    edge, cloud = distributed.runtimes
    assert edge.reads_instant and not cloud.reads_instant
    assert "step0(instant)" in distributed.composite_source()
    schedule = _schedule(distributed, steps=32, seed=random.Random(47))
    flags = {key for _cid, key, _default in distributed.reference.executable.root_flags}
    sparse = [
        {name: value for name, value in instant.items() if name not in flags or value}
        for instant in schedule
    ]
    assert sparse != schedule
    assert distributed.run(sparse) == distributed.run(schedule)
    assert distributed.run(schedule) == _monolithic_trace(distributed, schedule)

    corpus = build_distributed(
        source=generate_control_program(distributed_spec_for_seed(0)),
        service=_SERVICE,
    )
    assert [runtime.reads_instant for runtime in corpus.runtimes] == [True, False]


@pytest.mark.parametrize("mode", ["run", "run_multiprocess"])
def test_schedule_omitting_a_free_clock_flag_matches_monolithic(mode):
    """An instant without a free clock's flag means that clock's default,
    in the composite as in the monolithic step.  The annotated corpus's
    single free clock defaults to present, so a schedule that omits its
    flag still drives every fragment."""
    distributed = build_distributed(
        source=generate_control_program(distributed_spec_for_seed(0)),
        service=_SERVICE,
    )
    ((_cid, key, default),) = distributed.reference.executable.root_flags
    assert default is True
    schedule = [
        {name: value for name, value in instant.items() if name != key}
        for instant in _schedule(distributed, steps=8, seed=random.Random(1))
    ]
    want = _monolithic_trace(distributed, schedule)
    assert any(want)
    assert getattr(distributed, mode)(schedule) == want


def test_concurrent_runs_share_one_composite(step_loads):
    """Threads racing the first run load one module between them, and
    concurrent runs of it keep their fragment state apart."""
    distributed = build_distributed(source=EDGE_CLOUD_SOURCE, service=_SERVICE)
    schedules = [
        _schedule(distributed, steps=24, seed=random.Random(60 + index))
        for index in range(6)
    ]
    wanted = [_monolithic_trace(distributed, schedule) for schedule in schedules]
    errors = []
    start = threading.Barrier(len(schedules))

    def worker(index):
        try:
            start.wait(timeout=10)
            for _ in range(40):
                assert distributed.run(schedules[index]) == wanted[index]
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(schedules))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert step_loads.count("PIPE_composite") == 1
