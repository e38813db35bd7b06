"""Regression tests for the algorithmic costs of a cold compile and a link.

These changes keep compiling and serving cheap without changing what they
produce:

* a compile builds one step IR per generation style, shared by the
  executable and the python, C and ``c_shared`` emitters;
* Figure-12 insertion descends from the roots into including subtrees only,
  instead of scanning the whole forest for the deepest including node;
* the nested IR builder files each scheduling constraint under the lowest
  common ancestor of its two endpoints instead of rescanning every
  constraint at every tree node, and inclusion is decided without building
  ``f & ~g``;
* a generated python step is compiled and executed on its first use, once,
  so rendering records and serving sources never load one;
* the link stage renames canonical tokens with one precompiled pattern and
  a dictionary lookup, and ``split_units`` groups a program in one pass
  instead of filtering every process once per unit.

The reference implementations below are the straightforward versions;
swapped in, they must give byte-identical trees, sources, compile records
(up to ``bdd_nodes_total``, which counts the BDD nodes the manager
allocated and so drops when inclusion tests stop allocating), renamed texts
and units on the Figure-13 suite, the shared-module fleet and the
differential-fuzz corpus.
"""

import re
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import CompilationService, compile_source
from repro import compiler
from repro.bdd import BDDManager
from repro.clocks.resolution import ArborescentResolver, ClockClass
from repro.clocks.tree import ClockForest, ClockNode
from repro.codegen import ir as ir_module
from repro.codegen import python_backend
from repro.codegen.ir import GenerationStyle, _HierarchicalBuilder
from repro.graph.scheduling import ComputeClock, ComputeSignal
from repro.lang import normalize, parse_process
from repro.lang.kernel import KernelProgram, rename_program
from repro.lang.units import (
    UNIT_PROGRAM_NAME,
    ProgramUnit,
    _canonical_maps,
    _UnionFind,
    process_signals,
    rename_text,
    split_units,
)
from repro.programs import (
    benchmark_names,
    benchmark_source,
    fleet_sources,
    generate_control_program,
)
from repro.runtime import ReactiveExecutor, random_oracle
from repro.service import CompilationDaemon, CompileStore, executable_from_record

from test_differential_fuzz import NUM_PROGRAMS, spec_for_seed

STYLES = (GenerationStyle.HIERARCHICAL, GenerationStyle.FLAT)


def _corpus():
    cases = [(name, benchmark_source(name)) for name in benchmark_names()]
    cases += [(f"FLEET_{i}", source) for i, source in enumerate(fleet_sources())]
    cases += [
        (f"FUZZ_{seed}", generate_control_program(spec_for_seed(seed)))
        for seed in range(NUM_PROGRAMS)
    ]
    return cases


CORPUS = _corpus()
CORPUS_IDS = [name for name, _source in CORPUS]


# ---------------------------------------------------------------------------
# Reference implementations
# ---------------------------------------------------------------------------


def _constructive_implies(first, second):
    return (first & ~second).is_false


def _full_scan_parent(self, forest, node):
    """Figure 12 by a scan of the whole forest: the first deepest including node."""
    best = None
    best_depth = -1
    for candidate in forest.iter_nodes():
        if node.is_ancestor_of(candidate) or candidate.clock_class is node.clock_class:
            continue
        if _constructive_implies(node.clock_class.bdd, candidate.clock_class.bdd):
            depth = candidate.depth
            if depth > best_depth:
                best = candidate
                best_depth = depth
    return best


def _rescanning_local_items(self, node, children, signals):
    """Local ordering constraints by a scan of every prerequisite of the schedule."""
    items = [("signal", s) for s in signals] + [("child", c) for c in children]
    action_item = {ComputeSignal(s): ("signal", s) for s in signals}
    for child in children:
        for descendant in child.iter_subtree():
            action_item[ComputeClock(descendant.clock_class.id)] = ("child", child)
            for signal in self.node_signals.get(descendant.clock_class.id, []):
                action_item[ComputeSignal(signal)] = ("child", child)
    index = {item: position for position, item in enumerate(items)}
    edges = set()
    for action, prerequisites in self.schedule.prerequisites.items():
        target = action_item.get(action)
        if target is None:
            continue
        for prerequisite in prerequisites:
            source = action_item.get(prerequisite)
            if source is not None and source != target:
                edges.add((index[source], index[target]))
    return edges, items


def _alternation_rename_text(text, mapping):
    """Rename by one alternation of the escaped map keys, built per call."""
    if not mapping or not text:
        return text
    alternation = "|".join(
        re.escape(name) for name in sorted(mapping, key=len, reverse=True)
    )
    pattern = re.compile(rf"(?<![A-Za-z0-9])(?:{alternation})(?![A-Za-z0-9])")
    return pattern.sub(lambda match: mapping[match.group(0)], text)


def _filtering_split_units(program):
    """Split by filtering every signal list and process once per unit."""
    uf = _UnionFind()
    for signal in program.signals:
        uf.add(signal)
    for process in program.processes:
        names = process_signals(process)
        for other in names[1:]:
            uf.union(names[0], other)
    component_of = {}
    order = []
    for signal in program.signals:
        root = uf.find(signal)
        if root not in component_of:
            component_of[root] = []
            order.append(root)
        component_of[root].append(signal)
    units = []
    for index, root in enumerate(order):
        members = set(component_of[root])
        sub = KernelProgram(
            name=program.name,
            inputs=[s for s in program.inputs if s in members],
            outputs=[s for s in program.outputs if s in members],
            locals=[s for s in program.locals if s in members],
            declared_types={
                s: program.declared_types.get(s, "")
                for s in program.signals
                if s in members
            },
            processes=[
                p
                for p in program.processes
                if process_signals(p) and uf.find(process_signals(p)[0]) == root
            ],
        )
        to_canonical, from_canonical = _canonical_maps(sub)
        canonical = rename_program(sub, to_canonical, name=UNIT_PROGRAM_NAME)
        units.append(ProgramUnit(index, sub, canonical, to_canonical, from_canonical))
    return units


def _artifacts(source):
    result = compile_source(source, build_flat=True)
    texts = {"tree": result.tree_text()}
    for style in STYLES:
        texts[f"python/{style.value}"] = result.python_source(style)
        texts[f"c/{style.value}"] = result.c_source(style)
        texts[f"c_shared/{style.value}"] = result.c_shared_source(style)
    return texts


# ---------------------------------------------------------------------------
# One step IR per style
# ---------------------------------------------------------------------------


@pytest.fixture()
def ir_builds(monkeypatch):
    """The styles of every ``build_step_ir`` call, wherever it is called from."""
    calls = []
    real = ir_module.build_step_ir

    def counting(schedule, types, style=GenerationStyle.HIERARCHICAL, name=None):
        calls.append(style)
        return real(schedule, types, style, name)

    for module in (compiler, python_backend):
        monkeypatch.setattr(module, "build_step_ir", counting)
    return calls


@pytest.mark.parametrize("name", benchmark_names())
def test_cold_compile_record_builds_one_ir_per_style(name, ir_builds):
    source = benchmark_source(name)
    CompilationService().compile_record(source)
    assert ir_builds == [GenerationStyle.HIERARCHICAL]

    ir_builds.clear()
    CompilationService().compile_record(source, build_flat=True)
    assert sorted(style.value for style in ir_builds) == ["flat", "hierarchical"]

    ir_builds.clear()
    CompilationService().compile_record(
        source, style=GenerationStyle.FLAT, build_flat=True
    )
    assert ir_builds == [GenerationStyle.FLAT]


def test_emitters_and_executables_share_the_ir(ir_builds):
    result = compile_source(benchmark_source("ALARM"), build_flat=True)
    for style in STYLES:
        result.python_source(style)
        result.c_source(style)
        result.c_shared_source(style)
    assert len(ir_builds) == 2
    assert result.executable.ir is result.step_ir(GenerationStyle.HIERARCHICAL)
    assert result.executable_flat.ir is result.step_ir(GenerationStyle.FLAT)


# ---------------------------------------------------------------------------
# Top-down Figure-12 insertion
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, source", CORPUS, ids=CORPUS_IDS)
def test_top_down_insertion_matches_full_forest_scan(name, source, monkeypatch):
    top_down = _artifacts(source)
    monkeypatch.setattr(
        ArborescentResolver, "_deepest_admissible_parent", _full_scan_parent
    )
    assert _artifacts(source) == top_down


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_top_down_search_matches_full_scan_on_random_forests(data):
    """Random forests with child ⊆ parent, ties at equal depth included.

    Children often restrict their parent by TRUE (the same clock), so
    several nodes of one depth include the placed class and the choice of
    the *first* one in pre-order is what is checked.
    """
    manager = BDDManager()
    variables = [manager.declare(f"v{index}") for index in range(3)]
    restrictions = st.sampled_from(
        [manager.true] + variables + [~variable for variable in variables]
    )
    forest = ClockForest()
    nodes = []
    for index in range(data.draw(st.integers(1, 12))):
        parent = data.draw(st.integers(-1, len(nodes) - 1))
        restriction = data.draw(restrictions)
        if parent < 0:
            node = ClockNode(ClockClass(id=index, bdd=restriction))
            forest.add_root(node)
        else:
            bdd = nodes[parent].clock_class.bdd & restriction
            node = ClockNode(ClockClass(id=index, bdd=bdd))
            nodes[parent].add_child(node)
        nodes.append(node)
    # Place either a new class (insertion) or an existing node (fusion).
    if data.draw(st.booleans()):
        placed = data.draw(st.sampled_from(nodes))
    else:
        bdd = manager.conjoin(data.draw(st.lists(restrictions, max_size=3)))
        placed = ClockNode(ClockClass(id=len(nodes), bdd=bdd))
    found = ArborescentResolver._deepest_admissible_parent(None, forest, placed)
    assert found is _full_scan_parent(None, forest, placed)


def test_every_forest_edge_is_an_inclusion():
    """The invariant that makes the top-down descent exact."""
    edges = 0
    for _name, source in CORPUS:
        hierarchy = compile_source(source).hierarchy
        for node in hierarchy.forest.iter_nodes():
            for child in node.children:
                assert child.clock_class.bdd.implies(node.clock_class.bdd)
                edges += 1
    assert edges > 1000


# ---------------------------------------------------------------------------
# Records are unchanged, except the allocated-node count
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, source", CORPUS, ids=CORPUS_IDS)
def test_compile_record_matches_reference_pipeline(name, source, monkeypatch):
    record = CompilationService().compile_record(source, build_flat=True)
    monkeypatch.setattr(
        ArborescentResolver, "_deepest_admissible_parent", _full_scan_parent
    )
    monkeypatch.setattr(_HierarchicalBuilder, "_local_items", _rescanning_local_items)
    reference = CompilationService().compile_record(source, build_flat=True)

    allocated = record["statistics"].pop("bdd_nodes_total")
    reference_allocated = reference["statistics"].pop("bdd_nodes_total")
    assert record == reference
    assert allocated <= reference_allocated


# ---------------------------------------------------------------------------
# Generated steps load on first use, once
# ---------------------------------------------------------------------------


@pytest.fixture()
def step_loads(monkeypatch):
    """The name of every generated step compiled and executed, in order."""
    loads = []
    real = python_backend.load_step_class

    def counting(source, name):
        loads.append(name)
        return real(source, name)

    monkeypatch.setattr(python_backend, "load_step_class", counting)
    return loads


def _run(executable, types, steps=8):
    trace = ReactiveExecutor(executable).run(steps, random_oracle(types, seed=5))
    return [(step.inputs, step.outputs, step.observations) for step in trace]


def test_records_load_no_step(step_loads):
    service = CompilationService()
    service.compile_record(benchmark_source("ALARM"), build_flat=True)
    for source in fleet_sources()[:3]:
        service.compile_modular_record(source, build_flat=True)
    assert step_loads == []


def test_daemon_modular_miss_and_store_hit_load_no_step(step_loads, tmp_path):
    store = CompileStore(tmp_path)
    request = {
        "op": "compile",
        "source": fleet_sources()[0],
        "modular": True,
        "emit": ["python", "c"],
    }
    origins = []
    for daemon in (CompilationDaemon(store=store), CompilationDaemon(store=store)):
        response = daemon.handle_request(dict(request))
        assert response["ok"], response
        origins.append(response["origin"])
    assert origins == ["compiled", "store"]
    assert step_loads == []


def test_first_step_loads_once_and_fresh_copies_share_it(step_loads):
    result = compile_source(benchmark_source("ALARM"))
    executable = result.executable
    assert step_loads == []
    first = _run(executable, result.types)
    assert len(step_loads) == 1
    copies = [executable.fresh() for _ in range(3)]
    assert all(_run(copy, result.types) == first for copy in copies)
    assert len(step_loads) == 1
    assert len({type(copy.step_instance) for copy in copies + [executable]}) == 1
    assert len({id(copy.step_instance) for copy in copies + [executable]}) == 4


def test_fresh_before_any_step_loads_once(step_loads):
    service = CompilationService()
    source = benchmark_source("WATCH")
    first = service.compile(source)
    hit = service.compile(source)
    assert len(step_loads) == 1  # the hit's fresh() copy loaded the cached class
    assert _run(hit.executable, hit.types) == _run(first.executable, first.types)
    assert len(step_loads) == 1


def test_racing_first_uses_load_once_and_share_one_instance(step_loads):
    executable = compile_source(benchmark_source("ALARM")).executable
    threads_count = 8
    barrier = threading.Barrier(threads_count)
    seen = []

    def first_use():
        barrier.wait(timeout=30)
        seen.append(id(executable.step_instance))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=first_use) for _ in range(threads_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == threads_count and len(set(seen)) == 1
    assert len(step_loads) == 1


def test_executable_from_record_still_runs(step_loads):
    source = benchmark_source("CHRONO")
    record = CompilationService().compile_record(source, build_flat=True)
    assert step_loads == []
    reference = compile_source(source, build_flat=True)
    for flat, expected in ((False, reference.executable), (True, reference.executable_flat)):
        executable = executable_from_record(record, flat=flat)
        assert _run(executable, reference.types) == _run(expected, reference.types)
    assert len(step_loads) == 4


# ---------------------------------------------------------------------------
# One precompiled canonical rename, one-pass unit split
# ---------------------------------------------------------------------------


_CANONICAL = st.builds(
    lambda prefix, number: f"{prefix}{number}",
    st.sampled_from("iol"),
    st.sampled_from([0, 1, 2, 3, 10, 12, 123]),
)
_PIECES = st.one_of(
    _CANONICAL,
    _CANONICAL.map(lambda name: f"h_C_{name}"),
    _CANONICAL.map(lambda name: f"z_{name}"),
    _CANONICAL.map(lambda name: f"[~{name}]"),
    _CANONICAL.map(lambda name: f"x{name}"),
    _CANONICAL.map(lambda name: f"{name}x"),
    st.sampled_from([" ", "\n", ",", "_", "^", "(", ")", "0", "h3", "s_", "i", "ii0"]),
)


@settings(max_examples=300, deadline=None)
@given(
    pieces=st.lists(_PIECES, max_size=20),
    mapping=st.dictionaries(
        _CANONICAL, st.sampled_from(["A", "B_1", "i3", "o0", "ZZ", "x"]), max_size=8
    ),
)
def test_rename_text_matches_the_alternation_rename(pieces, mapping):
    text = "".join(pieces)
    assert rename_text(text, mapping) == _alternation_rename_text(text, mapping)


def test_rename_text_keeps_neighbours_and_unmapped_tokens():
    mapping = {"i1": "A", "o3": "B"}
    text = "h_C_i1 z_i12 [~o3] i1 i12 xi1 i1x o4"
    assert rename_text(text, mapping) == "h_C_A z_i12 [~B] A i12 xi1 i1x o4"


@pytest.mark.parametrize("name, source", CORPUS, ids=CORPUS_IDS)
def test_split_units_matches_the_filtering_split(name, source):
    program = normalize(parse_process(source))
    units = split_units(program)
    reference = _filtering_split_units(program)
    assert [unit.fingerprint() for unit in units] == [
        unit.fingerprint() for unit in reference
    ]
    for unit, expected in zip(units, reference):
        assert unit.index == expected.index
        assert unit.program == expected.program
        assert unit.canonical == expected.canonical
        assert unit.to_canonical == expected.to_canonical
        assert unit.from_canonical == expected.from_canonical
        assert [id(p) for p in unit.program.processes] == [
            id(p) for p in expected.program.processes
        ]
