"""Regression tests for the algorithmic costs of a cold compile.

Three changes keep a cold compile cheap without changing what it produces:

* a compile builds one step IR per generation style, shared by the
  executable and the python, C and ``c_shared`` emitters;
* Figure-12 insertion descends from the roots into including subtrees only,
  instead of scanning the whole forest for the deepest including node;
* the nested IR builder files each scheduling constraint under the lowest
  common ancestor of its two endpoints instead of rescanning every
  constraint at every tree node, and inclusion is decided without building
  ``f & ~g``.

The reference implementations below are the straightforward versions of
the last two; swapped in, they must give byte-identical trees, sources and
compile records (up to ``bdd_nodes_total``, which counts the BDD nodes the
manager allocated and so drops when inclusion tests stop allocating) on the
Figure-13 suite, the shared-module fleet and the differential-fuzz corpus.
"""

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
from repro.programs import (
    benchmark_names,
    benchmark_source,
    fleet_sources,
    generate_control_program,
)

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
