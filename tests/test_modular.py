"""Modular compilation: unit fingerprints, artifact sharing, the link stage.

The compositional pipeline rests on four guarantees, each with its own
section below:

* **canonicalization** -- a unit's fingerprint depends only on the unit's
  *shape*: alpha-renaming the program, reordering its modules, or embedding
  the module in a different program must not change it (Hypothesis
  property tests);
* **accounting** -- the unit cache turns module overlap into exactly the
  expected number of compiles: a program sharing ``k`` of its ``n`` units
  with already-compiled programs performs exactly ``n - k`` unit compiles;
* **link determinism** -- linking cached unit artifacts (memory or disk,
  cold or warm) always produces the same whole-program record, and the
  linked executables trace-match the monolithic compile of the same source;
* **resource hygiene** -- a unit that fails to compile mid-link leaves no
  BDD scope behind, and evicting a unit record from the LRU releases its
  scope too.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import CausalityError, CompilationService, compile_source
from repro.lang import normalize, parse_process
from repro.lang.kernel import rename_program
from repro.lang.units import UNIT_FINGERPRINT_VERSION, split_units
from repro.programs import (
    FleetSpec,
    fleet_member_modules,
    generate_fleet,
    library_module_source,
)
from repro.programs.generators import _assemble_program
from repro.runtime import ReactiveExecutor, random_input_schedule
from repro.service import CompileStore

LIBRARY = list(range(6))


def kernel_of(source):
    return normalize(parse_process(source))


def unit_fingerprints(source):
    return [unit.fingerprint() for unit in split_units(kernel_of(source))]


# -- canonicalization --------------------------------------------------------

_BASE_SOURCE = _assemble_program("BASE", LIBRARY)
_BASE_PROGRAM = kernel_of(_BASE_SOURCE)
_BASE_FINGERPRINTS = [unit.fingerprint() for unit in split_units(_BASE_PROGRAM)]
_BASE_NAMES = list(_BASE_PROGRAM.inputs) + list(_BASE_PROGRAM.outputs) + list(
    _BASE_PROGRAM.locals
)


def test_unit_fingerprint_version_is_pinned():
    """Bump :data:`UNIT_FINGERPRINT_VERSION` whenever canonical_form or the
    canonicalization rules change -- stale store records must stop matching."""
    assert UNIT_FINGERPRINT_VERSION == 1


@settings(max_examples=25, deadline=None)
@given(st.permutations(range(len(_BASE_NAMES))), st.integers(0, 9))
def test_alpha_renaming_preserves_unit_fingerprints(perm, salt):
    """Renaming every signal (injectively) changes no unit fingerprint."""
    mapping = {
        name: f"R{salt}_{index}" for name, index in zip(_BASE_NAMES, perm)
    }
    renamed = rename_program(_BASE_PROGRAM, mapping, name="OTHER")
    assert [
        unit.fingerprint() for unit in split_units(renamed)
    ] == _BASE_FINGERPRINTS


@settings(max_examples=25, deadline=None)
@given(st.permutations(LIBRARY))
def test_module_reorder_permutes_unit_fingerprints(perm):
    """Reordering modules permutes the fingerprint list, never rewrites it."""
    shuffled = unit_fingerprints(_assemble_program("SHUF", list(perm)))
    assert shuffled == [_BASE_FINGERPRINTS[module] for module in perm]
    assert sorted(shuffled) == sorted(_BASE_FINGERPRINTS)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, len(LIBRARY) - 1),
    st.integers(0, 30),
    st.integers(0, 30),
)
def test_embedding_invariance(module, position_a, position_b):
    """The same library module embedded anywhere fingerprints identically:
    standalone at any signal position, or inside the six-module program."""
    solo_a = unit_fingerprints(library_module_source(module, position=position_a))
    solo_b = unit_fingerprints(
        library_module_source(module, position=position_b, name="ZOTHER")
    )
    assert solo_a == solo_b == [_BASE_FINGERPRINTS[module]]


def test_library_modules_are_pairwise_distinct():
    """Shape distinctness: no two library modules may collide, otherwise the
    fleet's sharing accounting would silently overcount."""
    assert len(set(_BASE_FINGERPRINTS)) == len(LIBRARY)


# -- accounting --------------------------------------------------------------


def test_second_program_compiles_exactly_the_novel_units():
    """The ISSUE acceptance property: k shared units => n - k unit compiles."""
    spec = FleetSpec(
        name="ACC",
        programs=2,
        library_size=8,
        units_per_program=4,
        shared_units=2,
        seed=3,
    )
    members = fleet_member_modules(spec)
    first, second = generate_fleet(spec)
    shared = len(set(members[0]) & set(members[1]))
    novel = len(set(members[1]) - set(members[0]))
    assert shared == spec.shared_units  # the pool assignment kept them disjoint

    with CompilationService() as service:
        service.compile_modular(first)
        after_first = service.statistics()
        assert after_first["unit_misses"] == spec.units_per_program
        assert after_first["unit_hits"] == 0

        service.compile_modular(second)
        after_second = service.statistics()
        assert after_second["unit_misses"] - after_first["unit_misses"] == novel
        assert after_second["unit_hits"] - after_first["unit_hits"] == shared

        # A warm repeat is a result-cache hit: no unit resolution, no link.
        service.compile_modular(second)
        warm = service.statistics()
        assert warm["unit_misses"] == after_second["unit_misses"]
        assert warm["unit_hits"] == after_second["unit_hits"]
        assert warm["links"] == 2
        assert warm["link_hits"] == 1
        assert warm["link_misses"] == 2
        assert warm["modular_requests"] == 3


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 10**6))
def test_unit_accounting_matches_module_ground_truth(seed):
    """For any fleet seed, per-member compiles == novel modules, hits == rest."""
    spec = FleetSpec(
        name="GT",
        programs=3,
        library_size=6,
        units_per_program=3,
        shared_units=1,
        seed=seed,
    )
    members = fleet_member_modules(spec)
    with CompilationService() as service:
        seen = set()
        for source, modules in zip(generate_fleet(spec), members):
            before = service.statistics()
            service.compile_modular(source)
            after = service.statistics()
            novel = len(set(modules) - seen)
            assert after["unit_misses"] - before["unit_misses"] == novel
            assert after["unit_hits"] - before["unit_hits"] == len(modules) - novel
            seen |= set(modules)


# -- link determinism --------------------------------------------------------

_LINK_SPEC = FleetSpec(
    name="LNK", programs=1, library_size=4, units_per_program=3, shared_units=3, seed=11
)
_LINK_SOURCE = generate_fleet(_LINK_SPEC)[0]


def test_link_determinism_cold_vs_warm(tmp_path):
    """A record linked from freshly compiled units equals one a brand-new
    service links from the store's unit records (byte-for-byte).

    The cold compile spills the three unit records plus the program
    record.  A warm service's live ``compile_modular`` never reads program
    records: it loads every unit from disk, compiles none, and links.  The
    warm record path answers from the program record without linking.
    """
    from repro.codegen.ir import GenerationStyle
    from repro.service import record_from_result

    store = CompileStore(tmp_path)
    with CompilationService(store=store) as cold_service:
        cold = cold_service.compile_modular_record(_LINK_SOURCE, build_flat=True)
        assert cold_service.statistics()["unit_misses"] == 3
    assert len(store) == 4

    with CompilationService(store=store) as warm_service:
        linked = warm_service.compile_modular(_LINK_SOURCE, build_flat=True)
        warm = record_from_result(
            linked, GenerationStyle.HIERARCHICAL, build_flat=True
        )
        stats = warm_service.statistics()
        assert stats["link_store_hits"] == 0
        assert stats["unit_store_hits"] == 3
        assert stats["unit_misses"] == 0
        assert stats["links"] == 1
    assert cold == warm

    with CompilationService(store=store) as stored_service:
        stored = stored_service.compile_modular_record(_LINK_SOURCE, build_flat=True)
        stats = stored_service.statistics()
        assert stats["link_store_hits"] == 1
        assert stats["links"] == 0
    assert stored == cold


def test_link_cache_hits_return_isolated_executables(monkeypatch):
    """A modular hit behaves like a fresh compile: its own step instance,
    never the cached result's (mirrors the monolithic hit).  The shared
    result LRU keeps the two result types apart, and an exact repeat
    parses nothing."""
    from repro.compiler import CompilationResult, LinkedCompilationResult
    from repro.service import service as service_module

    with CompilationService() as service:
        first = service.compile_modular(_LINK_SOURCE)
        assert isinstance(first, LinkedCompilationResult)
        monolithic = service.compile(_LINK_SOURCE)
        assert isinstance(monolithic, CompilationResult)

        parses = []
        real_parse = service_module.parse_process
        monkeypatch.setattr(
            service_module,
            "parse_process",
            lambda source: parses.append(source) or real_parse(source),
        )
        second = service.compile_modular(_LINK_SOURCE)
        assert isinstance(second, LinkedCompilationResult)
        assert isinstance(service.compile(_LINK_SOURCE), CompilationResult)
        assert parses == []
        stats = service.statistics()
        assert stats["link_hits"] == 1
        assert stats["links"] == 1
        assert stats["cache_entries"] == 2
        assert second.executable.step_instance is not first.executable.step_instance
        assert second.executable.source == first.executable.source


def test_clear_cache_drops_linked_results():
    with CompilationService() as service:
        service.compile_modular(_LINK_SOURCE)
        service.compile(_LINK_SOURCE)
        service.clear_cache()
        assert service.statistics()["cache_entries"] == 0
        service.compile_modular(_LINK_SOURCE)
        service.compile(_LINK_SOURCE)
        stats = service.statistics()
        assert stats["link_hits"] == 0
        assert stats["links"] == 2
        assert stats["cache_hits"] == 0


# -- one link path ------------------------------------------------------------
#
# Linked programs are emitted from the linked step IR by the ordinary
# backends.  The digests below were recorded when linked sources were still
# spliced from per-unit emitted bodies, so they prove that emitting from
# the IR moved no byte.

#: The differential fuzzer's fleet (tests/test_differential_fuzz.py).
_DIGEST_FLEET = FleetSpec(
    name="FUZZFLEET", programs=6, library_size=8, units_per_program=4,
    shared_units=2, seed=19950621,
)

#: First 16 hex digits of the sha256 of each linked program's python, C
#: and ``c_shared`` sources, hierarchical style first, then flat.
_LINKED_SOURCE_DIGESTS = {
    "STOPWATCH": (
        "a9cf6875da593879", "cdb5c30d2fa567a9", "e58022eb59a98156",
        "590c3bceee294c75", "1d9beb1113983722", "c6ae775ccbe20c03",
    ),
    "WATCH": (
        "9def1c9f0d327fa4", "a6af2186983fee99", "3bc62d79d4ed0bfb",
        "09cf632d3cf6bf16", "e54139cbbe76cde9", "3a0e1d5bc8fb527c",
    ),
    "ALARM": (
        "849325581fbd2a3f", "94318472b35dbc43", "96d57b073705218c",
        "54e249f308834528", "c9954fdda36f718f", "b4fe770b0d11c272",
    ),
    "CHRONO": (
        "b82a9b0611c1d347", "96e2c39caefe7075", "e2df27699de72947",
        "5344d41948ef20fc", "de77494a4b5ba4db", "7c10419d793f0d25",
    ),
    "SUPERVISOR": (
        "d200b4e2765a8126", "101057aa6177c3ea", "ee7102f413f04465",
        "46fe929ab2640844", "4db86079cc231856", "d424d5af0d023804",
    ),
    "PACE_MAKER": (
        "84c40f3aeeea04fc", "865453984805f3f5", "5c6b5d6d65e32d0b",
        "fc2730ccc6f8c206", "7b56ba3ae25cbc50", "39f872093971c9f0",
    ),
    "ROBOT": (
        "7e53640f510f66cb", "bac607ccdd77c6b9", "f344b37339e358d1",
        "d88f8ac553bdd29c", "7c6ce4b9297389a1", "486b199088b395f9",
    ),
    "FUZZFLEET0": (
        "4b3c6b07440392ba", "663942eeba407979", "5bbb4b254e6b137b",
        "8ed6bd60e6b1efa2", "36047d78fb7ca4be", "1d8f981541973ff7",
    ),
    "FUZZFLEET1": (
        "e93ec037a5eec456", "4361a0a06fb46fc4", "16da3bab0b77a760",
        "5891076336c34714", "e050f030c5b66fb0", "372e2984bede86cc",
    ),
    "FUZZFLEET2": (
        "2645a5fca385f28f", "78287d5267b29c86", "b7b501fe0164aab1",
        "2b23bb2a9a61e0cf", "a1a3266ebb260d66", "009c5917003ca731",
    ),
    "FUZZFLEET3": (
        "532956bace777b76", "10cb03b5f0b65f6e", "67223730c2fdb3f2",
        "0f893abaa062d331", "60d0f4a0cd508463", "02db95a5e8fab46d",
    ),
    "FUZZFLEET4": (
        "f9cb52553992c9ec", "19a705989ed9b75e", "f4a60200f6a10af7",
        "c36986339e34bb67", "2ab5ea9ddf1a4d3f", "b1f5a06084f643b7",
    ),
    "FUZZFLEET5": (
        "52f784db84c23a13", "a75f85e288f578ab", "5ae187fe016b8da5",
        "5c69eb9bbccfeb05", "2b9f167bbd44c189", "dbc24c03d4e5ed1b",
    ),
}


def _linked_source_digests(linked):
    import hashlib

    from repro.codegen.ir import GenerationStyle

    digests = []
    for style in (GenerationStyle.HIERARCHICAL, GenerationStyle.FLAT):
        for text in (
            linked.python_source(style),
            linked.c_source(style),
            linked.c_shared_source(style),
        ):
            digests.append(hashlib.sha256(text.encode()).hexdigest()[:16])
    return tuple(digests)


def test_linked_sources_match_pinned_digests():
    """The Figure-13 programs and the fuzz fleet, linked through
    ``compile_modular``, emit the pinned bytes in every backend and style,
    and the live executable runs exactly the linked python source."""
    from repro.codegen.ir import GenerationStyle
    from repro.programs import benchmark_names, benchmark_source

    sources = [benchmark_source(name) for name in benchmark_names()]
    sources += generate_fleet(_DIGEST_FLEET)
    digests = {}
    with CompilationService() as service:
        for source in sources:
            linked = service.compile_modular(source, build_flat=True)
            digests[linked.name] = _linked_source_digests(linked)
            assert linked.executable.source == linked.python_source(
                GenerationStyle.HIERARCHICAL
            )
    assert digests == _LINKED_SOURCE_DIGESTS


@pytest.fixture
def link_calls(monkeypatch):
    """Counts linked IRs by style and C emissions on the modular path."""
    from repro import compiler

    calls = {"link": [], "c": 0, "c_shared": 0}
    real_link = compiler.link_step_ir
    real_c = compiler.generate_c_source
    real_c_shared = compiler.generate_c_shared_source

    def link(name, style, *args):
        calls["link"].append(style)
        return real_link(name, style, *args)

    def c(ir):
        calls["c"] += 1
        return real_c(ir)

    def c_shared(ir):
        calls["c_shared"] += 1
        return real_c_shared(ir)

    monkeypatch.setattr(compiler, "link_step_ir", link)
    monkeypatch.setattr(compiler, "generate_c_source", c)
    monkeypatch.setattr(compiler, "generate_c_shared_source", c_shared)
    return calls


def _holds_step_ir(linked):
    from repro.codegen.ir import StepIR

    values = list(vars(linked).values())
    values += [v for value in values if isinstance(value, dict) for v in value.values()]
    values += [linked.executable.ir, linked.executable_flat.ir]
    return any(isinstance(value, StepIR) for value in values)


def test_live_modular_compile_emits_python_only(link_calls):
    """A live ``compile_modular`` links each style once and emits only its
    python step, cold and on a unit-warm novel program, and the cached
    result keeps no linked IR."""
    from repro.codegen.ir import GenerationStyle

    reordered = _assemble_program("REORDERED", list(reversed(LIBRARY)))
    with CompilationService() as service:
        for source in (_BASE_SOURCE, reordered):
            misses = service.statistics()["unit_misses"]
            linked = service.compile_modular(source, build_flat=True)
            if source is reordered:
                assert service.statistics()["unit_misses"] == misses
            assert (link_calls["c"], link_calls["c_shared"]) == (0, 0)
            assert link_calls["link"] == [
                GenerationStyle.HIERARCHICAL, GenerationStyle.FLAT
            ]
            assert linked.executable.ir is None
            assert linked.executable_flat.ir is None
            assert not _holds_step_ir(linked)
            assert set(linked._linked_sources) == {
                ("python", "hierarchical"), ("python", "flat")
            }
            link_calls["link"].clear()


@pytest.mark.parametrize("observable", [True, False])
def test_modular_record_miss_links_at_most_twice_per_style(link_calls, observable):
    """A modular record miss links each style for the live executables and
    at most once more, for every source the record renders."""
    from repro.codegen.ir import GenerationStyle

    with CompilationService() as service:
        record, origin = service.record_for(
            _LINK_SOURCE, build_flat=True, observable=observable, modular=True
        )
    assert origin == "compiled"
    assert record["artifacts"]["c"] and record["artifacts"]["c_shared"]
    assert (link_calls["c"], link_calls["c_shared"]) == (1, 1)
    for style in GenerationStyle:
        assert link_calls["link"].count(style) <= 2


def test_batch_fan_out_matches_serial_modular():
    """``compile_batch_records(modular=True, jobs>1)`` resolves units on
    worker processes but must compose exactly what serial modular compiles
    produce."""
    from repro.service import record_from_result
    from repro.codegen.ir import GenerationStyle

    spec = FleetSpec(
        name="BATCH", programs=4, library_size=6, units_per_program=3,
        shared_units=2, seed=23,
    )
    sources = generate_fleet(spec)
    with CompilationService() as serial_service:
        expected = [
            record_from_result(
                serial_service.compile_modular(source, build_flat=True),
                GenerationStyle.HIERARCHICAL,
                build_flat=True,
            )
            for source in sources
        ]
    with CompilationService() as batch_service:
        batched = batch_service.compile_batch_records(
            sources, jobs=3, build_flat=True, modular=True
        )
        stats = batch_service.statistics()

    # ``bdd_nodes_total`` is the pool-wide table size at unit-compile
    # time, so it depends on which units a worker's pool already holds --
    # the one statistic the fan-out legitimately may not reproduce.
    def order_free(record):
        record = dict(record)
        record["statistics"] = {
            key: value
            for key, value in record["statistics"].items()
            if key != "bdd_nodes_total"
        }
        return record

    assert [order_free(record) for record in batched] == [
        order_free(record) for record in expected
    ]
    # The workers resolved every distinct unit; the parent compiled none.
    members = fleet_member_modules(spec)
    distinct = len({module for modules in members for module in modules})
    assert stats["unit_cache_entries"] == distinct
    assert stats["unit_misses"] == 0


def test_modular_record_is_whole_program_keyed():
    with CompilationService() as service:
        record = service.compile_modular_record(_LINK_SOURCE)
    assert record["kind"] == "program"
    assert record["fingerprint"] == kernel_of(_LINK_SOURCE).fingerprint()


def test_linked_clock_system_has_one_program_header():
    """The linked clock-system text heads its equations like a monolithic
    one: one ``clock system of NAME (k equations)`` line with the program
    name and the summed count, not one canonical ``U`` header per unit."""
    from repro.programs import benchmark_names, benchmark_source

    member = generate_fleet(
        FleetSpec(name="FLA", programs=1, library_size=10, units_per_program=6,
                  shared_units=2, seed=3)
    )[0]
    sources = [benchmark_source(name) for name in benchmark_names()] + [member]
    with CompilationService() as service:
        assert len(service.compile_modular(member).units) == 6
        for source in sources:
            monolithic = service.compile_record(source)["artifacts"]["clocks"]
            linked = service.compile_modular_record(source)["artifacts"]["clocks"]
            mono_lines = monolithic.splitlines()
            linked_lines = linked.splitlines()
            assert linked_lines[0] == mono_lines[0]
            assert sorted(linked_lines[1:]) == sorted(mono_lines[1:])
            assert "clock system of U " not in linked


def test_linked_executables_trace_match_monolithic():
    """Both styles of the linked result replay the monolithic trace exactly.

    Fleet members have several free root clocks whose linked default differs
    from a single-root program's, so the run is schedule-driven: presence is
    drawn per root key, and the keys themselves must agree across pipelines.
    """
    monolithic = compile_source(_LINK_SOURCE, build_flat=True)
    with CompilationService() as service:
        linked = service.compile_modular(_LINK_SOURCE, build_flat=True)

    mono_step = monolithic.executable.fresh()
    linked_step = linked.executable.fresh()
    assert [flag[1] for flag in linked_step.root_flags] == [
        flag[1] for flag in mono_step.root_flags
    ]
    schedule = random_input_schedule(
        monolithic.types,
        mono_step.inputs,
        mono_step.root_flags,
        steps=24,
        seed=random.Random(20260808),
    )
    mono_trace = ReactiveExecutor(mono_step).run(24, inputs_per_step=schedule)
    linked_trace = ReactiveExecutor(linked_step).run(24, inputs_per_step=schedule)
    assert [step.outputs for step in linked_trace] == [
        step.outputs for step in mono_trace
    ]

    flat_trace = ReactiveExecutor(linked.executable_flat.fresh()).run(
        24, inputs_per_step=schedule
    )
    assert [step.outputs for step in flat_trace] == [
        step.outputs for step in mono_trace
    ]


# -- resource hygiene --------------------------------------------------------

_GOOD_THEN_BROKEN = (
    "process BROKEN = ( ? integer A, T; ! integer Y, X; )"
    " (| Y := A + 1 | X := X + 1 | synchro { X, T } |) end;"
)


def _unit_scope_namespaces(service):
    return sorted(
        namespace
        for namespace in service._scopes
        if namespace.startswith("unit:")
    )


def test_mid_link_failure_releases_the_failing_units_scope():
    """Unit 1 (``Y := A + 1``) compiles and stays cached; unit 2 has an
    instantaneous cycle and dies in causality analysis.  The dead unit's
    BDD scope must be released, the good unit's kept (its record is live)."""
    with CompilationService() as service:
        with pytest.raises(CausalityError):
            service.compile_modular(_GOOD_THEN_BROKEN)
        stats = service.statistics()
        assert stats["unit_misses"] == 1  # only the good unit landed a record
        assert stats["unit_cache_entries"] == 1
        assert stats["links"] == 0

        good_unit = split_units(kernel_of(_GOOD_THEN_BROKEN))[0]
        assert _unit_scope_namespaces(service) == ["unit:" + good_unit.fingerprint()]

        # The failure poisoned nothing: an honest program still compiles,
        # and the good unit's cached record is reused for it.
        healthy = (
            "process OK = ( ? integer B; ! integer Z; ) (| Z := B + 1 |) end;"
        )
        service.compile_modular(healthy)
        assert service.statistics()["unit_hits"] == 1


def test_unit_eviction_releases_its_scope():
    """With a 2-entry unit LRU, linking a 3-unit program evicts the first
    unit's record mid-compile -- and its scope with it."""
    spec = FleetSpec(
        name="EVC", programs=1, library_size=3, units_per_program=3,
        shared_units=3, seed=5,
    )
    source = generate_fleet(spec)[0]
    with CompilationService(max_unit_entries=2) as service:
        linked = service.compile_modular(source)
        assert linked.statistics()["units"] == 3  # the link itself succeeded
        stats = service.statistics()
        assert stats["unit_cache_max_entries"] == 2
        assert stats["unit_cache_entries"] == 2
        assert len(_unit_scope_namespaces(service)) == 2

        cached = {
            "unit:" + unit.fingerprint()
            for unit in split_units(kernel_of(source))[1:]
        }
        assert set(_unit_scope_namespaces(service)) == cached
