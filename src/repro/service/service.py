"""The compilation service: pooled BDD manager + compile cache + batching.

A :class:`CompilationService` is the long-lived, repeated-traffic front end
of the compiler:

* it owns one pooled :class:`~repro.bdd.BDDManager` whose unique table and
  ``ite`` computed cache persist across compilations; every program gets a
  namespaced *scope* of it (see :class:`~repro.bdd.ScopedBDDManager`), so
  unrelated programs never share clock variables while recompilations of
  the same program reuse its variables, value encodings and cached ``ite``
  results;
* it memoizes whole :class:`~repro.compiler.CompilationResult` objects in a
  bounded LRU keyed by the **normalized kernel program fingerprint** (plus
  the code-generation options), with a source-text fast path for exact
  repeats -- kernel-equivalent sources (e.g. reformatted text) share one
  entry;
* :meth:`CompilationService.compile_modular` compiles unit by unit against
  a second LRU of per-unit artifact records, links, and caches the linked
  result in the *same* program-keyed LRU (the key's ``modular`` field keeps
  the two result types apart), so modular and monolithic requests share
  one hit/miss pipeline and one source-digest memo;
* :meth:`CompilationService.compile_batch` compiles many sources serially
  on the pool, and :meth:`CompilationService.compile_batch_records` fans
  them out to worker **processes** that return JSON artifact records and
  sidestep the GIL.

Cache hits return a copy of the cached ``CompilationResult`` carrying fresh
executable instances (new instances of the cached step class), so a hit
behaves exactly like a fresh compilation and callers' simulation states are
fully isolated; the analysis artifacts (hierarchy, schedule, sources) are
shared.

The record path
---------------

:meth:`CompilationService.record_for` is the one whole-program path for
JSON artifact records (the daemon, ``compile_record``,
``compile_modular_record``, process workers and the store ops all use it).
An LRU entry holds what has been built for its key: the live result of a
compile miss and its record, rendered once on first use; or a record alone
(a store hit, a worker's record, a ``store-put``), which a later live
:meth:`~CompilationService.compile` fills in.  A record request is answered
from **memory** (the key's entry, or the same program's entry of the other
kind -- monolithic and modular records are equivalent), then the disk
**store** (promoted into memory), then a **compile** that is spilled back
to the store best-effort.

Compilation holds the GIL, so in-process compiles gain nothing from running
concurrently: one compile lock serializes every genuine compilation on the
pool (cache hits never take it), and only worker processes compile in
parallel.

Scope lifetime
--------------

A *scope* (:class:`~repro.bdd.ScopedBDDManager`) is the bridge between one
program and the pool: it namespaces the program's BDD variables and
carries the program's value-encoding memo.  The service registers scopes
lazily in ``_scope_for`` under the program's namespace and guarantees the
invariant that **a scope outlives every cached result that was compiled
through it, and nothing else**:

* a scope is created on the first (miss) compilation of its program and
  reused by every later recompilation;
* a scope is released when the last *monolithic* LRU entry for its
  fingerprint (any style/option combination) is evicted, when the
  compilation that would have populated the entry raises (including
  ``BaseException`` such as a ``KeyboardInterrupt`` -- nothing would ever
  evict the entry otherwise), or when the pooled manager is recycled (see
  below);
* linked (modular) entries never hold a program scope: their units
  compile in ``unit:`` scopes, each released with its unit-LRU record;
* releasing a scope drops it from the registry and clears its
  value-encoding memo.  The variables and nodes the program interned in the
  manager's unique table are *not* reclaimed -- that is what manager
  recycling is for.

Scopes are only created under the compile lock, on the then-current
manager, so every registered scope lives on the current pooled manager.

Pool hygiene
------------

The pooled manager's unique table and variable registry are append-only,
so under varied long-lived traffic (the daemon) they grow without bound.
The service accepts a ``max_pool_nodes`` watermark: after a compilation,
if the manager's node count exceeds the watermark it is *recycled* --
replaced by a fresh empty one, with every registered scope released.
Cached results that reference the old manager stay valid (their BDD
handles keep the old manager object alive), but BDDs of results compiled
before and after a recycle must not be combined.
``statistics()["pool_recycles"]`` counts the recycles.

Process workers
---------------

``compile_batch_records(sources, jobs=N)`` with ``N > 1`` fans the batch
out to a persistent :class:`~concurrent.futures.ProcessPoolExecutor`.  A
live :class:`~repro.compiler.CompilationResult` cannot cross a process
boundary (its hierarchy, graph and schedule hold BDD handles bound to the
worker's manager), so process workers return the JSON-safe **artifact
records** of :func:`repro.service.store.record_from_result` -- rendered
sources, the clock tree, statistics, and enough metadata to rebuild a
runnable step via :func:`repro.service.store.executable_from_record`.  Each
worker process keeps its own small ``CompilationService`` on the parent's
disk store and answers through its record path, so repeats within one
worker are warm and every worker shares the store; the pool is created
lazily, reused across batches, grown when a larger ``jobs`` arrives, and
torn down by :meth:`close` (closing is safe -- the next process-mode call
simply builds a fresh pool).
"""

from __future__ import annotations

import contextlib
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..bdd import BDDManager, ScopedBDDManager
from ..codegen.ir import GenerationStyle
from ..compiler import (
    CompilationResult,
    LinkedCompilationResult,
    compile_process,
    compile_unit_record,
    link_units,
)
from ..lang.ast import Process
from ..lang.kernel import KernelProgram, normalize
from ..lang.parser import parse_process
from ..lang.units import split_units
from .cache import LRUCache, source_digest
from .store import (
    UNIT_STYLE,
    CompileStore,
    StoreKey,
    key_from_record,
    record_from_result,
    store_key,
    unit_store_key,
)

__all__ = ["CompilationService"]

#: cache key: (kernel fingerprint, style, build_flat, observable, modular)
_CacheKey = Tuple[str, GenerationStyle, bool, bool, bool]

#: what a record lookup answers: ``(record, origin)``, or ``(None, None)``
_Held = Tuple[Optional[Dict[str, object]], Optional[str]]


class _Entry:
    """One whole-program LRU entry: a live result, its record, or both."""

    __slots__ = ("result", "record")

    def __init__(self) -> None:
        self.result: Optional[Union[CompilationResult, LinkedCompilationResult]] = None
        self.record: Optional[Dict[str, object]] = None


#: scope-namespace prefix for per-unit compilations; unit fingerprints are
#: hex digests, so the prefix keeps them disjoint from whole-program
#: fingerprint namespaces on the pooled manager
_UNIT_SCOPE_PREFIX = "unit:"


# -- process-pool worker side -------------------------------------------------
#: per-worker-process compilation services, one per parent store directory
#: (``None`` for a parent without a store); warm caches within one worker
_WORKER_SERVICES: Dict[Optional[str], "CompilationService"] = {}


def _worker_service(store_path: Optional[str]) -> "CompilationService":
    service = _WORKER_SERVICES.get(store_path)
    if service is None:
        service = _WORKER_SERVICES[store_path] = CompilationService(
            max_entries=64, store=store_path
        )
    return service


def _process_worker_record(
    payload: Tuple[str, str, bool, bool, Optional[str], bool]
) -> Dict[str, object]:
    """Produce one source's artifact record in a worker process.

    Runs in the pool's child processes, on the record path of a private
    service that keeps its caches between tasks and shares the parent's
    disk store: a record any daemon or node spilled earlier is a warm
    start here, and a genuine compile is spilled back so it warms every
    process and node sharing the directory.  The record that crosses back
    to the parent is plain JSON (see the module docstring).  Toolchain
    errors propagate to the parent as the original ``SignalError``
    subclass.
    """
    source, style_value, build_flat, observable, store_path, modular = payload
    record, _ = _worker_service(store_path).record_for(
        source, GenerationStyle(style_value), build_flat, observable, modular=modular
    )
    return record


def _process_worker_unit_record(
    payload: Tuple[str, str, Optional[str]]
) -> Dict[str, object]:
    """Resolve one *unit* in a worker process; return its artifact record.

    The parallel-link fan-out unit: the parent splits a modular batch into
    distinct units and ships each one here as ``(source containing it, unit
    fingerprint, store path)``.  The worker re-splits the source (cheap and
    BDD-free), locates the unit by fingerprint, and resolves it through its
    private unit LRU and the shared disk store -- so two workers racing on
    one unit at worst duplicate a compile, never diverge (unit compilation
    is deterministic).
    """
    source, unit_fingerprint, store_path = payload
    program = normalize(parse_process(source))
    for unit in split_units(program):
        if unit.fingerprint() == unit_fingerprint:
            return _worker_service(store_path)._unit_record_for(unit)
    raise ValueError(
        f"batch bookkeeping error: source contains no unit {unit_fingerprint}"
    )


class CompilationService:
    """A stateful compiler front end that pools BDDs and caches results.

    Parameters
    ----------
    max_entries:
        Capacity of the LRU compile cache (whole compilation results,
        monolithic and linked alike).
    manager:
        Optionally, an existing shared manager to pool on (a fresh one is
        created by default).
    max_pool_nodes:
        Node-count watermark for pool hygiene: when a compilation leaves
        the pooled manager with more than this many nodes, the manager is
        recycled and its scopes are released.  ``None`` (the default)
        disables recycling.
    store:
        Optionally, a disk :class:`~repro.service.store.CompileStore` (or
        its directory path) under the whole-program record path and the
        unit cache: record requests and unit resolution probe it before
        compiling and spill genuine compiles back, and process workers
        share it, so every service, daemon and node on the directory warms
        every other.  Live :meth:`compile` results cannot come from a
        record, so the live paths never read whole-program records from it.

    The service is thread-safe: cache hits proceed concurrently, genuine
    compilations serialize on the pool's compile lock.
    """

    def __init__(
        self,
        max_entries: int = 128,
        manager: Optional[BDDManager] = None,
        max_pool_nodes: Optional[int] = None,
        store: Optional[Union[CompileStore, str, os.PathLike]] = None,
        max_unit_entries: Optional[int] = None,
    ):
        self._manager = manager if manager is not None else BDDManager()
        # Serializes compilations on the pooled manager and guards its
        # replacement during recycling: compiling code reads ``_manager``
        # only under this lock, so a recycle cannot swap it mid-pipeline.
        self._compile_lock = threading.RLock()
        self._pool_recycles = 0
        self.max_pool_nodes = max_pool_nodes
        if store is not None and not isinstance(store, CompileStore):
            store = CompileStore(store)
        #: disk store under the record path and the unit cache (may be None)
        self.store: Optional[CompileStore] = store
        self._store_path = str(store.path) if store is not None else None
        self._store_put_failures = 0
        # The one whole-program memory tier: results and records, monolithic
        # and linked, keyed by ``_key``.
        self._results: LRUCache[_Entry] = LRUCache(
            max_entries, on_evict=self._on_result_evicted
        )
        # Per-unit artifact records (modular compilation), keyed by unit
        # fingerprint.  Units are small next to whole results, and one
        # program holds several, so the default capacity is a multiple of
        # the result cache's.
        if max_unit_entries is None:
            max_unit_entries = max(max_entries * 4, 16)
        self._unit_records: LRUCache[Dict[str, object]] = LRUCache(
            max_unit_entries, on_evict=self._on_unit_evicted
        )
        # Source-text digest -> kernel fingerprint (exact-repeat fast path).
        self._source_fingerprints: LRUCache[str] = LRUCache(max(max_entries * 4, 16))
        # namespace (program fingerprint, or unit prefix + unit fingerprint)
        # -> scope on the current pooled manager
        self._scopes: Dict[str, ScopedBDDManager] = {}
        self._lock = threading.RLock()
        self._process_pool: Optional[ProcessPoolExecutor] = None
        self._process_jobs = 0
        self._process_borrows = 0
        self._requests = 0
        self._process_records = 0
        # Modular (unit-granularity) counters.
        self._modular_requests = 0
        self._unit_hits = 0
        self._unit_misses = 0
        self._unit_store_hits = 0
        self._links = 0
        self._link_hits = 0
        self._link_misses = 0
        self._link_store_hits = 0

    @property
    def manager(self) -> BDDManager:
        """The pooled manager (replaced by a fresh one when recycled)."""
        return self._manager

    # -- cache plumbing -----------------------------------------------------
    @staticmethod
    def _key(
        fingerprint: str,
        style: GenerationStyle,
        build_flat: bool,
        observable: bool,
        modular: bool,
    ) -> _CacheKey:
        return (fingerprint, style, build_flat, observable, modular)

    def _scope_for(self, namespace: str) -> ScopedBDDManager:
        """The persistent scope of one program (or unit) on the pool.

        Must be called under the compile lock.  Scopes are cached per
        namespace so a recompilation finds its variables and value
        encodings again.  The full fingerprint is the namespace: distinct
        kernels can never share a scope.
        """
        with self._lock:
            scope = self._scopes.get(namespace)
            if scope is None:
                scope = self._scopes[namespace] = self._manager.scoped(namespace)
            return scope

    def _clear_scopes(self) -> None:
        with self._lock:
            for scope in self._scopes.values():
                scope.encoding_cache.clear()
            self._scopes.clear()

    def _drop_scopes(self, namespace: str) -> None:
        with self._lock:
            scope = self._scopes.pop(namespace, None)
        if scope is not None:
            scope.encoding_cache.clear()

    def _release_orphan_scopes(self, fingerprint: str) -> None:
        """Drop a program's scope when no monolithic result references it.

        The scope and its encoding cache hold BDD handles; releasing them
        keeps the service's bookkeeping bounded by the LRU under varied
        traffic.  (Nodes already interned in the manager's unique table are
        not reclaimed -- recycling the table is what the watermark is for.)
        Linked entries never hold the program scope: their BDDs live in
        per-unit scopes, which follow the unit LRU; nor do record-only
        entries.
        """
        for key in self._results.keys():
            if key[0] == fingerprint and not key[4]:
                entry = self._results.peek(key)
                if entry is not None and entry.result is not None:
                    return  # another style/options entry still uses this program
        self._drop_scopes(fingerprint)

    def _on_result_evicted(self, key, value) -> None:
        if not key[4]:
            self._release_orphan_scopes(key[0])

    def _release_unit_scopes(self, fingerprint: str) -> None:
        """Drop a unit's compile scope when its record is no longer cached.

        Mirrors :meth:`_release_orphan_scopes` at unit granularity: a unit
        whose artifact record lives in the unit LRU keeps its scope (a
        recompile after watermark recycling finds its variables again);
        once the record is gone -- evicted, or never stored because the
        unit failed to compile mid-link -- the scope must go too.
        """
        if self._unit_records.peek(fingerprint) is not None:
            return
        self._drop_scopes(_UNIT_SCOPE_PREFIX + fingerprint)

    def _on_unit_evicted(self, fingerprint, record) -> None:
        self._release_unit_scopes(fingerprint)

    def _compile_program(
        self,
        process: Process,
        program: KernelProgram,
        fingerprint: str,
        style: GenerationStyle,
        build_flat: bool,
        observable: bool,
    ) -> CompilationResult:
        return compile_process(
            process,
            style=style,
            build_flat=build_flat,
            observable=observable,
            manager=self._scope_for(fingerprint),
            program=program,
        )

    def _count_request(self, modular: bool) -> None:
        with self._lock:
            self._requests += 1
            if modular:
                self._modular_requests += 1

    def _fingerprint(
        self,
        source: Optional[str],
        process: Optional[Process],
        program: Optional[KernelProgram],
    ) -> Tuple[str, Optional[Process], Optional[KernelProgram]]:
        """A request's kernel fingerprint, plus what it took to compute it.

        An exact textual repeat is answered by the source-digest memo
        without parsing; otherwise the parsed ``process``/``program`` are
        handed back so a miss does not redo the work.
        """
        digest = source_digest(source) if source is not None else None
        fingerprint = (
            self._source_fingerprints.get(digest) if digest is not None else None
        )
        if fingerprint is None:
            if process is None:
                process = parse_process(source)
            if program is None:
                program = normalize(process)
            fingerprint = program.fingerprint()
            if digest is not None:
                self._source_fingerprints.put(digest, fingerprint)
        return fingerprint, process, program

    def fingerprint(self, source: str) -> str:
        """The kernel fingerprint of source text (parses on a memo miss only)."""
        return self._fingerprint(source, None, None)[0]

    def _fill(self, key: _CacheKey, **slots) -> None:
        """Put ``result=`` and/or ``record=`` into ``key``'s entry."""
        with self._lock:  # two fills of one new key must not drop a slot
            entry = self._results.peek(key) or _Entry()
            for name, value in slots.items():
                setattr(entry, name, value)
            self._results.put(key, entry)

    def _build(
        self,
        key: _CacheKey,
        source: Optional[str],
        process: Optional[Process],
        program: Optional[KernelProgram],
    ) -> Union[CompilationResult, LinkedCompilationResult]:
        """The in-process miss: link (``modular`` key) or compile, then fill."""
        if process is None:
            process = parse_process(source)
        if program is None:
            program = normalize(process)
        fingerprint, style, build_flat, observable, modular = key
        if modular:
            result = self._link(process, program, style, build_flat, observable)
        else:
            try:
                with self._compile_lock:
                    result = self._compile_program(
                        process, program, fingerprint, style, build_flat, observable
                    )
            except BaseException:
                # A failed compilation stores no result, so nothing would
                # ever evict the scope registered above -- release it now.
                # This must cover BaseException, not just Exception: a
                # compile interrupted by e.g. KeyboardInterrupt would
                # otherwise leak its scope in a long-lived daemon.
                self._release_orphan_scopes(fingerprint)
                raise
        self._fill(key, result=result)
        self._maybe_recycle()
        return result

    def _compile_cached(
        self,
        source: Optional[str],
        process: Optional[Process],
        style: GenerationStyle,
        build_flat: bool,
        observable: bool,
        program: Optional[KernelProgram] = None,
        modular: bool = False,
    ) -> Union[CompilationResult, LinkedCompilationResult]:
        """The live hit/miss pipeline behind every compile entry point.

        ``modular`` selects the miss path and the key's last field, so one
        program's monolithic and linked results are cached side by side.
        Hits never take the compile lock, so fully-warm traffic never waits
        behind a compilation; an entry holding only a record is compiled
        and filled in.
        """
        self._count_request(modular)
        fingerprint, process, program = self._fingerprint(source, process, program)
        key = self._key(fingerprint, style, build_flat, observable, modular)
        entry = self._results.get(key)
        if entry is not None and entry.result is not None:
            return self._fresh_hit(entry.result, modular)
        return self._build(key, source, process, program)

    def _fresh_hit(self, result, modular: bool):
        """Restore fresh-compile semantics on a cache hit.

        The cached executables carry mutable delay-register state, so the
        hit returns a copy of the result with brand-new step instances
        (of the step class the cached result loads once -- a tiny cost next
        to the pipeline): every caller gets isolated simulation state, and a hit
        can never perturb an earlier caller's in-progress run.  The analysis
        artifacts (hierarchy, schedule, IR, sources) are shared.  A modular
        hit counts as ``link_hits``.
        """
        if modular:
            with self._lock:
                self._link_hits += 1
        executable = result.executable.fresh()
        executable_flat = (
            result.executable_flat.fresh() if result.executable_flat is not None else None
        )
        return replace(result, executable=executable, executable_flat=executable_flat)

    # -- public API ---------------------------------------------------------
    def compile(
        self,
        source: str,
        style: GenerationStyle = GenerationStyle.HIERARCHICAL,
        build_flat: bool = False,
        observable: bool = True,
    ) -> CompilationResult:
        """Compile SIGNAL source text, reusing pooled BDDs and cached results.

        Cache misses compile on the pooled manager.  Do not combine the
        clock BDDs of two results unless both live on one manager (check
        ``result.hierarchy.manager``): a recycle between their compilations
        puts them on different managers.
        """
        return self._compile_cached(source, None, style, build_flat, observable)

    def compile_process(
        self,
        process: Process,
        style: GenerationStyle = GenerationStyle.HIERARCHICAL,
        build_flat: bool = False,
        observable: bool = True,
        program: Optional[KernelProgram] = None,
    ) -> CompilationResult:
        """Like :meth:`compile` for an already-parsed process.

        ``program`` optionally supplies the already-normalized kernel form
        of ``process`` (callers like the distributed runtime already hold
        it; passing it through avoids normalizing twice).
        """
        return self._compile_cached(
            None, process, style, build_flat, observable, program=program
        )

    def compile_record(
        self,
        source: str,
        style: GenerationStyle = GenerationStyle.HIERARCHICAL,
        build_flat: bool = False,
        observable: bool = True,
    ) -> Dict[str, object]:
        """The JSON-safe artifact record of a source, through :meth:`record_for`.

        The inline counterpart of :meth:`compile_record_in_process`: same
        output shape, produced on the caller's thread.
        """
        return self.record_for(source, style, build_flat, observable)[0]

    # -- the whole-program record path ---------------------------------------
    def record_for(
        self,
        source: str,
        style: GenerationStyle = GenerationStyle.HIERARCHICAL,
        build_flat: bool = False,
        observable: bool = True,
        modular: bool = False,
        jobs: int = 0,
    ) -> Tuple[Dict[str, object], str]:
        """``(record, origin)`` for one source; origin ``"memory"``,
        ``"store"`` or ``"compiled"`` (see "The record path" above).

        ``modular`` changes only how a miss compiles.  ``jobs > 0`` ships a
        miss to a worker process, whose own record path probes and spills
        the store.  Thread-safe: threads racing on one key may both compile
        -- wasteful but harmless, as compilation is deterministic and every
        tier is last-writer-wins.
        """
        self._count_request(modular)
        fingerprint, process, program = self._fingerprint(source, None, None)
        key = self._key(fingerprint, style, build_flat, observable, modular)
        record, origin = self._held_record(key, self._results.get(key))
        if record is None:
            origin = "compiled"
            if jobs > 0:
                record = self.compile_record_in_process(
                    source, style, build_flat, observable, jobs, modular
                )
                self._fill(key, record=record)
            else:
                result = self._build(key, source, process, program)
                record = record_from_result(
                    result, style, build_flat=build_flat, observable=observable
                )
                self._fill(key, record=record)
                self._spill(store_key(*key[:4]), record)
        elif modular:
            with self._lock:
                if origin == "memory":
                    self._link_hits += 1
                else:
                    self._link_store_hits += 1
        return record, origin

    def _held_record(self, key: _CacheKey, entry: Optional[_Entry]) -> _Held:
        """The record memory (``entry``, else the other kind's) or the store
        holds for ``key``.  A memory hit touches the store entry, so a hot
        record never looks cold to :meth:`CompileStore.prune`."""
        if entry is None:
            entry = self._results.peek(key[:4] + (not key[4],))
        disk_key = store_key(*key[:4])
        if entry is not None:
            if entry.record is None:
                entry.record = record_from_result(
                    entry.result, key[1], build_flat=key[2], observable=key[3]
                )
            if self.store is not None:
                self.store.touch(disk_key)
            return entry.record, "memory"
        if self.store is not None:
            record = self.store.get(disk_key)
            if record is not None:
                self._fill(key, record=record)
                return record, "store"
        return None, None

    def _held_unit_record(self, fingerprint: str) -> _Held:
        """The record the unit LRU or the store holds for one unit."""
        record = self._unit_records.get(fingerprint)
        if record is not None:
            return record, "memory"
        if self.store is not None:
            record = self.store.get(unit_store_key(fingerprint))
            if record is not None:
                self._unit_records.put(fingerprint, record)
                return record, "store"
        return None, None

    def _spill(self, key: StoreKey, record: Dict[str, object]) -> bool:
        """Best-effort write (a full disk must not fail a good compile)."""
        if self.store is None:
            return False
        try:
            self.store.put(key, record)
        except OSError:
            with self._lock:
                self._store_put_failures += 1
            return False
        return True

    @staticmethod
    def _program_key(key: StoreKey) -> _CacheKey:
        """The (monolithic) LRU key of a program record's store key."""
        fingerprint, style, build_flat, observable = key
        return (fingerprint, GenerationStyle(style), build_flat, observable, False)

    def stored_record(self, key: StoreKey) -> _Held:
        """The record a store key names, from memory or disk, never compiled:
        unit keys read the unit LRU, program keys the whole-program LRU."""
        if key[1] == UNIT_STYLE:
            return self._held_unit_record(key[0])
        lru_key = self._program_key(key)
        return self._held_record(lru_key, self._results.peek(lru_key))

    def put_record(self, record: Dict[str, object]) -> bool:
        """Inject a self-describing record into memory (the unit LRU for a
        unit record) and the store; ``True`` if it reached disk.  Raises
        ``ValueError`` for a record ``key_from_record`` rejects."""
        key = key_from_record(record)
        if key[1] == UNIT_STYLE:
            self._unit_records.put(key[0], record)
        else:
            self._fill(self._program_key(key), record=record)
        return self._spill(key, record)

    # -- modular compilation -------------------------------------------------
    def _unit_record_for(self, unit) -> Dict[str, object]:
        """The artifact record of one unit: memory LRU, disk store, or compile.

        A genuine compile runs on the pooled manager (under the compile
        lock, in a ``unit:``-prefixed scope) and is spilled to the store
        best-effort, so any daemon or worker process sharing the directory
        warms at module granularity.
        """
        fingerprint = unit.fingerprint()
        record, origin = self._held_unit_record(fingerprint)
        if record is not None:
            with self._lock:
                if origin == "memory":
                    self._unit_hits += 1
                else:
                    self._unit_store_hits += 1
            return record
        try:
            with self._compile_lock:
                scope = self._scope_for(_UNIT_SCOPE_PREFIX + fingerprint)
                record = compile_unit_record(unit, manager=scope)
        except BaseException:
            # A unit that fails to compile caches no record; its scope must
            # not outlive the failure (the mid-link scope-release invariant
            # tests/test_modular.py checks).  Units compiled earlier for the
            # same program keep theirs -- their records are cached and
            # reusable by the next program.
            self._release_unit_scopes(fingerprint)
            raise
        with self._lock:
            self._unit_misses += 1
        self._unit_records.put(fingerprint, record)
        self._spill(unit_store_key(fingerprint), record)
        self._maybe_recycle()
        return record

    def _link(
        self,
        process: Process,
        program: KernelProgram,
        style: GenerationStyle,
        build_flat: bool,
        observable: bool,
    ) -> LinkedCompilationResult:
        """The modular miss path: resolve every unit, then link them."""
        with self._lock:
            self._link_misses += 1
        units = split_units(program)
        records = [self._unit_record_for(unit) for unit in units]
        linked = link_units(
            program,
            units,
            records,
            style=style,
            build_flat=build_flat,
            observable=observable,
            process=process,
        )
        with self._lock:
            self._links += 1
        return linked

    def compile_modular(
        self,
        source: Optional[str] = None,
        process: Optional[Process] = None,
        style: GenerationStyle = GenerationStyle.HIERARCHICAL,
        build_flat: bool = False,
        observable: bool = True,
        program: Optional[KernelProgram] = None,
    ) -> LinkedCompilationResult:
        """Compile unit-by-unit against the unit cache, then link.

        The program is split into canonical units
        (:func:`repro.lang.units.split_units`); each unit's artifacts come
        from the in-memory unit LRU, the disk store, or a genuine per-unit
        compile on the pool.  The link stage then composes them into a
        :class:`~repro.compiler.LinkedCompilationResult` that is
        trace-equivalent to the monolithic :meth:`compile` of the same
        source.

        The linked result is cached in the program-keyed result LRU that
        :meth:`compile` uses, under the same fingerprint and options plus
        ``modular=True``.  A repeat of the same program is a ``link_hits``
        hit that skips unit resolution and the link stage and returns a
        copy with fresh executables, exactly like :meth:`compile` hits; an
        exact textual repeat does not even parse.  A *novel* program over
        cached units still pays only the link.
        """
        if source is None and process is None:
            raise ValueError("compile_modular needs source= or process=")
        return self._compile_cached(
            source, process, style, build_flat, observable, program=program,
            modular=True,
        )

    def compile_modular_record(
        self,
        source: str,
        style: GenerationStyle = GenerationStyle.HIERARCHICAL,
        build_flat: bool = False,
        observable: bool = True,
    ) -> Dict[str, object]:
        """:meth:`compile_record` with a modular miss path.

        The record has the exact shape of :meth:`compile_record`'s (kind
        ``"program"``, keyed by the *whole-program* fingerprint), so one
        record answers both kinds of request.
        """
        return self.record_for(source, style, build_flat, observable, modular=True)[0]

    def compile_batch(
        self,
        sources: Iterable[str],
        style: GenerationStyle = GenerationStyle.HIERARCHICAL,
        build_flat: bool = False,
        observable: bool = True,
        modular: bool = False,
    ) -> list:
        """Compile many sources serially on the pool; return live results.

        Results come back in input order: :class:`~repro.compiler.CompilationResult`
        objects, or :class:`~repro.compiler.LinkedCompilationResult` objects
        from :meth:`compile_modular` when ``modular=True``.  Every result
        lands in the service's caches.  A source that fails to compile
        raises its ``SignalError`` from the batch call, carrying
        ``batch_index`` (the failing source's position).  For parallel
        compilation use :meth:`compile_batch_records` with ``jobs > 1``.
        """
        compile_one = self.compile_modular if modular else self.compile
        results = []
        for index, source in enumerate(sources):
            try:
                results.append(
                    compile_one(
                        source, style=style, build_flat=build_flat,
                        observable=observable,
                    )
                )
            except BaseException as error:
                error.batch_index = index
                raise
        return results

    def compile_batch_records(
        self,
        sources: Iterable[str],
        jobs: int = 1,
        style: GenerationStyle = GenerationStyle.HIERARCHICAL,
        build_flat: bool = False,
        observable: bool = True,
        modular: bool = False,
    ) -> List[Dict[str, object]]:
        """Compile many sources; return JSON-safe artifact records in order.

        With ``jobs <= 1`` the batch runs serially through
        :meth:`compile_batch` and its live results are rendered into
        records.  With ``jobs > 1`` it runs on a persistent
        :class:`ProcessPoolExecutor` of ``jobs`` worker processes,
        sidestepping the GIL: live results cannot cross a process boundary,
        records can -- rebuild a runnable step with
        :func:`repro.service.store.executable_from_record`.  Whole-source
        process batches neither consult nor populate the parent's caches
        (each worker process keeps its own).

        With ``modular=True`` a process batch fans out *units*, not
        sources (the parallel link stage): the batch is split up front,
        each distinct unit missing from the parent's unit LRU becomes one
        pool task, and the parent composes every program serially from
        warm units through :meth:`compile_modular`, so repeated programs
        land in (and hit) the result LRU.

        A source that fails to compile raises its ``SignalError``.  Serial
        batches and process workers annotate it with ``batch_index``, the
        failing source's position (for a unit failing in a worker, the
        first source containing it).
        """
        source_list = list(sources)
        if jobs > 1:
            if modular:
                return self._compile_batch_modular_processes(
                    source_list, jobs, style, build_flat, observable
                )
            return self._compile_batch_processes(
                source_list, jobs, style, build_flat, observable
            )
        results = self.compile_batch(
            source_list, style=style, build_flat=build_flat,
            observable=observable, modular=modular,
        )
        return [
            record_from_result(r, style, build_flat=build_flat, observable=observable)
            for r in results
        ]

    # -- process backend -----------------------------------------------------
    def _compile_batch_modular_processes(
        self,
        source_list: List[str],
        jobs: int,
        style: GenerationStyle,
        build_flat: bool,
        observable: bool,
    ) -> List[Dict[str, object]]:
        """The parallel link stage.

        Units (not whole sources) are the fan-out grain: each distinct unit
        not already in the parent's unit LRU becomes one pool task, its
        returned record is injected back into the parent's LRU, and the
        parent composes every program serially from warm units -- the
        compose step is BDD-free, so only per-unit compilation crosses the
        process boundary.  Workers spill through the shared disk store when
        one is configured, exactly like whole-source modular workers.
        """
        parsed = []
        # distinct unit fingerprint -> index of the first source containing it
        owners: Dict[str, int] = {}
        for index, source in enumerate(source_list):
            process = parse_process(source)
            program = normalize(process)
            parsed.append((process, program))
            for unit in split_units(program):
                owners.setdefault(unit.fingerprint(), index)
        pending = {
            fingerprint: index
            for fingerprint, index in owners.items()
            if self._unit_records.peek(fingerprint) is None
        }
        if pending:
            with self._borrow_process_pool(jobs) as pool:
                futures = {
                    fingerprint: pool.submit(
                        _process_worker_unit_record,
                        (source_list[index], fingerprint, self._store_path),
                    )
                    for fingerprint, index in pending.items()
                }
                for fingerprint, future in futures.items():
                    try:
                        record = future.result()
                    except BaseException as error:
                        # Blame the first source containing the unit, like
                        # whole-source process batches blame their index.
                        if not hasattr(error, "batch_index"):
                            error.batch_index = pending[fingerprint]
                        raise
                    self._unit_records.put(fingerprint, record)
        records = []
        for source, (process, program) in zip(source_list, parsed):
            linked = self.compile_modular(
                source,
                process=process,
                style=style,
                build_flat=build_flat,
                observable=observable,
                program=program,
            )
            records.append(
                record_from_result(
                    linked, style, build_flat=build_flat, observable=observable
                )
            )
        with self._lock:
            self._process_records += len(records)
        return records

    def _compile_batch_processes(
        self,
        source_list: List[str],
        jobs: int,
        style: GenerationStyle,
        build_flat: bool,
        observable: bool,
    ) -> List[Dict[str, object]]:
        payloads = [
            (source, style.value, bool(build_flat), bool(observable),
             self._store_path, False)
            for source in source_list
        ]
        with self._borrow_process_pool(jobs) as pool:
            futures = [
                pool.submit(_process_worker_record, payload) for payload in payloads
            ]
            records = []
            for index, future in enumerate(futures):
                try:
                    records.append(future.result())
                except BaseException as error:
                    # Name the culprit: the parent never compiled anything,
                    # so without the index a caller (e.g. the CLI) would
                    # have to recompile the whole batch to find it.
                    if not hasattr(error, "batch_index"):
                        error.batch_index = index
                    raise
        with self._lock:
            self._requests += len(source_list)
            self._process_records += len(records)
        return records

    def compile_record_in_process(
        self,
        source: str,
        style: GenerationStyle = GenerationStyle.HIERARCHICAL,
        build_flat: bool = False,
        observable: bool = True,
        jobs: int = 1,
        modular: bool = False,
    ) -> Dict[str, object]:
        """Compile one source on the process pool; return its artifact record.

        The daemon's parallel compile tier (through :meth:`record_for`):
        ``K`` request threads each park here while their compilation runs
        in a worker process, so ``K`` compilations proceed on ``K`` cores
        instead of serializing on the GIL.  ``jobs`` sizes (and can grow)
        the shared pool.  This service's caches are not consulted.
        """
        with self._borrow_process_pool(max(jobs, 1)) as pool:
            record = pool.submit(
                _process_worker_record,
                (source, style.value, bool(build_flat), bool(observable),
                 self._store_path, bool(modular)),
            ).result()
        with self._lock:
            self._process_records += 1
        return record

    @contextlib.contextmanager
    def _borrow_process_pool(self, jobs: int):
        """Check the shared worker-process pool out for one batch/submit.

        The pool is created lazily and *grown* -- drained and rebuilt with
        more workers -- only while nobody else has it checked out: replacing
        a pool another thread is about to submit to would make that submit
        raise ``cannot schedule new futures after shutdown``.  A concurrent
        borrower asking for more workers while the pool is busy simply uses
        the existing (smaller) pool; the growth happens on the next idle
        borrow.  Shrinking is never done implicitly -- idle workers cost
        little and keep their warm caches.
        """
        with self._lock:
            if (
                self._process_pool is not None
                and self._process_jobs < jobs
                and self._process_borrows == 0
            ):
                self._process_pool.shutdown(wait=True)
                self._process_pool = None
            if self._process_pool is None:
                self._process_pool = ProcessPoolExecutor(max_workers=jobs)
                self._process_jobs = jobs
            pool = self._process_pool
            self._process_borrows += 1
        try:
            yield pool
        finally:
            with self._lock:
                self._process_borrows -= 1

    def close(self) -> None:
        """Shut down the worker-process pool (if one was ever started).

        Safe to call any time and more than once; the next process-mode
        compile simply builds a fresh pool.  Do not call it concurrently
        with an in-flight process batch (the daemon tears its request
        threads down first).  The pooled manager needs no teardown.
        """
        with self._lock:
            pool, self._process_pool, self._process_jobs = self._process_pool, None, 0
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "CompilationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- pool hygiene --------------------------------------------------------
    def _over_watermark(self) -> bool:
        return (
            self.max_pool_nodes is not None
            and self._manager.num_nodes > self.max_pool_nodes
        )

    def _maybe_recycle(self) -> None:
        """Replace the pooled manager with a fresh one when over budget.

        Every registered scope lives on the old manager, so all of them are
        released.  Cached results keep the old manager object (and hence
        their BDDs) alive; only the service's bookkeeping for it is dropped.
        Lock order is compile lock, then the service lock -- the same order
        the compile path uses (the pipeline under the compile lock,
        ``_scope_for`` inside), so a recycle can never deadlock against a
        compilation.
        """
        if not self._over_watermark():
            return
        with self._compile_lock:
            if not self._over_watermark():  # re-check under the lock
                return
            self._manager = self._manager.fresh_like()
            with self._lock:
                self._clear_scopes()
                self._pool_recycles += 1

    # -- maintenance and reporting ------------------------------------------
    def clear_cache(self) -> None:
        """Drop cached results and scopes (interned pooled BDDs are kept)."""
        self._results.clear()
        self._unit_records.clear()
        self._source_fingerprints.clear()
        self._clear_scopes()

    @property
    def cache_size(self) -> int:
        return len(self._results)

    def statistics(self) -> Dict[str, object]:
        """Counters for monitoring: cache behaviour and pool sizes.

        ``link_hits`` counts modular requests the whole-program LRU
        answered (live or as a record), ``link_store_hits`` modular record
        requests a program record on disk answered.
        """
        with self._lock:
            manager_stats = self._manager.statistics()
            stats = {
                "requests": self._requests,
                "cache_entries": len(self._results),
                "cache_max_entries": self._results.max_entries,
                "scopes": len(self._scopes),
                "source_fast_path_hits": self._source_fingerprints.stats.hits,
                "pooled_bdd_nodes": manager_stats["nodes"],
                "pooled_bdd_vars": manager_stats["vars"],
                "pooled_ite_cache_entries": manager_stats["ite_cache_entries"],
                "max_pool_nodes": self.max_pool_nodes or 0,
                "pool_recycles": self._pool_recycles,
                "process_pool_workers": self._process_jobs,
                "process_records": self._process_records,
                "modular_requests": self._modular_requests,
                "unit_cache_entries": len(self._unit_records),
                "unit_cache_max_entries": self._unit_records.max_entries,
                "unit_hits": self._unit_hits,
                "unit_misses": self._unit_misses,
                "unit_store_hits": self._unit_store_hits,
                "links": self._links,
                "link_hits": self._link_hits,
                "link_misses": self._link_misses,
                "link_store_hits": self._link_store_hits,
                "store_put_failures": self._store_put_failures,
            }
        stats.update(
            {f"cache_{name}": value for name, value in self._results.stats.as_dict().items()}
        )
        return stats
