"""Span tracing of the program's layers, installed from outside ``src/``.

A :class:`Tracer` replaces each public function or method named in
:data:`TARGETS` by a wrapper that records one span per call: its name,
start, end, parent span and request id.  A module-level function is
replaced at *every* import site -- each loaded ``repro`` module attribute
that is the original object -- because ``from .ir import build_step_ir``
copies the reference into the importing module.  Spans stay in memory
until :meth:`Tracer.dump` writes them out, and :meth:`Tracer.uninstall`
restores every original, so untraced code never runs through a wrapper.

A layer's *self time* is the duration of its spans minus the time their
child spans cover; summed over all layers it equals the time covered by
root spans, which is what lets per-layer numbers account for an
end-to-end time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute or Class.method, span name).  Several targets may
#: share one span name; nested spans of one name split its self time.
TARGETS: List[Tuple[str, str, str]] = [
    # lang
    ("repro.lang.parser", "parse_process", "lang.parse"),
    ("repro.lang.kernel", "normalize", "lang.normalize"),
    ("repro.lang.types", "infer_types", "lang.types"),
    ("repro.lang.units", "split_units", "lang.split_units"),
    # clocks (the BDD work happens inside resolution)
    ("repro.clocks.equations", "extract_clock_system", "clocks.equations"),
    ("repro.clocks.resolution", "resolve", "clocks.resolve"),
    ("repro.clocks.resolution", "ClockHierarchy.check", "clocks.check"),
    # graph
    ("repro.graph.dependency", "build_dependency_graph", "graph.dependency"),
    ("repro.graph.dependency", "ConditionalDependencyGraph.check_causality", "graph.causality"),
    ("repro.graph.scheduling", "build_schedule", "graph.schedule"),
    # codegen
    ("repro.codegen.ir", "build_step_ir", "codegen.ir"),
    ("repro.codegen.python_backend", "generate_python_source", "codegen.emit"),
    ("repro.codegen.c_backend", "generate_c_source", "codegen.emit"),
    ("repro.codegen.c_backend", "generate_c_shared_source", "codegen.emit"),
    ("repro.codegen.python_backend", "emit_statement_lines", "codegen.emit"),
    ("repro.codegen.c_backend", "emit_statement_lines", "codegen.emit"),
    ("repro.codegen.c_backend", "emit_shared_statement_lines", "codegen.emit"),
    ("repro.codegen.python_backend", "compile_step", "codegen.step_load"),
    ("repro.compiler", "link_units", "codegen.link"),
    # service, store, daemon, client
    ("repro.service.service", "CompilationService.compile_record", "service.record"),
    ("repro.compiler", "compile_unit_record", "service.unit_compile"),
    ("repro.service.store", "CompileStore.get", "service.store_get"),
    ("repro.service.store", "CompileStore.put", "service.store_put"),
    ("repro.service.daemon", "CompilationDaemon.handle_line", "daemon.request"),
    ("repro.service.client", "RemoteCompiler.request", "client.request"),
    # runtime
    ("repro.codegen.python_backend", "CompiledProcess.step", "runtime.step"),
    ("repro.runtime.mass", "SharedCProgram.from_metadata", "runtime.mass.build"),
    ("repro.runtime.mass", "CPopulation.pack_instant", "runtime.mass.pack"),
    ("repro.runtime.mass", "CPopulation.step_packed", "runtime.mass.step_many"),
    ("repro.runtime.mass", "CPopulation.output_snapshot", "runtime.mass.snapshot"),
    ("repro.runtime.distributed", "DistributedProgram.run", "runtime.distributed.run"),
]

#: A span: (id, name, start, end, parent id or -1, request id, thread id).
Span = Tuple[int, str, float, float, int, int, int]


class Tracer:
    """Records spans of the wrapped functions; one instance per process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: per span name, callbacks run on each call's return value
        self.result_hooks: Dict[str, Callable[[object], None]] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def _stack(self) -> List[Tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, function: Callable) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent, request = stack[-1] if stack else (-1, span_id)
            stack.append((span_id, request))
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span_id, name, start, end, parent, request, threading.get_ident())
                )
            hook = tracer.result_hooks.get(name)
            if hook is not None:
                hook(result)
            return result

        return traced

    # -- installation --------------------------------------------------------
    def install(self, targets: List[Tuple[str, str, str]] = TARGETS) -> None:
        for module_name, attribute, name in targets:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[method]
                if isinstance(raw, (classmethod, staticmethod)):
                    replacement = type(raw)(self.wrap(name, raw.__func__))
                else:
                    replacement = self.wrap(name, raw)
                self._restore.append((owner, method, raw))
                setattr(owner, method, replacement)
                continue
            original = getattr(module, attribute)
            wrapped = self.wrap(name, original)
            for loaded in list(sys.modules.values()):
                if loaded is None or not loaded.__name__.startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._restore.append((loaded, key, original))
                        setattr(loaded, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- analysis ------------------------------------------------------------
    def self_times(self, spans: Optional[List[Span]] = None) -> Dict[str, float]:
        """Seconds per span name, each span minus its direct children."""
        spans = self.spans if spans is None else spans
        child_time: Dict[int, float] = defaultdict(float)
        for _id, _name, start, end, parent, _request, _thread in spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _parent, _request, _thread in spans:
            totals[name] += (end - start) - child_time[span_id]
        return dict(totals)

    def counts(self, spans: Optional[List[Span]] = None) -> Dict[str, int]:
        totals: Dict[str, int] = defaultdict(int)
        for span in self.spans if spans is None else spans:
            totals[span[1]] += 1
        return dict(totals)

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (the run's trace record)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, request, thread in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                            "thread": thread,
                        }
                    )
                    + "\n"
                )
