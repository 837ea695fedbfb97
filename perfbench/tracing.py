"""Layer spans for the traced benchmark run, recorded from outside the program.

:func:`install` wraps the public entry point of each layer (class methods
and module attributes, including names other modules imported by value)
so every call leaves a span ``(id, parent, name, start, end)`` in memory.
Only the outermost frame of a recursive call opens a span: ``SpEngine.post``
recurses, and summing its nested frames would count the same seconds many
times over.  Spans are written out once, when the run ends, together with a
folded-stack export (``a;b;c micros`` per line) for flame-graph tools.

Span names are ``<layer>.<call>``; :data:`LAYERS` maps the prefix to the
module-named layer used for self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict

LAYERS = {
    "datasets": "datasets",
    "consolidation": "consolidation",
    "simplifier": "consolidation.simplifier",
    "smt": "smt",
    "sp": "analysis.sp",
    "invariants": "analysis.invariants",
    "static": "analysis.static",
    "service": "service",
    "naiad": "naiad",
    "lang": "lang",
}

# (span name, [(module, attribute path), ...]).  A function imported by
# name into another module is patched there too, or calls through that
# name would escape the trace.
TARGETS = [
    ("consolidation.batch", [("repro.consolidation.divide_conquer", "consolidate_all"),
                             ("repro.consolidation", "consolidate_all"),
                             ("repro.consolidation.incremental", "consolidate_all"),
                             ("repro.naiad.linq", "consolidate_all")]),
    ("consolidation.pair", [("repro.consolidation.algorithm", "Consolidator.consolidate")]),
    ("simplifier.entails", [("repro.consolidation.simplifier", "Context.entails_expr")]),
    ("smt.is_sat", [("repro.smt.solver", "Solver.is_sat")]),
    ("smt.theory", [("repro.smt.combine", "check_literals"),
                    ("repro.smt.solver", "check_literals")]),
    ("sp.assign", [("repro.analysis.sp", "SpEngine.assign")]),
    ("sp.post", [("repro.analysis.sp", "SpEngine.post")]),
    ("invariants.loop_invariant", [("repro.analysis.invariants", "loop_invariant"),
                                   ("repro.consolidation.algorithm", "loop_invariant"),
                                   ("repro.analysis.static.validate", "loop_invariant")]),
    ("static.validate", [("repro.analysis.static.validate", "validate_consolidation"),
                         ("repro.analysis.static", "validate_consolidation")]),
    ("service.admit", [("repro.service.admission", "admit"),
                       ("repro.service.registry", "admit")]),
    ("service.register", [("repro.service.registry", "QueryRegistry.register")]),
    ("service.unregister", [("repro.service.registry", "QueryRegistry.unregister")]),
    ("service.run", [("repro.service.registry", "QueryRegistry.run")]),
    ("naiad.run", [("repro.naiad.dataflow", "Dataflow.run")]),
    ("naiad.operator", [("repro.naiad.operators", "WhereConsolidated.process"),
                        ("repro.naiad.operators", "WhereConsolidated.ingest_batch")]),
    ("naiad.flush", [("repro.naiad.operators", "WhereConsolidated.on_flush")]),
    ("lang.compile", [("repro.lang.compile", "compile_program"),
                      ("repro.lang.vectorize", "vectorize_program")]),
    ("lang.fallback", [("repro.lang.vectorize", "VectorizedProgram._run_rows")]),
]


class Tracer:
    """In-memory span store shared by every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._next_id = 0
        self._lock = threading.Lock()

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` (outermost frame only)."""

        stack = self._stack()
        if any(active == name for _, active in stack):
            return fn(*args, **kwargs)
        sid = self._new_id()
        parent = stack[-1][0] if stack else 0
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end))
        if name == "naiad.run":  # Dataflow.run(self, records, ...) -> RunResult
            self.counts["naiad.records_in"] += len(args[1])
            self.counts["naiad.notifications"] += sum(map(len, result.buckets.values()))
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    # -- summaries -------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, inclusive seconds)`` over the recorded spans."""

        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for _, _, name, start, end in self.spans:
            out[name][0] += 1
            out[name][1] += end - start
        return {k: (v[0], v[1]) for k, v in out.items()}

    def _child_seconds(self) -> dict[int, float]:
        child: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent:
                child[parent] += end - start
        return child

    def covered(self, prefixes: tuple[str, ...]) -> float:
        """Seconds under spans whose name starts with one of ``prefixes``,
        counting a span only when no ancestor also matches."""

        by_id = {s[0]: s for s in self.spans}
        total = 0.0
        for sid, parent, name, start, end in self.spans:
            if not name.startswith(prefixes):
                continue
            nested = False
            while parent:
                ancestor = by_id.get(parent)
                if ancestor is None:
                    break
                if ancestor[2].startswith(prefixes):
                    nested = True
                    break
                parent = ancestor[1]
            if not nested:
                total += end - start
        return total

    def self_seconds(self) -> dict[str, float]:
        """Per-layer self time: span duration minus its children's."""

        child_time = self._child_seconds()
        layers: dict[str, float] = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            layers[LAYERS[name.split(".", 1)[0]]] += (end - start) - child_time[sid]
        return dict(layers)

    def folded(self) -> dict[str, int]:
        """Folded stacks: ``"a;b;c" -> self microseconds``."""

        by_id = {s[0]: s for s in self.spans}
        child_time = self._child_seconds()
        out: dict[str, int] = defaultdict(int)
        for sid, parent, name, start, end in self.spans:
            path = [name]
            while parent and parent in by_id:
                path.append(by_id[parent][2])
                parent = by_id[parent][1]
            micros = int(round(((end - start) - child_time[sid]) * 1e6))
            out[";".join(reversed(path))] += max(0, micros)
        return dict(out)

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""

        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def _resolve(module_name: str, attr_path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> None:
    """Patch every target in :data:`TARGETS` to record into ``tracer``."""

    for name, places in TARGETS:
        for module_name, attr_path in places:
            owner, attr = _resolve(module_name, attr_path)
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))


def preload() -> None:
    """Import every module :func:`install` patches, without patching.

    :func:`install` imports modules the program would otherwise import
    lazily, inside the timed calls; an untraced run compared with a traced
    one preloads them too, so the difference is the spans alone.
    """

    for _, places in TARGETS:
        for module_name, attr_path in places:
            _resolve(module_name, attr_path)


def write_folded(folded: dict[str, int], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for stack in sorted(folded):
            fh.write(f"{stack} {folded[stack]}\n")
