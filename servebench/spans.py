"""Request-scoped spans recorded from outside the program.

The benchmark wraps the public callables of each ``repro.core`` layer at
the binding its caller looks up (a name a module imported with
``from x import y`` is patched in *that* module, not only where it is
defined), records one span per call, and restores every binding when
the traced window ends.  Nothing under ``src/`` changes.

A span is ``(name, start, end, parent, request, phase)``: ``parent`` is
the index of the enclosing span on the same thread (``-1`` at the top),
``request`` the id the benchmark set for the request being served, and
``phase`` the part of the run (``"setup"`` or ``"window"``).
Spans stay in memory and are written out when the run ends.  A layer's
*self time* is a span's duration minus the part of it its child spans
cover.

A binding that no longer exists (a later refactor renamed or removed
it) is reported as absent instead of failing the run.
"""

from __future__ import annotations

import contextvars
import importlib
import inspect
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["Binding", "Tracer", "BINDINGS", "self_times", "covered"]

_clock = time.perf_counter

#: Current request id on this thread (or task).
_request: contextvars.ContextVar[int] = contextvars.ContextVar("request", default=-1)
#: Index of the innermost open span on this thread (or task).
_parent: contextvars.ContextVar[int] = contextvars.ContextVar("parent", default=-1)


@dataclass(frozen=True)
class Binding:
    """One patch site: ``module.attr`` or ``module.cls.attr``.

    ``span`` names the layer span each call records; ``count_only``
    bumps a counter instead (for calls too frequent to span, such as
    engine frames).
    """

    module: str
    attr: str
    span: str
    cls: str | None = None
    count_only: bool = False

    @property
    def where(self) -> str:
        owner = f"{self.module}.{self.cls}" if self.cls else self.module
        return f"{owner}.{self.attr}"


def _bindings(module: str, attrs: tuple[str, ...], span: str, **kw) -> list[Binding]:
    return [Binding(module, attr, span, **kw) for attr in attrs]


#: Every layer boundary the traced run records.  Module-level functions
#: are listed once per importing module; class attributes once on the
#: class (every importer shares the class object).
BINDINGS: tuple[Binding, ...] = tuple(
    [
        # Similarity: matrix materialisation and source resolution.
        Binding("repro.core.prefilter", "__call__", "similarity.matrix", cls="LabelEqualitySimilarity"),
        *_bindings("repro.core.service", ("resolve_similarity",), "similarity.resolve"),
        *_bindings("repro.core.sharding", ("resolve_similarity",), "similarity.resolve"),
        # Engine: per-pattern solve, the Fig. 3 outer loop, greedyMatch
        # rounds, and frames (each frame is one _new_frame call).
        *_bindings(
            "repro.core.api",
            ("comp_max_card", "comp_max_card_injective", "comp_max_card_partitioned"),
            "engine.solve",
        ),
        *_bindings("repro.core.sharding", ("solve_component",), "engine.solve"),
        *_bindings("repro.core.optimize", ("solve_component",), "engine.solve"),
        *_bindings("repro.core.comp_max_card", ("comp_max_card_engine",), "engine.outer"),
        *_bindings("repro.core.optimize", ("comp_max_card_engine",), "engine.outer"),
        *_bindings("repro.core.engine", ("greedy_match",), "engine.greedy"),
        Binding("repro.core.engine", "_new_frame", "engine.frame", count_only=True),
        Binding("repro.core.workspace", "__init__", "workspace.build", cls="MatchingWorkspace"),
        # Fingerprints, at the definition and at every importing module.
        *[
            Binding(module, "graph_fingerprint", "fingerprint")
            for module in (
                "repro.graph.fingerprint",
                "repro.graph",
                "repro.core.service",
                "repro.core.sharding",
                "repro.core.workspace",
                "repro.core.prepared",
            )
        ],
        # Router.
        Binding("repro.core.sharding", "plan_for", "sharding.plan_for", cls="ShardedMatchingService"),
        Binding("repro.core.sharding", "match_sharded", "sharding.router", cls="ShardedMatchingService"),
        # Prefilter rows built on the flat / partitioned paths (the
        # sharded router builds its rows inline and counts them itself).
        *_bindings("repro.core.service", ("gated_candidate_rows",), "prefilter.gated_rows"),
        *_bindings("repro.core.api", ("gated_candidate_rows",), "prefilter.gated_rows"),
        # Tier ladder.
        Binding("repro.core.service", "prepared_for", "service.prepared_for", cls="PreparedGraphCache"),
        Binding("repro.core.store", "load", "store.load", cls="PreparedIndexStore"),
        Binding("repro.core.store", "payload_region", "store.payload_region", cls="PreparedIndexStore"),
        Binding("repro.core.store", "save", "store.save", cls="PreparedIndexStore"),
        Binding("repro.core.store", "save_delta", "store.save_delta", cls="PreparedIndexStore"),
        Binding("repro.core.prepared", "from_payload", "prepared.from_payload", cls="PreparedDataGraph"),
        Binding("repro.core.prepared", "from_mapped", "prepared.from_mapped", cls="PreparedDataGraph"),
        Binding("repro.core.prepared", "__init__", "prepared.build", cls="PreparedDataGraph"),
        Binding("repro.core.prepared", "apply_delta", "incremental.apply_delta", cls="PreparedDataGraph"),
    ]
)


@dataclass
class Tracer:
    """Installs :data:`BINDINGS`, records spans while installed.

    ``install`` patches every binding that exists and lists the rest in
    :attr:`absent`; ``uninstall`` restores the original objects.  Spans
    and counters accumulate into the phase named by :attr:`phase`; set
    it before ``install`` and keep it until ``uninstall``.
    """

    bindings: tuple[Binding, ...] = BINDINGS
    phase: str = "window"
    spans: list[tuple] = field(default_factory=list)
    counts: dict[tuple[str, str], int] = field(default_factory=dict)
    #: Results of ``incremental.apply_delta`` spans: (phase, delta_stats).
    delta_results: list[tuple[str, dict]] = field(default_factory=list)
    absent: list[str] = field(default_factory=list)
    #: (owner, attribute, original, original was the owner's own attribute)
    _saved: list[tuple[Any, str, Any, bool]] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _cells: dict[str, list[int]] = field(default_factory=dict)

    def _reserve(self) -> int:
        """A slot for a new span, so children index after their parent."""
        with self._lock:
            self.spans.append(None)
            return len(self.spans) - 1

    # -- recording ------------------------------------------------------
    def span(self, name: str, fn: Callable) -> Callable:
        spans = self.spans

        def traced(*args, **kwargs):
            index = self._reserve()
            token = _parent.set(index)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                _parent.reset(token)
                spans[index] = (name, start, end, _parent.get(), _request.get(), self.phase)
            if name == "incremental.apply_delta":
                self.delta_results.append((self.phase, dict(result.delta_stats or {})))
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        # A bare cell keeps per-call cost to one add.  Counts are exact
        # while one thread at a time runs the counted code, as in every
        # workload here; they move to ``counts`` on ``uninstall``.
        cell = self._cells.setdefault(name, [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- patching -------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.absent = []
        for binding in self.bindings:
            try:
                owner = importlib.import_module(binding.module)
                if binding.cls is not None:
                    owner = getattr(owner, binding.cls)
                original = inspect.getattr_static(owner, binding.attr)
            except (ImportError, AttributeError):
                self.absent.append(binding.where)
                continue
            wrap = self.counter if binding.count_only else self.span
            if isinstance(original, classmethod):
                patched: Any = classmethod(wrap(binding.span, original.__func__))
            elif isinstance(original, staticmethod):
                patched = staticmethod(wrap(binding.span, original.__func__))
            elif callable(original):
                patched = wrap(binding.span, original)
            else:
                self.absent.append(binding.where)
                continue
            own = binding.attr in vars(owner)
            setattr(owner, binding.attr, patched)
            self._saved.append((owner, binding.attr, original, own))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:  # inherited: drop the shadowing patch
                delattr(owner, attr)
        for name, cell in self._cells.items():
            key = (self.phase, name)
            self.counts[key] = self.counts.get(key, 0) + cell[0]
            cell[0] = 0

    # -- request scoping ------------------------------------------------
    @staticmethod
    def set_request(request: int) -> contextvars.Token:
        return _request.set(request)

    @staticmethod
    def reset_request(token: contextvars.Token) -> None:
        _request.reset(token)

    def open_span(self, name: str) -> tuple[int, contextvars.Token, float]:
        """Start a span by hand (the benchmark's own request root)."""
        index = self._reserve()
        return index, _parent.set(index), _clock()

    def close_span(self, name: str, opened: tuple[int, contextvars.Token, float]) -> None:
        index, token, start = opened
        end = _clock()
        _parent.reset(token)
        self.spans[index] = (name, start, end, _parent.get(), _request.get(), self.phase)

    def phase_spans(self, phase: str) -> list[tuple]:
        return [s for s in self.spans if s is not None and s[5] == phase]

    def count(self, phase: str, name: str) -> int:
        return self.counts.get((phase, name), 0)

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "request", "phase"],
            "spans": [list(s) for s in self.spans if s is not None],
            "counts": {f"{p}:{n}": c for (p, n), c in sorted(self.counts.items())},
            "absent": list(self.absent),
        }


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list, phase: str | None = None) -> dict[str, float]:
    """Seconds per span name over the spans of ``phase`` (all when ``None``).

    ``"self:" + name`` is the summed self time of spans of that name.
    ``"top:" + key`` is the summed duration of spans not nested inside
    another span of the same ``key``, where the key is a span's full name
    or its layer (the part before the first dot) — so a re-entrant layer
    is not counted twice.  ``spans`` is one tracer's full list: parents
    are found by index.
    """
    by_index = {i: s for i, s in enumerate(spans) if s is not None}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in by_index.values():
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out: dict[str, float] = {}
    for i, (name, start, end, parent, _request, span_phase) in by_index.items():
        if phase is not None and span_phase != phase:
            continue
        own = (end - start) - covered(children.get(i, []))
        out["self:" + name] = out.get("self:" + name, 0.0) + own
        layer = name.split(".", 1)[0]
        nested_name = nested_layer = False
        p = parent
        while p >= 0 and not (nested_name and nested_layer):
            ancestor = by_index.get(p)
            if ancestor is None:
                break
            nested_name = nested_name or ancestor[0] == name
            nested_layer = nested_layer or ancestor[0].split(".", 1)[0] == layer
            p = ancestor[3]
        tops = {name: nested_name, layer: nested_layer}
        for key, nested in tops.items():
            if not nested:
                out["top:" + key] = out.get("top:" + key, 0.0) + (end - start)
    return out
