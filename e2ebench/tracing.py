"""Outside-in layer tracing: timing wrappers around calls into each layer.

The program has no spans of its own yet, so the traced run installs
wrappers from here, around the public functions each layer exposes, and
removes them before the oracle runs.  The untraced run installs nothing.

Every wrapped call is a span: its inclusive time is charged to its layer,
and its self time is the inclusive time minus the spans nested inside it
on the same thread (a thread-local stack, so the service's worker threads
are traced too; totals are summed under a lock, as are the calls seen by
the counting wrappers (``Budget.check``, SQL statements).

Patch sites follow the call sites, not the definitions: callers import
names directly (``from .engine import chase``), so the wrapper replaces the
name in the calling module.  ``repro.chase`` is the chase *function*, so
modules are reached through :func:`importlib.import_module`.
"""

from __future__ import annotations

import functools
import gc
import importlib
import threading
import time
from collections import defaultdict

#: (module, attribute, layer, result hook) — a hook maps the return value
#: to an amount added to ``amounts[layer]``.
SPANS = (
    # omq: open-world evaluation, every backend, through the Engine session
    ("repro.engine", "Engine.certain_answers", "omq", None),
    ("repro.omq.evaluation", "_evaluate_partial", "omq.ucq_eval", None),
    ("repro.datalog.backend", "_evaluate_partial", "omq.ucq_eval", None),
    # chase.cache: lookups, stores, extension planning (self time)
    ("repro.chase.cache", "ChaseCache.chase", "cache", None),
    ("repro.chase.cache", "ChaseCache.materialise", "cache", None),
    # chase: fresh chases, extensions and resumes, patched where called
    ("repro.omq.evaluation", "chase", "chase", lambda r: len(r.instance)),
    ("repro.chase.cache", "chase", "chase", lambda r: len(r.instance)),
    ("repro.chase.cache", "extend_chase", "chase", lambda r: len(r.instance)),
    ("repro.chase.cache", "resume_chase", "chase", lambda r: len(r.instance)),
    # queries: closed-world joins (consume the answer generators fully)
    ("repro.evaluation", "closed_world_answer", "queries", None),
    # cqs: the D |= Σ promise check
    ("repro.cqs.cqs", "CQS.promise_holds", "cqs.promise_check", None),
    # datalog and SQL backends
    ("repro.datalog.backend", "saturate", "datalog", None),
    ("repro.datalog.backend", "sql_certain_answers", "sql", None),
    ("repro.evaluation", "_closed_world_sql", "sql", None),
    # serve: request-frame parsing in the transport
    ("repro.serve.net", "_parse_request", "serve.parse", None),
)

#: (module, attribute, counter) — calls counted, not timed.
COUNTS = (
    ("repro.governance.budget", "Budget.check", "governance.budget_checks"),
    ("repro.governance.budget", "Budget.check_batch", "governance.budget_checks"),
    ("repro.queries.sql", "cq_to_sql", "sql.selects"),
)


def _resolve(module_name: str, attribute: str):
    """(owner object, final attribute name) for a dotted attribute path."""
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Installs the wrappers, accumulates spans, and restores everything."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.amounts: dict[str, int] = defaultdict(int)
        #: Calls seen by the counting wrappers.
        self.counts: dict[str, int] = defaultdict(int)
        #: Time in outermost spans (nothing traced around them on the thread).
        self.top_level = 0.0
        self._undo: list[tuple[object, str, object]] = []
        self.gc_pause = 0.0
        self.gc_gen2 = 0
        self._gc_started: float | None = None

    # -- wrappers ------------------------------------------------------
    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, layer: str, fn, hook):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                amount = hook(result) if hook is not None and result is not None else 0
                with self._lock:
                    self.inclusive[layer] += elapsed
                    self.self_time[layer] += elapsed - nested
                    self.amounts[layer] += amount
                    if not stack:
                        self.top_level += elapsed

        return wrapper

    def _count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module_name: str, attribute: str, make) -> None:
        owner, name = _resolve(module_name, attribute)
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        setattr(owner, name, make(original))
        self._undo.append((owner, name, original))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_pause += time.perf_counter() - self._gc_started
            self._gc_started = None
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    # -- lifecycle -----------------------------------------------------
    def install(self) -> "Tracer":
        for module_name, attribute, layer, hook in SPANS:
            self._patch(
                module_name,
                attribute,
                lambda fn, layer=layer, hook=hook: self._span(layer, fn, hook),
            )
        for module_name, attribute, name in COUNTS:
            self._patch(
                module_name, attribute, lambda fn, name=name: self._count(name, fn)
            )
        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
