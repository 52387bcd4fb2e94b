"""Traced runs: spans recorded around the program's public entry points.

The benchmark wraps the entry points of each layer from outside (no
code in ``src/`` changes) and records one span per call: ``(id,
parent, name, start, end, statement, count)``.  Spans live in memory
and are written out when the run ends.  Each thread keeps its own span
stack; work handed to a thread pool, and block pulls of a stream made
on another thread, carry the statement id and parent span of the code
that caused them, so the service's worker threads nest correctly.

:func:`layer_times` turns the spans of one statement into per-layer
times.  A layer's self time is its span's duration minus the part of
that interval its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import resource
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

#: Span tuple fields.
ID, PARENT, NAME, START, END, STMT, COUNT = range(7)


def _batch_size(args, result) -> int:
    return len(args[1]) if len(args) > 1 else 0


def _result_rows(args, result) -> int:
    return len(result.rows)


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.enabled = False
        self.counters: dict[str, int] = {}
        self.marks: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- per-thread context ---------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.stmt = None
            local.parent = None
        return local

    def _current(self):
        local = self._state()
        return local, (local.stack[-1] if local.stack else local.parent)

    def begin(self, name: str, stmt: int):
        """Open a span on this thread by hand (statement roots)."""
        local, parent = self._current()
        span_id = next(self._ids)
        local.stmt = stmt
        local.stack.append(span_id)
        return (span_id, parent, name, perf_counter(), local.stmt)

    def end(self, opened) -> None:
        span_id, parent, name, start, stmt = opened
        end = perf_counter()
        local = self._state()
        local.stack.pop()
        if not local.stack:
            local.stmt = None
        if self.enabled:
            self.spans.append((span_id, parent, name, start, end, stmt, 0))

    # -- wrappers ---------------------------------------------------------------

    def _wrapper(self, fn, name: str, count=None, stream: bool = False, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            local, parent = tracer._current()
            span_id = next(tracer._ids)
            local.stack.append(span_id)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                local.stack.pop()
                n = count(args, result) if count is not None and result is not None else 0
                tracer.spans.append((span_id, parent, name, start, end, local.stmt, n))
            if after is not None:
                after(tracer)
            if stream:
                result = tracer._traced_stream(result, name, parent, local.stmt)
            return result

        return traced

    def _traced_stream(self, stream, name: str, parent, stmt):
        from repro.engine.rowblock import BlockStream

        return BlockStream(
            stream.columns, _PullSpans(self, stream, name, parent, stmt), stream.stats
        )

    def _counter(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.enabled:
                tracer.counters[name] = tracer.counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr], replacement))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, **options) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            self._patch(
                owner, attr, classmethod(self._wrapper(original.__func__, name, **options))
            )
        else:
            self._patch(owner, attr, self._wrapper(original, name, **options))

    def count_calls(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, self._counter(owner.__dict__[attr], name))

    def _propagate_pool_context(self) -> None:
        """Work submitted to a thread pool runs under the submitter's
        statement id and current span."""
        tracer = self
        original = ThreadPoolExecutor.submit

        def submit(pool, fn, /, *args, **kwargs):
            if not tracer.enabled:
                return original(pool, fn, *args, **kwargs)
            local, parent = tracer._current()
            stmt = local.stmt

            def run(*a, **k):
                inner = tracer._state()
                saved = inner.stmt, inner.parent
                inner.stmt, inner.parent = stmt, parent
                try:
                    return fn(*a, **k)
                finally:
                    inner.stmt, inner.parent = saved

            return original(pool, run, *args, **kwargs)

        self._patch(ThreadPoolExecutor, "submit", submit)

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap the public entry points of every measured layer."""
        import repro.core.client as client_mod
        import repro.core.designer as designer_mod
        import repro.service.service as service_mod
        from repro.core.cost import DecryptionProfiler
        from repro.core.designer import Designer
        from repro.core.dml import DmlExecutor
        from repro.core.encdata import CryptoProvider
        from repro.core.loader import EncryptedLoader
        from repro.core.pexec import PlanExecutor
        from repro.core.planner import Planner
        from repro.engine.executor import Executor
        from repro.net.client import RemoteBackend
        from repro.server.backend import LockScopedView, ServerBackend
        from repro.server.inmemory import InMemoryBackend
        from repro.server.sqlite import SQLiteBackend, _SQLiteWorkerView

        def design_rss(tracer):
            tracer.marks["designer.peak_rss_mb"] = peak_rss_mb()

        # Setup path.
        self.wrap(Designer, "design_ilp", "designer", after=design_rss)
        self.wrap(DecryptionProfiler, "profile", "designer.profile")
        self.wrap(designer_mod, "solve", "designer.ilp")
        self.count_calls(Designer, "stats_max", "designer.stats_max_calls")
        self.wrap(EncryptedLoader, "load_into", "loader")
        for scheme, attr in (
            ("det", "det_encrypt_batch"),
            ("ope", "ope_encrypt_batch"),
            ("rnd", "rnd_encrypt_batch"),
            ("search", "search_encrypt_batch"),
            ("hom", "paillier_encrypt_batch"),
        ):
            self.wrap(CryptoProvider, attr, f"encrypt.{scheme}", count=_batch_size)
        # Statement path: front end, planner, executor, server, decryption.
        for module in (client_mod, service_mod):
            self.wrap(module, "parse_statement", "sql.parse")
            self.wrap(module, "normalize_for_execution", "normalize")
            self.wrap(module, "normalize_dml", "normalize")
        self.wrap(service_mod, "parse", "sql.parse")
        self.wrap(Planner, "plan", "planner")
        self.wrap(Planner, "plan_with_units", "planner")
        self.wrap(PlanExecutor, "execute", "pexec")
        self.wrap(Executor, "execute", "engine")
        self.wrap(Executor, "execute_stream", "engine", stream=True)
        for cls in (InMemoryBackend, LockScopedView, SQLiteBackend, _SQLiteWorkerView):
            self.wrap(cls, "execute", "server", count=_result_rows)
            self.wrap(cls, "execute_stream", "server", stream=True)
        self.wrap(RemoteBackend, "execute", "net.client")
        self.wrap(RemoteBackend, "execute_stream", "net.client", stream=True)
        for scheme, attr in (
            ("det", "det_decrypt_batch"),
            ("ope", "ope_decrypt_batch"),
            ("rnd", "rnd_decrypt_batch"),
            ("hom", "paillier_decrypt_batch"),
        ):
            self.wrap(CryptoProvider, attr, f"decrypt.{scheme}", count=_batch_size)
        service_cls = service_mod.MonomiService
        self.wrap(service_cls, "submit", "service")
        self.wrap(service_cls, "submit_prepared", "service")
        # Write path.
        self.wrap(DmlExecutor, "execute", "dml")
        for cls in (ServerBackend, LockScopedView, RemoteBackend):
            self.wrap(cls, "hom_apply", "server.hom_apply")
        self._propagate_pool_context()

    def attach(self) -> None:
        """Put the wrappers back after :meth:`detach`."""
        for owner, attr, _original, replacement in self._patches:
            setattr(owner, attr, replacement)

    def detach(self) -> None:
        """Restore the original entry points, so untraced work pays no
        wrapper frames."""
        for owner, attr, original, _replacement in reversed(self._patches):
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        fields = ("id", "parent", "name", "start", "end", "stmt", "count")
        with open(path, "w") as out:
            json.dump({"fields": fields, "spans": self.spans}, out)


class _PullSpans:
    """Iterator over a stream's blocks that records each pull as a span.

    A pull made on a thread with no open span (a prefetch producer)
    parents to the span that opened the stream."""

    def __init__(self, tracer: Tracer, stream, name: str, parent, stmt) -> None:
        self._tracer = tracer
        self._stream = stream
        self._blocks = iter(stream)
        self._name = name
        self._parent = parent
        self._stmt = stmt

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        if not tracer.enabled:
            return next(self._blocks)
        local, parent = tracer._current()
        if parent is None:
            parent = self._parent
        span_id = next(tracer._ids)
        local.stack.append(span_id)
        start = perf_counter()
        try:
            return next(self._blocks)
        finally:
            end = perf_counter()
            local.stack.pop()
            tracer.spans.append(
                (span_id, parent, self._name, start, end, self._stmt, 0)
            )

    def close(self) -> None:
        self._stream.close()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- analysis -------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def _role(span, by_id) -> str:
    """Engine spans split by who called them: the in-memory server's
    executor, or the client residual under the plan executor."""
    parent = by_id.get(span[PARENT])
    while parent is not None and parent[NAME] == "engine":
        parent = by_id.get(parent[PARENT])
    if parent is not None and parent[NAME] == "server":
        return "engine.server"
    if parent is not None and parent[NAME] == "pexec":
        return "engine.residual"
    return "engine.other"


def layer_times(spans: list[tuple]) -> dict[int | None, dict[str, float]]:
    """Per statement: ``self:<layer>`` self seconds, ``incl:<layer>``
    seconds in the outermost spans of that layer, ``calls:<layer>`` the
    number of those spans, and ``values:<layer>`` the values passed to
    batch crypto calls."""
    by_id = {span[ID]: span for span in spans}
    children: dict[int, list[tuple]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(span)
    out: dict[int | None, dict[str, float]] = {}
    for span in spans:
        name = span[NAME]
        if name == "engine":
            name = _role(span, by_id)
        duration = span[END] - span[START]
        inner = [(c[START], c[END]) for c in children.get(span[ID], ())]
        acc = out.setdefault(span[STMT], {})
        own = duration - _covered(inner, span[START], span[END])
        acc["self:" + name] = acc.get("self:" + name, 0.0) + own
        parent = by_id.get(span[PARENT])
        acc["values:" + name] = acc.get("values:" + name, 0) + span[COUNT]
        if parent is None or parent[NAME] != span[NAME]:
            acc["incl:" + name] = acc.get("incl:" + name, 0.0) + duration
            acc["calls:" + name] = acc.get("calls:" + name, 0) + 1
    return out
