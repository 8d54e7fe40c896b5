"""Spans around calls into the program's layers, recorded from outside.

The program itself carries no tracing: :class:`Tracer` replaces public
functions and methods of the layers with wrappers that record a span
(name, start, end, parent) per call, plus plain counters, and restores
the originals on :meth:`Tracer.uninstall`.  Spans stay in memory and are
written out by :meth:`Tracer.dump` when the traced process ends.

Every wrapped callable is synchronous, so a per-thread stack of open
spans gives each span its parent, and a layer's self time is its busy
time minus the time its child spans cover.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import os
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

_clock = time.perf_counter


class Tracer:
    """In-memory span and counter recorder for one process."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        # Columnar span store: id, parent id, name id, start, end.
        self.span_id = array("q")
        self.parent_id = array("q")
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.root_busy = 0.0
        self.counters: dict[str, float] = defaultdict(float)
        self.gauges: dict[str, float] = {}
        self._undo: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def swap(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` by ``make(original)`` until :meth:`uninstall`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | None,
        *,
        after: Callable[..., None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper.

        With a ``name`` each call records a span; ``after(result, *args,
        **kwargs)`` runs once the call returned, outside the span, to
        update counters.  An exception leaves the span recorded and
        skips ``after``.
        """
        if name is not None:
            name_id = self._name_ids.setdefault(name, len(self._names))
            if name_id == len(self._names):
                self._names.append(name)

        def make(func: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(func)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if name is None:
                    result = func(*args, **kwargs)
                else:
                    stack = self._stack()
                    frame = [next(self._ids), 0.0, name]
                    parent = stack[-1] if stack else None
                    stack.append(frame)
                    t0 = _clock()
                    try:
                        result = func(*args, **kwargs)
                    finally:
                        t1 = _clock()
                        stack.pop()
                        self._record(name, name_id, frame, parent, t0, t1)
                if after is not None:
                    after(result, *args, **kwargs)
                return result

            return wrapper

        self.swap(owner, attr, make)

    def _record(
        self,
        name: str,
        name_id: int,
        frame: list[Any],
        parent: list[Any] | None,
        t0: float,
        t1: float,
    ) -> None:
        duration = t1 - t0
        with self._lock:
            if parent is not None:
                parent[1] += duration
            self.span_id.append(frame[0])
            self.parent_id.append(parent[0] if parent is not None else 0)
            self.name_id.append(name_id)
            self.start.append(t0)
            self.end.append(t1)
            self.calls[name] += 1
            self.busy[name] += duration
            self.self_time[name] += duration - frame[1]
            if parent is None:
                self.root_busy += duration

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def gauge_max(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = max(value, self.gauges.get(name, value))

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        with self._lock:
            return {
                "calls": dict(self.calls),
                "busy_s": dict(self.busy),
                "self_s": dict(self.self_time),
                "root_busy_s": self.root_busy,
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "spans": len(self.span_id),
            }

    def dump(self, path: str | os.PathLike[str]) -> None:
        """Write the spans (binary columns) and the summary (JSON)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            with open(path.with_suffix(".spans"), "wb") as out:
                for column in (self.span_id, self.parent_id, self.name_id, self.start, self.end):
                    column.tofile(out)
        payload = self.summary()
        payload["names"] = list(self._names)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)


# ----------------------------------------------------------------------
# Layer installers: which public callables each layer is traced through
# ----------------------------------------------------------------------

def install_kernels_and_core(tracer: Tracer) -> None:
    """``kernels`` (native backend) and ``core`` (``UnknownNQuantiles``)."""
    from repro.core.framework import CollapseEngine
    from repro.core.unknown_n import UnknownNQuantiles
    from repro.kernels.native_backend import NativeBackend, NativeMergedView

    def offered(_result: Any, est: Any, values: Any, **_kw: Any) -> None:
        tracer.count("core.offered", len(values))
        tracer.gauge_max("core.sampling_rate", est.sampling_rate)

    def deposited(_result: Any, _self: Any, values: Any, *_rest: Any, **_kw: Any) -> None:
        # Only sample buffers an update_batch deposits, not merge inputs.
        stack = tracer._stack()
        if stack and stack[-1][2] == "core.update_batch":
            tracer.count("core.deposited", len(values))

    tracer.wrap(UnknownNQuantiles, "update_batch", "core.update_batch", after=offered)
    tracer.wrap(UnknownNQuantiles, "query_many", "core.query_many")
    tracer.wrap(CollapseEngine, "deposit", None, after=deposited)
    tracer.wrap(NativeBackend, "as_batch", "kernels.as_batch")
    tracer.wrap(NativeBackend, "sort_values", "kernels.sort_values")
    # The native ingest path sorts a deposited buffer in place while
    # writing it into the arena, not through sort_values.
    tracer.wrap(NativeBackend, "write_slot", "kernels.write_slot")
    tracer.wrap(NativeBackend, "batch_contains_nan", "kernels.batch_contains_nan")
    tracer.wrap(NativeBackend, "block_representatives", "kernels.block_representatives")
    tracer.wrap(NativeBackend, "select_collapse", "kernels.select_collapse")
    # Both ways the query side builds its flattened view count as one layer.
    tracer.wrap(NativeBackend, "merged_view", "kernels.merged_view")
    tracer.wrap(NativeBackend, "merge_views", "kernels.merged_view")
    tracer.wrap(NativeMergedView, "select_many", "kernels.select_many")


def install_persist(tracer: Tracer, module: Any) -> None:
    """Rotating checkpoint I/O, as ``module`` binds it."""

    def saved(_result: Any, _obj: Any, path: Any, *_rest: Any, **_kw: Any) -> None:
        tracer.count("persist.save_checkpoint_rotating.bytes", os.path.getsize(path))

    tracer.wrap(module, "save_checkpoint_rotating", "persist.save_checkpoint_rotating", after=saved)
    tracer.wrap(module, "load_checkpoint_rotating", "persist.load_checkpoint_rotating")


def install_service(tracer: Tracer) -> None:
    """Every layer of the single-process server, as ``server`` binds it."""
    from repro.service import server, tenants
    from repro.service.admission import AdmissionController, Overloaded
    from repro.service.metrics import MetricRegistry

    install_kernels_and_core(tracer)
    install_persist(tracer, tenants)

    def parsed(_result: Any, raw: bytes) -> None:
        tracer.count("service.protocol.parse_line.bytes", len(raw))
        tracer.count("service.requests")

    tracer.wrap(server, "parse_line", "service.protocol.parse_line", after=parsed)
    tracer.wrap(server, "encode_response", "service.protocol.encode_response")
    tracer.wrap(tenants.TenantRegistry, "flush", "service.tenants.flush")
    tracer.wrap(tenants.TenantRegistry, "restore_all", "service.tenants.restore_all")
    for method in ("counter", "gauge", "histogram"):
        tracer.wrap(
            MetricRegistry, method, None,
            after=lambda *_a, **_k: tracer.count("service.server.metric_lookups"),
        )

    def counted_wait_for(wait_for: Callable[..., Any]) -> Callable[..., Any]:
        def counted(*args: Any, **kwargs: Any) -> Any:
            tracer.count("service.server.wait_for")
            return wait_for(*args, **kwargs)

        return counted

    tracer.swap(asyncio, "wait_for", counted_wait_for)

    def counted_admit(admit: Callable[..., None]) -> Callable[..., None]:
        def traced(self: Any) -> None:
            try:
                admit(self)
            except Overloaded:
                tracer.count("service.admission.shed")
                raise
            tracer.count("service.admission.admits")

        return traced

    # Queue wait runs from enqueue to where the tenant worker starts
    # applying the batch: the entry of update_batch on the very list
    # that was enqueued.
    enqueued_at: dict[int, float] = {}

    def timed_enqueue(enqueue: Callable[..., None]) -> Callable[..., None]:
        def traced(self: Any, queue: Any, item: Any, **kwargs: Any) -> None:
            try:
                enqueue(self, queue, item, **kwargs)
            except Overloaded:
                tracer.count("service.admission.shed")
                raise
            enqueued_at[id(item[0])] = _clock()

        return traced

    def dequeued_update(update_batch: Callable[..., None]) -> Callable[..., None]:
        def traced(self: Any, values: Any) -> None:
            queued = enqueued_at.pop(id(values), None)
            if queued is not None:
                tracer.count("service.admission.queue_wait_s", _clock() - queued)
            update_batch(self, values)

        return traced

    from repro.core.unknown_n import UnknownNQuantiles

    tracer.swap(AdmissionController, "admit", counted_admit)
    tracer.swap(AdmissionController, "enqueue", timed_enqueue)
    tracer.swap(UnknownNQuantiles, "update_batch", dequeued_update)


# ----------------------------------------------------------------------
# From a trace summary to the per-layer metrics
# ----------------------------------------------------------------------

#: (metric, summary section, key, unit) for every span-derived metric.
_SPAN_METRICS = [
    ("kernels.block_representatives.calls", "calls", "kernels.block_representatives", "count"),
    ("kernels.block_representatives.busy_s", "busy_s", "kernels.block_representatives", "s"),
    ("kernels.sort_values.busy_s", "busy_s", "kernels.sort_values", "s"),
    ("kernels.write_slot.busy_s", "busy_s", "kernels.write_slot", "s"),
    ("kernels.batch_contains_nan.busy_s", "busy_s", "kernels.batch_contains_nan", "s"),
    ("kernels.select_collapse.calls", "calls", "kernels.select_collapse", "count"),
    ("kernels.select_collapse.busy_s", "busy_s", "kernels.select_collapse", "s"),
    ("kernels.merged_view.busy_s", "busy_s", "kernels.merged_view", "s"),
    ("kernels.select_many.busy_s", "busy_s", "kernels.select_many", "s"),
    ("kernels.as_batch.busy_s", "busy_s", "kernels.as_batch", "s"),
    ("core.update_batch.calls", "calls", "core.update_batch", "count"),
    ("core.update_batch.busy_s", "busy_s", "core.update_batch", "s"),
    ("core.update_batch.self_s", "self_s", "core.update_batch", "s"),
    ("core.query_many.busy_s", "busy_s", "core.query_many", "s"),
    ("core.query_many.self_s", "self_s", "core.query_many", "s"),
    ("service.protocol.parse_line.busy_s", "busy_s", "service.protocol.parse_line", "s"),
    ("service.protocol.parse_line.bytes", "counters", "service.protocol.parse_line.bytes", "B"),
    ("service.protocol.encode_response.busy_s", "busy_s", "service.protocol.encode_response", "s"),
    ("service.admission.admits", "counters", "service.admission.admits", "count"),
    ("service.admission.shed", "counters", "service.admission.shed", "count"),
    ("service.admission.queue_wait_s", "counters", "service.admission.queue_wait_s", "s"),
    ("service.tenants.flush.calls", "calls", "service.tenants.flush", "count"),
    ("service.tenants.flush.busy_s", "busy_s", "service.tenants.flush", "s"),
    ("persist.save_checkpoint_rotating.busy_s", "busy_s", "persist.save_checkpoint_rotating", "s"),
    ("persist.save_checkpoint_rotating.bytes", "counters", "persist.save_checkpoint_rotating.bytes", "B"),
    ("service.tenants.restore_all.busy_s", "busy_s", "service.tenants.restore_all", "s"),
    ("persist.load_checkpoint_rotating.busy_s", "busy_s", "persist.load_checkpoint_rotating", "s"),
]


def merge_summaries(summaries: list[dict[str, Any]]) -> dict[str, Any]:
    """Add up the summaries of several traced processes."""
    merged: dict[str, Any] = {"root_busy_s": 0.0, "spans": 0, "gauges": {}}
    for section in ("calls", "busy_s", "self_s", "counters"):
        merged[section] = defaultdict(float)
    for summary in summaries:
        merged["root_busy_s"] += summary["root_busy_s"]
        merged["spans"] += summary["spans"]
        for section in ("calls", "busy_s", "self_s", "counters"):
            for key, value in summary[section].items():
                merged[section][key] += value
        for key, value in summary.get("gauges", {}).items():
            merged["gauges"][key] = max(value, merged["gauges"].get(key, value))
    return merged


def report_layers(report: Any, summary: dict[str, Any]) -> None:
    """Fill the kernels, core, protocol, admission and persist metrics."""
    for metric, section, key, unit in _SPAN_METRICS:
        report.metric(metric, summary[section].get(key, 0.0), unit)
    counters = summary["counters"]
    offered = counters.get("core.offered", 0.0)
    report.metric(
        "core.kept_ratio",
        counters.get("core.deposited", 0.0) / offered if offered else 0.0,
        "ratio",
    )
    report.metric("core.sampling_rate", summary.get("gauges", {}).get("core.sampling_rate", 0), "count")
