"""Operational metrics for the serving tier, in the Twitter-commons mould.

``MetricRegistry`` is the single place the server records what it is
doing: monotonically increasing counters (requests, sheds, errors),
point-in-time gauges (queue depths, breaker states, recovery time), and
bounded histograms for latency percentiles.  Everything is exposed two
ways — a plain dict for the JSON ``metrics`` op and a text rendering
(``name{label="value"} number`` lines, one per sample) for the
``/metrics`` HTTP endpoint, so a scraper needs no client library.

The registry is deliberately dependency-free and single-threaded: the
asyncio event loop is the only writer, so there is no locking, and a
histogram is a fixed ring of the last ``window`` observations — O(1)
per record, O(window log window) per percentile read, bounded memory no
matter how long the process lives.
"""

from __future__ import annotations

import operator
from collections import deque
from collections.abc import Callable
from typing import Any

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "merge_metric_payloads",
    "render_payload_text",
]

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> _LabelKey:
    return tuple(sorted(labels.items()))


def _render_name(name: str, key: _LabelKey) -> str:
    if not key:
        return name
    inner = ",".join(f'{label}="{value}"' for label, value in key)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0: counters only go up)."""
        if amount < 0:
            raise ValueError(f"counters only increase, got {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value, settable to anything numeric."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Percentiles over a bounded window of the latest observations.

    Keeps the last ``window`` recorded values in a ring; ``percentile``
    sorts on demand.  ``count`` and ``sum`` cover the full lifetime, so
    rate math stays correct even as old samples fall out of the ring.
    """

    __slots__ = ("_ring", "count", "sum")

    def __init__(self, window: int = 2048) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._ring: deque[float] = deque(maxlen=window)
        self.count = 0
        self.sum = 0.0

    def record(self, value: float) -> None:
        value = float(value)
        self._ring.append(value)
        self.count += 1
        self.sum += value

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0 <= q <= 1) of the current window."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"percentile must be in [0, 1], got {q}")
        if not self._ring:
            return 0.0
        ordered = sorted(self._ring)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def snapshot(self) -> dict[str, float]:
        """The summary the registry exports for this histogram."""
        return {
            "count": float(self.count),
            "sum": self.sum,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class MetricRegistry:
    """Named, optionally labelled counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._counters: dict[tuple[str, _LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, _LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, _LabelKey], Histogram] = {}

    def counter(self, name: str, **labels: str) -> Counter:
        """The counter for ``name`` + labels, created on first use."""
        key = (name, _label_key(labels))
        found = self._counters.get(key)
        if found is None:
            found = self._counters[key] = Counter()
        return found

    def gauge(self, name: str, **labels: str) -> Gauge:
        """The gauge for ``name`` + labels, created on first use."""
        key = (name, _label_key(labels))
        found = self._gauges.get(key)
        if found is None:
            found = self._gauges[key] = Gauge()
        return found

    def histogram(self, name: str, window: int = 2048, **labels: str) -> Histogram:
        """The histogram for ``name`` + labels, created on first use."""
        key = (name, _label_key(labels))
        found = self._histograms.get(key)
        if found is None:
            found = self._histograms[key] = Histogram(window)
        return found

    def to_dict(self) -> dict[str, Any]:
        """Every sample, as plain data for the JSON ``metrics`` op."""
        return {
            "counters": {
                _render_name(name, key): counter.value
                for (name, key), counter in sorted(self._counters.items())
            },
            "gauges": {
                _render_name(name, key): gauge.value
                for (name, key), gauge in sorted(self._gauges.items())
            },
            "histograms": {
                _render_name(name, key): histogram.snapshot()
                for (name, key), histogram in sorted(self._histograms.items())
            },
        }

    def render_text(self) -> str:
        """The scrape format: one ``name{labels} value`` line per sample."""
        lines: list[str] = []
        for (name, key), counter in sorted(self._counters.items()):
            lines.append(f"{_render_name(name, key)} {counter.value}")
        for (name, key), gauge in sorted(self._gauges.items()):
            lines.append(f"{_render_name(name, key)} {gauge.value:g}")
        for (name, key), histogram in sorted(self._histograms.items()):
            for stat, value in histogram.snapshot().items():
                stat_key = key + (("stat", stat),)
                lines.append(f"{_render_name(name, stat_key)} {value:g}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Cross-worker aggregation
# ----------------------------------------------------------------------
#
# In the multi-process layout every worker owns its own registry; the
# worker answering a ``/metrics`` scrape collects each peer's
# ``to_dict()`` payload and merges them here.  Counters sum across
# workers (sheds, requests are additive over disjoint shards); gauges
# combine per name through ``_GAUGE_MERGE``; histogram *percentiles*
# cannot be merged honestly from summaries, so each worker's histogram
# rides through re-labelled with ``worker="N"`` instead of pretending a
# merged p99 exists.

#: How each gauge the server sets combines across workers.  Workers
#: recover concurrently, so the fleet's recovery time is the slowest
#: worker's, not the total; tenant counts and open breakers are disjoint
#: per shard and add up.  An unlisted gauge sums.
_GAUGE_MERGE: dict[str, Callable[[float, float], float]] = {
    "recovery_ms": max,
    "tenants_restored": operator.add,
    "tenants_fallback_generation": operator.add,
    "breaker_open": operator.add,
}

def _relabel(rendered: str, worker: int) -> str:
    label = f'worker="{worker}"'
    if rendered.endswith("}"):
        return f"{rendered[:-1]},{label}}}"
    return f"{rendered}{{{label}}}"


def merge_metric_payloads(
    payloads: dict[int, dict[str, Any]]
) -> dict[str, Any]:
    """One aggregate payload from per-worker ``to_dict()`` payloads.

    ``payloads`` maps worker shard index to that worker's payload.
    Counters with the same rendered name sum; gauges combine by their
    name's entry in ``_GAUGE_MERGE`` (``recovery_ms`` takes the maximum);
    histograms are kept per-worker under a ``worker="N"`` label.
    """
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict[str, float]] = {}
    for worker in sorted(payloads):
        payload = payloads[worker]
        for rendered, value in payload.get("counters", {}).items():
            counters[rendered] = counters.get(rendered, 0) + int(value)
        for rendered, value in payload.get("gauges", {}).items():
            value = float(value)
            if rendered in gauges:
                combine = _GAUGE_MERGE.get(rendered.partition("{")[0], operator.add)
                value = combine(gauges[rendered], value)
            gauges[rendered] = value
        for rendered, stats in payload.get("histograms", {}).items():
            histograms[_relabel(rendered, worker)] = dict(stats)
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
        "workers": sorted(payloads),
    }


def render_payload_text(payload: dict[str, Any]) -> str:
    """The scrape text rendering of a (possibly merged) payload dict."""
    lines: list[str] = []
    for rendered, count in sorted(payload.get("counters", {}).items()):
        lines.append(f"{rendered} {count}")
    for rendered, value in sorted(payload.get("gauges", {}).items()):
        lines.append(f"{rendered} {value:g}")
    for rendered, stats in sorted(payload.get("histograms", {}).items()):
        for stat, value in stats.items():
            lines.append(f"{_relabel_stat(rendered, stat)} {value:g}")
    return "\n".join(lines) + "\n"


def _relabel_stat(rendered: str, stat: str) -> str:
    label = f'stat="{stat}"'
    if rendered.endswith("}"):
        return f"{rendered[:-1]},{label}}}"
    return f"{rendered}{{{label}}}"
