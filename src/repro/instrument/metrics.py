"""Metrics registry: counters, gauges and histograms with snapshot/delta.

One :class:`MetricsRegistry` replaces the ad-hoc module-global event
counters: every piece of the system that counts work — MD kernels,
neighbour-list builds, campaign attempts/retries/timeouts, store cache
hits, lease reclaims, analyzer telemetry — registers a named instrument
here and increments it.  The registry is *passive* observability: it
never charges virtual time, never draws random numbers, and its values
never feed back into execution, so instrumented runs stay bit-identical
to uninstrumented ones.

Three instrument kinds:

* :class:`Counter` — monotonic event count, optionally split by labels
  (``counter.increment(tag="send")``), with ``snapshot``/``delta`` for
  before/after assertions.
* :class:`Gauge` — a last-written value (queue depths, board sizes).
* :class:`Histogram` — streaming count/sum/min/max of observations
  (per-point wall seconds, per-run communication speeds).

Snapshots are plain JSON documents (:meth:`MetricsRegistry.snapshot`),
subtractable (:meth:`MetricsRegistry.delta`) so a caller can report only
what happened during its own window, and mergeable
(:func:`merge_metrics`) so federated workers' snapshots fold into one
campaign-wide view in the merge manifest.
"""

from __future__ import annotations

import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "merge_metrics",
]


def _label_key(labels: dict) -> str:
    """Canonical string form of one label set (sorted ``k=v`` pairs)."""
    return ",".join(f"{k}={labels[k]}" for k in sorted(labels))


#: Counters are incremented from more than one thread (the embedded
#: coordinator serves requests beside the driving thread); a single
#: shared lock keeps ``count += n`` from losing updates.  One
#: uncontended acquire per increment is noise next to the work counted.
_COUNTER_LOCK = threading.Lock()


class Counter:
    """A named monotonic event count with snapshot/delta support.

    ``increment`` accepts optional labels; the total is always kept in
    addition to the per-label split, so label-free callers pay one dict
    lookup and nothing more.
    """

    __slots__ = ("name", "count", "labels")

    def __init__(self, name: str, count: int = 0) -> None:
        self.name = name
        self.count = count
        self.labels: dict[str, int] = {}

    def increment(self, n: int = 1, **labels) -> None:
        with _COUNTER_LOCK:
            self.count += n
            if labels:
                key = _label_key(labels)
                self.labels[key] = self.labels.get(key, 0) + n

    def reset(self) -> None:
        self.count = 0
        self.labels.clear()

    def snapshot(self) -> int:
        return self.count

    def delta(self, since: int) -> int:
        return self.count - since

    def __repr__(self) -> str:
        return f"Counter(name={self.name!r}, count={self.count!r})"


class Gauge:
    """A named last-written value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0.0) -> None:
        self.name = name
        self.value = value

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Streaming count/sum/min/max of observed values."""

    __slots__ = ("name", "count", "total", "minimum", "maximum")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_doc(self) -> dict:
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
        }


class MetricsRegistry:
    """Named instruments plus snapshot/delta/merge plumbing."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- get-or-create ---------------------------------------------------
    def counter(self, name: str) -> Counter:
        try:
            return self.counters[name]
        except KeyError:
            c = self.counters.setdefault(name, Counter(name))
            return c

    def gauge(self, name: str) -> Gauge:
        try:
            return self.gauges[name]
        except KeyError:
            return self.gauges.setdefault(name, Gauge(name))

    def histogram(self, name: str) -> Histogram:
        try:
            return self.histograms[name]
        except KeyError:
            return self.histograms.setdefault(name, Histogram(name))

    def reset(self) -> None:
        for c in self.counters.values():
            c.reset()
        self.gauges.clear()
        self.histograms.clear()

    # -- snapshots ---------------------------------------------------------
    def snapshot(self) -> dict:
        """The whole registry as one JSON-serializable document."""
        return {
            "counters": {
                name: {"total": c.count, "labels": dict(c.labels)}
                for name, c in self.counters.items()
            },
            "gauges": {name: g.value for name, g in self.gauges.items()},
            "histograms": {
                name: h.to_doc() for name, h in self.histograms.items()
            },
        }

    def delta(self, since: dict) -> dict:
        """What happened after ``since`` (an earlier :meth:`snapshot`).

        Counters and histogram count/sum subtract; instruments whose
        delta is zero are dropped, so the result reads as "what this
        window did".  Histogram min/max cannot be un-merged, so the delta
        carries the current extrema (a superset of the window's).
        """
        now = self.snapshot()
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        before_counters = since.get("counters", {})
        for name, doc in now["counters"].items():
            base = before_counters.get(name, {"total": 0, "labels": {}})
            total = doc["total"] - base.get("total", 0)
            labels = {
                k: v - base.get("labels", {}).get(k, 0)
                for k, v in doc["labels"].items()
                if v - base.get("labels", {}).get(k, 0)
            }
            if total or labels:
                out["counters"][name] = {"total": total, "labels": labels}
        before_hists = since.get("histograms", {})
        for name, doc in now["histograms"].items():
            base = before_hists.get(name, {"count": 0, "sum": 0.0})
            count = doc["count"] - base.get("count", 0)
            if count:
                out["histograms"][name] = {
                    "count": count,
                    "sum": doc["sum"] - base.get("sum", 0.0),
                    "min": doc["min"],
                    "max": doc["max"],
                }
        # gauges are last-written values; report the ones that exist now
        out["gauges"] = dict(now["gauges"])
        return out


def merge_metrics(*docs: dict) -> dict:
    """Fold several snapshot/delta documents into one.

    Counters and histogram count/sum add; histogram extrema widen;
    gauges keep the largest magnitude seen (merged gauges answer "how
    big did this get anywhere").  Used when federated workers' metrics
    files fold into one campaign manifest.
    """
    out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for doc in docs:
        for name, c in doc.get("counters", {}).items():
            dst = out["counters"].setdefault(name, {"total": 0, "labels": {}})
            dst["total"] += c.get("total", 0)
            for k, v in c.get("labels", {}).items():
                dst["labels"][k] = dst["labels"].get(k, 0) + v
        for name, value in doc.get("gauges", {}).items():
            prev = out["gauges"].get(name)
            if prev is None or abs(value) > abs(prev):
                out["gauges"][name] = value
        for name, h in doc.get("histograms", {}).items():
            dst = out["histograms"].get(name)
            if dst is None:
                out["histograms"][name] = dict(h)
            elif h.get("count", 0):
                merged_count = dst["count"] + h["count"]
                dst.update(
                    count=merged_count,
                    sum=dst["sum"] + h["sum"],
                    min=min(dst["min"], h["min"]) if dst["count"] else h["min"],
                    max=max(dst["max"], h["max"]) if dst["count"] else h["max"],
                )
    return out


#: The process-wide default registry.  Module-level instruments (MD work
#: counters, lease telemetry, analyzer telemetry) live here; the campaign
#: engine snapshots it around a run and stores the delta in the manifest.
REGISTRY = MetricsRegistry()
