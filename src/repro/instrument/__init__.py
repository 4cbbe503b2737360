"""Instrumentation: timelines, communication statistics, metrics, tracing.

The observability layer in one place:

* :mod:`~repro.instrument.timeline` — per-rank virtual-time attribution
  (the paper's comp/comm/sync breakdown);
* :mod:`~repro.instrument.commstats` — communication-rate statistics and
  the raw communication event trace;
* :mod:`~repro.instrument.metrics` — the counters/gauges/histograms
  registry with snapshot/delta/merge (campaign manifests embed these);
* :mod:`~repro.instrument.tracing` — two-clock span tracing exported as
  Chrome trace-event JSON (Perfetto-loadable);
* :mod:`~repro.instrument.runlog` — structured JSONL event logs with
  correlation IDs (campaign → point → attempt → host).

Everything here is passive: enabled or not, energies, trajectories and
virtual timelines are bit-identical, and no instrument ever charges
virtual seconds.
"""

from .commstats import MIN_DATA_BYTES, CommEvent, CommSpeedStats, CommTrace, communication_speeds
from .counters import FORCE_EVALUATIONS, NEIGHBOR_BUILDS
from .metrics import REGISTRY, Counter, Gauge, Histogram, MetricsRegistry, merge_metrics
from .runlog import RunLog, read_runlog, reconstruct_history
from .timeline import KNOWN_PHASES, Category, PhaseTotals, Timeline, register_phase
from .tracing import SpanTracer, validate_chrome_trace

__all__ = [
    "Category",
    "CommEvent",
    "CommSpeedStats",
    "CommTrace",
    "communication_speeds",
    "Counter",
    "FORCE_EVALUATIONS",
    "Gauge",
    "Histogram",
    "KNOWN_PHASES",
    "merge_metrics",
    "MetricsRegistry",
    "MIN_DATA_BYTES",
    "NEIGHBOR_BUILDS",
    "PhaseTotals",
    "read_runlog",
    "reconstruct_history",
    "register_phase",
    "REGISTRY",
    "RunLog",
    "SpanTracer",
    "Timeline",
    "validate_chrome_trace",
]
