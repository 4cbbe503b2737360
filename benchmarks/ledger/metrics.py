"""What the ledger measures: workloads, metrics, bounds, and how they interact.

This file is the single declaration every other ledger file reads:
``worker.py`` fills the metrics in, ``run.py`` prints them,
``compare.py`` applies the bounds, ``test_ledger.py`` checks that
``BENCHMARK.json`` says the same thing, and the README's tables restate
it for people.  Names are fixed — later issues cite them.
"""

from __future__ import annotations

from dataclasses import dataclass

from spans import LAYERS

__all__ = [
    "END_TO_END",
    "INTERACTIONS",
    "LayerMetric",
    "PER_LAYER",
    "WORKLOADS",
    "benchmark_doc",
]

#: name -> why the workload exists (one line each; the README has the long form)
WORKLOADS: dict[str, str] = {
    "myo_pme_p1": (
        "single-rank myoglobin-PME baseline: kernels and PME numerics dominate, "
        "so a substrate or campaign change must show no change here"
    ),
    "myo_pme_p8": (
        "the paper's focal point, p=8 MPI over TCP: kernels, per-rank PME, "
        "distributed FFT and collectives all matter, so batching or collapsing them pays here"
    ),
    "myo_shift_spatial_p8": (
        "spatial decomposition at p=8: bypasses PME, pfft and the neighbour build, "
        "uses pair_terms and exchange differently, so a replicated-path gain that costs spatial shows"
    ),
    "campaign_peptide_48": (
        "the 48-point factorial on a tiny system through coordinator, worker, merge and report: "
        "substrate, CMPI, SMP/Myrinet paths and the campaign layers dominate"
    ),
}

#: (name, unit, better, bound) — host clock, tracing off.  The bound is
#: the share of the parent's median a metric may worsen by.
END_TO_END: list[tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("op_wall_s_p50", "s", "lower", 0.25),
    ("op_wall_s_p75", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

ALL = tuple(WORKLOADS)

#: layer -> (end-to-end metric it should move, {workload: share of that
#: workload's traced operation time the layer's self time took, measured
#: with this wrapper scheme on the machine that defined the benchmark}).
#: A workload that is absent is one the layer is bypassed on: the binding
#: guard asserts zero calls there, and the prediction is no change.
INTERACTIONS: dict[str, tuple[str, dict[str, str]]] = {
    "parallel.run": ("op_wall_s_p50", {w: "<1 %" for w in ALL}),
    "sim": (
        "op_wall_s_p50",
        {"myo_pme_p1": "5 %", "myo_pme_p8": "10 %", "myo_shift_spatial_p8": "2 %",
         "campaign_peptide_48": "22 % (ops_per_s)"},
    ),
    "mpi": (
        "op_wall_s_p50",
        {"myo_pme_p1": "<1 %", "myo_pme_p8": "10 %", "myo_shift_spatial_p8": "2 %",
         "campaign_peptide_48": "10 % (ops_per_s)"},
    ),
    "cmpi": ("ops_per_s", {"campaign_peptide_48": "24 %"}),
    "md.nonbonded": (
        "op_wall_s_p50",
        {"myo_pme_p1": "64 %", "myo_pme_p8": "40 %", "myo_shift_spatial_p8": "26 %",
         "campaign_peptide_48": "6 %"},
    ),
    "md.neighborlist": (
        "op_wall_s_p50",
        {"myo_pme_p1": "9 %", "myo_pme_p8": "8 %", "campaign_peptide_48": "<1 %"},
    ),
    "md.bonded": (
        "op_wall_s_p50",
        {"myo_pme_p1": "6 %", "myo_pme_p8": "8 %", "myo_shift_spatial_p8": "4 %",
         "campaign_peptide_48": "9 %"},
    ),
    **{
        layer: (
            "op_wall_s_p50",
            {"myo_pme_p1": "pme.grid.* + pfft 16 %", "myo_pme_p8": "pme.grid.* + pfft 25 %",
             "campaign_peptide_48": "pme.grid.* + pfft 20 %"},
        )
        for layer in ("pme.grid.stencil", "pme.grid.spread", "pme.grid.interpolate",
                      "parallel.pfft")
    },
    **{
        layer: ("op_wall_s_p50", {"myo_shift_spatial_p8": share})
        for layer, share in (
            ("parallel.spatial.forces", "58 % (the candidate-pair search)"),
            ("parallel.spatial.halo", "3 %"),
            ("parallel.spatial.ledger", "4 %"),
            ("parallel.spatial.integrate", "<1 %"),
        )
    },
    "campaign.federation": (
        "ops_per_s",
        {"campaign_peptide_48": "5 % (worker loop, HTTP client side, run log, provenance)"},
    ),
    "campaign.leases": ("ops_per_s", {"campaign_peptide_48": "2.5 %"}),
    **{
        layer: ("ops_per_s", {"campaign_peptide_48": "<1 % (also op_wall_s_p75)"})
        for layer in ("campaign.engine", "campaign.keys", "campaign.store.put",
                      "campaign.store.load", "campaign.store.merge", "campaign.analytics")
    },
    "campaign.coordinator": (
        "ops_per_s",
        {"campaign_peptide_48": "2 round-trips of ~1.7 ms against a ~60 ms median point"},
    ),
}


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric and what it is expected to move."""

    name: str
    unit: str
    better: str
    #: ``host`` (wall seconds of this machine), ``virtual`` (simulated
    #: cluster seconds: exact) or ``count`` (exact)
    clock: str
    layer: str

    @property
    def moves(self) -> tuple[str, dict[str, str]]:
        return INTERACTIONS[self.layer]

    @property
    def exact(self) -> bool:
        """Must be bit-identical between two runs of any host-speed change."""
        return self.clock in ("virtual", "count")


def _layer_metrics() -> list[LayerMetric]:
    out: list[LayerMetric] = []

    def add(name, unit, better, clock, layer):
        out.append(LayerMetric(name, unit, better, clock, layer))

    extras = {
        "sim": [("sim.events", "count", "lower", "count"),
                ("sim.us_per_event", "us", "lower", "host")],
        "cmpi": [("mpi.messages", "count", "lower", "count"),
                 ("mpi.bytes", "count", "lower", "count"),
                 ("mpi.collectives", "count", "lower", "count"),
                 ("mpi.us_per_message", "us", "lower", "host")],
        "md.nonbonded": [("md.nonbonded.pairs", "count", "lower", "count"),
                         ("md.nonbonded.ns_per_pair", "ns", "lower", "host")],
        "md.neighborlist": [("md.neighborlist.builds", "count", "lower", "count")],
        "pme.grid.interpolate": [("pme.grid.ns_per_mesh_point", "ns", "lower", "host")],
        "campaign.engine": [("campaign.engine.inline_points_per_s", "1/s", "higher", "host")],
        "campaign.store.merge": [("campaign.store.warm_hit_s", "s", "lower", "host")],
    }
    for layer in LAYERS:
        add(f"{layer}.self_s", "s", "lower", "host", layer)
        add(f"{layer}.calls", "count", "lower", "count", layer)
        for name, unit, better, clock in extras.get(layer, ()):
            add(name, unit, better, clock, layer)
    for verb in ("claim", "heartbeat", "complete"):
        for q in ("p50", "p95"):
            add(f"campaign.coordinator.{verb}.rtt_ms_{q}", "ms", "lower", "host",
                "campaign.coordinator")
    # simulated-cluster statistics: reported and checked, never timed
    for name, unit in (("virtual.total_s", "s"), ("virtual.classic_s", "s"),
                       ("virtual.pme_s", "s"), ("virtual.comm_sync_share", "%")):
        add(name, unit, "lower", "virtual", "parallel.run")
    add("instrument.trace_overhead_ratio", "ratio", "lower", "host", "parallel.run")
    return out


PER_LAYER: list[LayerMetric] = _layer_metrics()


def benchmark_doc(run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` document these declarations imply."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
