"""repro — reproduction of Taufer et al., *Performance Characterization of
a Molecular Dynamics Code on PC Clusters* (IPPS 2002).

Public surface
--------------
The names in ``__all__`` are the supported API; import them from the
package root (``from repro import run_parallel_md, RunOptions``) rather
than from the implementing submodules, whose layout may change.  Exports
resolve lazily (PEP 562), so ``import repro`` stays cheap and the CLI
keeps its fast startup.

Subpackages
-----------
``repro.md``          CHARMM-style MD engine (bonded, cutoff non-bonded, Verlet)
``repro.pme``         smooth particle-mesh Ewald + exact Ewald reference
``repro.workloads``   synthetic myoglobin benchmark and smaller systems
``repro.sim``         discrete-event simulation kernel
``repro.cluster``     PC-cluster platform models (networks, nodes, NIC/IRQ)
``repro.mpi``         simulated MPI (real payloads, virtual time)
``repro.cmpi``        CHARMM's portable middleware layer
``repro.parallel``    SPMD rank programs, distributed FFT/PME, cost model
``repro.instrument``  timelines, comm stats, metrics registry, span tracing, run logs
``repro.core``        the characterization method (factors, designs, responses)
``repro.campaign``    content-addressed store, campaign engine, runner, federation
``repro.experiments`` drivers reproducing every figure of the paper
"""

from __future__ import annotations

__version__ = "1.0.0"

#: Public name -> implementing module.  ``from repro import X`` resolves
#: through :func:`__getattr__`, importing the submodule on first use.
_PUBLIC_API = {
    # run one parallel MD job
    "run_parallel_md": "repro.parallel.run",
    "RunOptions": "repro.parallel.run",
    "MDRunConfig": "repro.parallel.pmd",
    "ParallelRunResult": "repro.parallel.result",
    # the characterization method
    "CharacterizationRunner": "repro.campaign.runner",
    "DesignPoint": "repro.core.design",
    "PlatformConfig": "repro.core.factors",
    "ResponseRecord": "repro.core.responses",
    "full_factorial": "repro.core.design",
    "one_factor_at_a_time": "repro.core.design",
    # campaigns: store, engine, federation, boards
    "CampaignEngine": "repro.campaign.engine",
    "ResultStore": "repro.campaign.store",
    "CampaignManifest": "repro.campaign.manifest",
    "merge_into_store": "repro.campaign.federation",
    "work_campaign": "repro.campaign.federation",
    "publish_campaign": "repro.campaign.federation",
    "Board": "repro.campaign.board",
    "board_from_url": "repro.campaign.board",
    "HttpBoardClient": "repro.campaign.coordinator",
    "CoordinatorServer": "repro.campaign.coordinator",
    # observability: spans, metrics, structured logs, dashboard
    "SpanTracer": "repro.instrument.tracing",
    "validate_chrome_trace": "repro.instrument.tracing",
    "MetricsRegistry": "repro.instrument.metrics",
    "REGISTRY": "repro.instrument.metrics",
    "merge_metrics": "repro.instrument.metrics",
    "RunLog": "repro.instrument.runlog",
    "read_runlog": "repro.instrument.runlog",
    "reconstruct_history": "repro.instrument.runlog",
    "register_phase": "repro.instrument.timeline",
    "dashboard": "repro.campaign.dashboard",
    # post-hoc analytics over a warm store
    "run_analysis": "repro.campaign.analytics",
    "AnalysisError": "repro.campaign.analytics",
    # analyzers
    "lint_paths": "repro.analysis",
    # workload builders
    "build_workload": "repro.campaign.workloads",
    "myoglobin_system": "repro.workloads",
    "myoglobin_workload": "repro.workloads",
    "build_peptide_in_water": "repro.workloads",
    "build_water_box": "repro.workloads",
}

__all__ = ["__version__", *sorted(_PUBLIC_API)]


def __getattr__(name: str):
    try:
        module = _PUBLIC_API[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_PUBLIC_API))
