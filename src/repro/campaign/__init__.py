"""Campaign engine: persistent, parallel, resumable design-point sweeps.

The paper's characterization is a full factorial sweep whose points are
independent — the classic embarrassingly-parallel shape.  This package
owns the execution of such sweeps end to end:

* :mod:`repro.campaign.keys` — canonical content-addressed cache keys
  over (workload fingerprint, design point, run config, cost model,
  schema version);
* :mod:`repro.campaign.store` — the persistent JSON-lines result store
  under ``.repro-cache/`` with atomic writes and corruption-tolerant
  loading;
* :mod:`repro.campaign.engine` — the one executor (``execute_point``)
  and the one dispatch loop (inline, or a ``multiprocessing`` fan-out
  with per-point timeout and bounded retry); completed records stream
  back into the store, so a killed campaign resumes where it stopped;
* :mod:`repro.campaign.runner` — :class:`CharacterizationRunner`, the
  same executor and store over an in-memory workload (figure drivers);
* :mod:`repro.campaign.manifest` — campaign provenance and per-point
  status, as a machine-readable JSON manifest and a live progress line;
* :mod:`repro.campaign.workloads` — named, rebuild-anywhere workload
  registry so worker processes receive names, not pickled systems;
* :mod:`repro.campaign.board` — the abstract :class:`Board` protocol
  every coordination backend implements, plus the ``--board`` URL
  factory :func:`board_from_url`;
* :mod:`repro.campaign.leases` — the worker-pull file lease board one
  ``serve`` host publishes and any number of hosts claim from, with
  expiry-based reclamation of crashed workers' points;
* :mod:`repro.campaign.coordinator` — the same lease semantics served
  by an asyncio HTTP coordinator (``repro campaign coordinator``) for
  workers that share no filesystem, with live ``status`` / ``metrics``
  / ``leases`` / ``runlog`` endpoints;
* :mod:`repro.campaign.federation` — publish / work / merge across
  hosts, ending in one store bit-identical to a single-host run;
* :mod:`repro.campaign.analytics` — post-hoc map-reduce over a warm
  store: comm-breakdown reports (the paper's tables regenerated from
  records alone), drift/conservation checks and coverage audits —
  byte-identical output regardless of shard layout, zero force
  evaluations.

CLI: ``python -m repro campaign
run|status|gc|analyze|verify|serve|work|merge|coordinator``.
"""

from .analytics import AnalysisError, run_analysis
from .board import Board, board_from_url
from .coordinator import CoordinatorServer, CoordinatorThread, HttpBoardClient
from .dashboard import dashboard, dashboard_data, report_link
from .engine import CampaignEngine, CampaignResult, execute_point, point_trace_path
from .federation import (
    LeaseKeyMismatchError,
    merge_into_store,
    publish_campaign,
    verify_stores_match,
    work_campaign,
)
from .keys import (
    SCHEMA_VERSION,
    cache_key,
    config_fingerprint,
    cost_fingerprint,
    point_seed,
    workload_fingerprint,
)
from .leases import Lease, LeaseBoard, LeaseBoardError
from .manifest import CampaignManifest, PointStatus, progress_line
from .runner import CharacterizationRunner
from .store import (
    ResultStore,
    StoreConflictError,
    StoreEntry,
    record_digest,
    shared_memory_store,
)
from .workloads import build_workload, workload_names

__all__ = [
    "AnalysisError",
    "Board",
    "board_from_url",
    "build_workload",
    "cache_key",
    "CampaignEngine",
    "CampaignManifest",
    "CampaignResult",
    "CharacterizationRunner",
    "config_fingerprint",
    "CoordinatorServer",
    "CoordinatorThread",
    "cost_fingerprint",
    "dashboard",
    "dashboard_data",
    "execute_point",
    "HttpBoardClient",
    "point_trace_path",
    "Lease",
    "LeaseBoard",
    "LeaseBoardError",
    "LeaseKeyMismatchError",
    "merge_into_store",
    "point_seed",
    "PointStatus",
    "progress_line",
    "publish_campaign",
    "record_digest",
    "report_link",
    "ResultStore",
    "run_analysis",
    "SCHEMA_VERSION",
    "shared_memory_store",
    "StoreConflictError",
    "StoreEntry",
    "verify_stores_match",
    "work_campaign",
    "workload_fingerprint",
    "workload_names",
]
