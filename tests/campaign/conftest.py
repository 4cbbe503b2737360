"""Campaign-layer fixtures: tiny engines over a persistent tmp store."""

from __future__ import annotations

import pytest

from repro.campaign import CampaignEngine, ResultStore
from repro.core.design import DesignPoint
from repro.core.factors import FOCAL_POINT
from repro.parallel import MDRunConfig

#: Cheap run configuration every campaign test shares (2 MD steps over
#: the tiny solvated peptide — sub-second per point).
TINY_CONFIG = MDRunConfig(n_steps=2, dt=0.0004)


def tiny_engine(store_root=None, **kw) -> CampaignEngine:
    kw.setdefault("workload", "peptide-tiny")
    kw.setdefault("config", TINY_CONFIG)
    return CampaignEngine(store=ResultStore(store_root), **kw)


def tiny_points(ranks=(1, 2)) -> list[DesignPoint]:
    return [DesignPoint(config=FOCAL_POINT, n_ranks=p) for p in ranks]


@pytest.fixture()
def store_root(tmp_path):
    return tmp_path / "cache"


def run_point(system, positions, point, config, base_seed=2002, **options):
    """One design point on the executor's platform (same derived seed),
    with the caller's :class:`RunOptions` fields — for tests that need the
    whole :class:`ParallelRunResult`, not just the record."""
    from repro.campaign.keys import point_seed
    from repro.parallel import RunOptions, run_parallel_md

    spec = point.config.cluster_spec(point.n_ranks, seed=point_seed(base_seed, point))
    opts = RunOptions.for_point(point, config=config, **options)
    return run_parallel_md(system, positions, spec, opts)


def oracle_store(engine: CampaignEngine, points, sanitize: bool = False) -> ResultStore:
    """``engine``'s campaign with no cache of any kind (``shared_compute=False``):
    what every session-backed store is compared against."""
    from repro.campaign.workloads import build_workload
    from repro.core.responses import ResponseRecord

    system, positions = build_workload(engine.workload)
    store = ResultStore(None)
    for point in points:
        result = run_point(
            system, positions, point, engine.config, engine.base_seed,
            sanitize=sanitize, shared_compute=False,
        )
        store.put(engine.key_for(point), ResponseRecord.from_run(point, result), {})
    return store
