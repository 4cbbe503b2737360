"""A finished run frees itself.

``run_parallel_md`` breaks the one reference cycle of a run — the world's
endpoints pointing back at their world — when it returns or raises, so
reference counting frees the world, its queues and its requests at once.
With the cyclic collector off, the world must already be gone.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.campaign.keys import point_seed, workload_fingerprint
from repro.campaign.workloads import build_workload
from repro.cluster import ClusterSpec, tcp_gigabit_ethernet
from repro.core.design import full_factorial
from repro.instrument.commstats import CommTrace
from repro.instrument.metrics import REGISTRY
from repro.mpi import MPIWorld
from repro.mpi.middleware import MPIMiddleware
from repro.parallel import PIII_1GHZ, MDRunConfig, RunOptions, run_parallel_md
from repro.parallel.shared import TrajectorySession
from repro.sim import SimulationError

CFG = MDRunConfig(n_steps=2, dt=0.0004)


@pytest.fixture()
def worlds(monkeypatch):
    """Weak references to every :class:`MPIWorld` built from now on, with
    the cyclic collector off until the test ends."""
    refs = []
    init = MPIWorld.__init__

    def capturing(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(MPIWorld, "__init__", capturing)
    enabled = gc.isenabled()
    gc.disable()
    yield refs
    if enabled:
        gc.enable()


def _assert_freed(refs, n=1):
    assert len(refs) == n
    assert [ref() for ref in refs] == [None] * n


def _spec(p=2):
    return ClusterSpec(n_ranks=p, network=tcp_gigabit_ethernet(), seed=3)


class _Deadlocking(MPIMiddleware):
    """Rank 0 waits for a message no rank ever sends."""

    def allreduce(self, ep, array, op=np.add):
        if ep.rank == 0:
            yield from ep.recv(1, tag=99)
        result = yield from super().allreduce(ep, array, op)
        return result


def test_a_bare_run(worlds, peptide_system):
    run_parallel_md(*peptide_system, _spec(), RunOptions(config=CFG))
    _assert_freed(worlds)


def test_a_recording_and_a_replaying_session_run(worlds):
    system, positions = build_workload("peptide-tiny")
    session = TrajectorySession(workload_fingerprint(system, positions))
    variants = [p for p in full_factorial() if p.n_ranks == 2 and p.config.middleware == "cmpi"]
    before = REGISTRY.snapshot()
    for point in variants[:2]:  # the first records, the second replays
        spec = point.config.cluster_spec(point.n_ranks, seed=point_seed(2002, point))
        shared = session.cache_for(point, CFG, system, PIII_1GHZ)
        run_parallel_md(
            system, positions, spec, RunOptions.for_point(point, config=CFG, shared_compute=shared)
        )
    counters = REGISTRY.delta(before)["counters"]
    assert counters["exec.opstream_recorded"]["total"] == 1
    assert counters["exec.opstream_replayed"]["total"] == 1
    _assert_freed(worlds, 2)


def test_a_sanitized_traced_run(worlds, peptide_system):
    trace = CommTrace()
    result = run_parallel_md(
        *peptide_system, _spec(), RunOptions(config=CFG, sanitize=True, trace=trace)
    )
    assert trace.by_kind("send") and result.extra["comm_trace"] is trace
    _assert_freed(worlds)


def test_a_spatial_run(worlds):
    system, positions = build_workload("water-box")
    run_parallel_md(system, positions, _spec(4), RunOptions(config=CFG, strategy="spatial"))
    _assert_freed(worlds)


def test_a_run_that_raises(worlds, peptide_system):
    with pytest.raises(SimulationError, match="deadlock"):
        run_parallel_md(
            *peptide_system, _spec(), RunOptions(middleware=_Deadlocking(), config=CFG)
        )
    _assert_freed(worlds)
