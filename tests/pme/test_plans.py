"""FFT plan / work-array cache: buffer reuse keyed by (tag, shape, dtype)."""

import numpy as np

from repro.cluster import ClusterSpec, tcp_gigabit_ethernet
from repro.parallel import MDRunConfig, RunOptions, run_parallel_md
from repro.pme.plans import PLAN_CACHE_HITS, PlanCache


class TestPlanCache:
    def test_same_shape_reuses_the_buffer(self):
        cache = PlanCache()
        a = cache.buffer("t", (8, 3))
        b = cache.buffer("t", (8, 3))
        assert a is b
        assert len(cache) == 1

    def test_shape_change_replaces_not_accumulates(self):
        cache = PlanCache()
        a = cache.buffer("t", (8, 3))
        b = cache.buffer("t", (9, 3))
        assert a is not b and len(cache) == 1

    def test_dtype_is_part_of_the_key(self):
        cache = PlanCache()
        a = cache.buffer("t", (4,))
        c = cache.complex_buffer("t", (4,))
        assert a.dtype == np.float64 and c.dtype == np.complex128
        assert len(cache) == 2

    def test_pme_run_hits_the_cache_after_step_one(self, peptide_system):
        system, pos = peptide_system
        spec = ClusterSpec(n_ranks=2, network=tcp_gigabit_ethernet(), seed=11)
        before = PLAN_CACHE_HITS.snapshot()
        run_parallel_md(
            system, pos, spec, RunOptions(config=MDRunConfig(n_steps=2, dt=0.0004))
        )
        assert PLAN_CACHE_HITS.delta(before) > 0
