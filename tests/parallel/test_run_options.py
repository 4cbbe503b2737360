"""The RunOptions surface: one options object, no keyword back door."""

import dataclasses

import numpy as np
import pytest

from repro.cluster import ClusterSpec, tcp_gigabit_ethernet
from repro.core.design import DesignPoint
from repro.core.factors import FOCAL_POINT
from repro.parallel import MDRunConfig, RunOptions, run_parallel_md

CFG = MDRunConfig(n_steps=2, dt=0.0004)


def _spec(p=2):
    return ClusterSpec(n_ranks=p, network=tcp_gigabit_ethernet(), seed=11)


class TestRemovedKeywordForm:
    """The deprecated pre-RunOptions keyword surface is gone: TypeError."""

    def test_legacy_kwargs_rejected(self, peptide_system):
        system, pos = peptide_system
        with pytest.raises(TypeError, match="unexpected keyword"):
            run_parallel_md(system, pos, _spec(), middleware="cmpi", config=CFG)

    def test_legacy_positional_middleware_rejected(self, peptide_system):
        system, pos = peptide_system
        with pytest.raises(TypeError, match="RunOptions"):
            run_parallel_md(system, pos, _spec(), "cmpi")

    def test_legacy_middleware_instance_rejected(self, peptide_system):
        from repro.parallel.run import make_middleware

        system, pos = peptide_system
        with pytest.raises(TypeError, match="RunOptions"):
            run_parallel_md(system, pos, _spec(), make_middleware("mpi"))

    def test_non_options_value_rejected(self, peptide_system):
        system, pos = peptide_system
        with pytest.raises(TypeError, match="RunOptions"):
            run_parallel_md(system, pos, _spec(), {"middleware": "mpi"})


class TestRunOptions:
    def test_field_set_is_pinned(self):
        """The whole knob surface: adding or removing one is a deliberate act."""
        assert [f.name for f in dataclasses.fields(RunOptions)] == [
            "middleware", "config", "cost", "sanitize", "trace", "span_tracer",
            "shared_compute", "strategy", "spatial_grid",
        ]

    @pytest.mark.parametrize("name, value", [("exec_workers", 2), ("kernel", "numba")])
    def test_removed_execution_knobs_rejected(self, name, value):
        with pytest.raises(TypeError, match="unexpected keyword"):
            RunOptions(**{name: value})

    def test_frozen(self):
        with pytest.raises(Exception):
            RunOptions().middleware = "cmpi"  # type: ignore[misc]

    def test_replace(self):
        base = RunOptions(config=CFG)
        sanitized = base.replace(sanitize=True)
        assert sanitized.sanitize and not base.sanitize
        assert sanitized.config is CFG

    def test_for_point_takes_middleware_from_the_point(self):
        point = DesignPoint(config=FOCAL_POINT, n_ranks=4)
        opts = RunOptions.for_point(point, config=CFG, sanitize=True)
        assert opts.middleware == FOCAL_POINT.middleware
        assert opts.config is CFG
        assert opts.sanitize

    def test_default_options_is_default_run(self, peptide_system):
        """options=None and RunOptions() are the same run."""
        system, pos = peptide_system
        a = run_parallel_md(system, pos, _spec(), RunOptions(config=CFG))
        b = run_parallel_md(system, pos, _spec(), RunOptions(config=CFG).replace())
        assert np.array_equal(a.final_positions, b.final_positions)
