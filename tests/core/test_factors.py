"""Factor space: levels, validation, configuration materialization."""

import pytest

from repro.core import FOCAL_POINT, PAPER_FACTOR_SPACE, Factor, FactorSpace, PlatformConfig


class TestFactor:

    def test_needs_two_levels(self):
        with pytest.raises(ValueError):
            Factor("x", ("only",))

    def test_no_duplicates(self):
        with pytest.raises(ValueError):
            Factor("x", ("a", "a"))


class TestPlatformConfig:
    def test_focal_point_is_the_papers(self):
        assert FOCAL_POINT.network == "tcp-gige"
        assert FOCAL_POINT.middleware == "mpi"
        assert FOCAL_POINT.cpus_per_node == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            PlatformConfig(network="infiniband")
        with pytest.raises(ValueError):
            PlatformConfig(middleware="pvm")
        with pytest.raises(ValueError):
            PlatformConfig(cpus_per_node=3)

    def test_with_level(self):
        cfg = FOCAL_POINT.with_level("network", "myrinet")
        assert cfg.network == "myrinet"
        assert cfg.middleware == "mpi"
        cfg2 = FOCAL_POINT.with_level("cpus_per_node", 2)
        assert cfg2.cpus_per_node == 2
        with pytest.raises(ValueError):
            FOCAL_POINT.with_level("compiler", "gcc")

    def test_cluster_spec_materialization(self):
        spec = FOCAL_POINT.cluster_spec(8)
        assert spec.n_ranks == 8
        assert spec.network.name == "tcp-gige"
        assert spec.n_nodes == 8

    def test_dual_spec(self):
        spec = FOCAL_POINT.with_level("cpus_per_node", 2).cluster_spec(8)
        assert spec.n_nodes == 4

    def test_label(self):
        assert FOCAL_POINT.label() == "tcp-gige/mpi/uni"
        assert (
            FOCAL_POINT.with_level("cpus_per_node", 2).label() == "tcp-gige/mpi/dual"
        )

    def test_fast_ethernet_extension_level(self):
        cfg = PlatformConfig(network="tcp-fast-ethernet")
        assert cfg.cluster_spec(2).network.name == "tcp-fast-ethernet"


class TestFactorSpace:
    def test_paper_space_is_twelve_points(self):
        assert len(list(PAPER_FACTOR_SPACE.points())) == 12

    def test_points_unique(self):
        pts = list(PAPER_FACTOR_SPACE.points())
        assert len(set(pts)) == 12

    def test_duplicate_factor_names_rejected(self):
        with pytest.raises(ValueError):
            FactorSpace(factors=(Factor("a", (1, 2)), Factor("a", (3, 4))))
