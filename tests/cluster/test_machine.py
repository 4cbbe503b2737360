"""Cluster topology: placement, node counts, validation."""

import pytest

from repro.cluster import ClusterSpec, NodeSpec, tcp_gigabit_ethernet
from repro.cluster.machine import DUAL_CPU_MEMORY_CONTENTION


class TestNodeSpec:
    def test_defaults(self):
        node = NodeSpec()
        assert node.cpus_per_node == 1
        assert node.cpu_speed == 1.0

    def test_rejects_odd_cpu_counts(self):
        with pytest.raises(ValueError):
            NodeSpec(cpus_per_node=4)
        with pytest.raises(ValueError):
            NodeSpec(cpus_per_node=0)

    def test_rejects_bad_speed(self):
        with pytest.raises(ValueError):
            NodeSpec(cpu_speed=0.0)


class TestClusterSpec:
    def test_uni_processor_placement(self):
        spec = ClusterSpec(n_ranks=4, network=tcp_gigabit_ethernet())
        assert spec.n_nodes == 4
        assert [spec.node_of(r) for r in range(4)] == [0, 1, 2, 3]

    def test_dual_processor_placement(self):
        spec = ClusterSpec(
            n_ranks=8, network=tcp_gigabit_ethernet(), node=NodeSpec(cpus_per_node=2)
        )
        assert spec.n_nodes == 4
        assert [spec.node_of(r) for r in range(8)] == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_odd_rank_count_on_dual(self):
        spec = ClusterSpec(
            n_ranks=5, network=tcp_gigabit_ethernet(), node=NodeSpec(cpus_per_node=2)
        )
        assert spec.n_nodes == 3

    def test_rejects_too_many_nodes(self):
        with pytest.raises(ValueError):
            ClusterSpec(n_ranks=17, network=tcp_gigabit_ethernet())
        # 32 ranks on 16 dual nodes is fine
        ClusterSpec(
            n_ranks=32, network=tcp_gigabit_ethernet(), node=NodeSpec(cpus_per_node=2)
        )

    def test_rejects_zero_ranks(self):
        with pytest.raises(ValueError):
            ClusterSpec(n_ranks=0, network=tcp_gigabit_ethernet())

    def test_node_of_out_of_range(self):
        spec = ClusterSpec(n_ranks=2, network=tcp_gigabit_ethernet())
        with pytest.raises(ValueError):
            spec.node_of(2)

    def test_compute_scale_uni(self):
        spec = ClusterSpec(n_ranks=2, network=tcp_gigabit_ethernet())
        assert spec.compute_scale == 1.0

    def test_compute_scale_dual_contention(self):
        spec = ClusterSpec(
            n_ranks=2, network=tcp_gigabit_ethernet(), node=NodeSpec(cpus_per_node=2)
        )
        assert spec.compute_scale == pytest.approx(DUAL_CPU_MEMORY_CONTENTION)

    def test_compute_scale_fast_cpu(self):
        spec = ClusterSpec(
            n_ranks=2, network=tcp_gigabit_ethernet(), node=NodeSpec(cpu_speed=2.0)
        )
        assert spec.compute_scale == pytest.approx(0.5)

    def test_describe_mentions_shape(self):
        spec = ClusterSpec(n_ranks=4, network=tcp_gigabit_ethernet())
        text = spec.describe()
        assert "4 ranks" in text and "tcp-gige" in text
