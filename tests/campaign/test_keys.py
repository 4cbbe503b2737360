"""Cache-key canonicalization: stable across processes, sensitive to inputs."""

import subprocess
import sys

from repro.campaign.keys import (
    cache_key,
    point_seed,
    workload_fingerprint,
)
from repro.campaign.workloads import build_workload
from repro.core.design import DesignPoint
from repro.core.factors import FOCAL_POINT
from repro.parallel import MDRunConfig
from repro.parallel.costmodel import PIII_1GHZ

POINT = DesignPoint(config=FOCAL_POINT, n_ranks=4)
CONFIG = MDRunConfig(n_steps=2, dt=0.0004)

_CHILD = """
import sys
from repro.campaign.keys import cache_key, point_seed, workload_fingerprint
from repro.campaign.workloads import build_workload
from repro.core.design import DesignPoint
from repro.core.factors import FOCAL_POINT
from repro.parallel import MDRunConfig
from repro.parallel.costmodel import PIII_1GHZ

system, positions = build_workload("peptide-tiny")
fp = workload_fingerprint(system, positions)
point = DesignPoint(config=FOCAL_POINT, n_ranks=4)
key = cache_key(fp, point, MDRunConfig(n_steps=2, dt=0.0004), PIII_1GHZ, 2002)
print(fp)
print(key)
print(point_seed(2002, point))
"""


def _key_here():
    system, positions = build_workload("peptide-tiny")
    fp = workload_fingerprint(system, positions)
    return fp, cache_key(fp, POINT, CONFIG, PIII_1GHZ, 2002)


class TestCrossProcessStability:
    def test_key_identical_in_a_fresh_process(self):
        """The whole point of content addressing: another process (with a
        different PYTHONHASHSEED) computes the very same address."""
        fp, key = _key_here()
        out = subprocess.run(
            [sys.executable, "-c", _CHILD],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": "12345"},
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        child_fp, child_key, child_seed = out.stdout.split()
        assert child_fp == fp
        assert child_key == key
        assert int(child_seed) == point_seed(2002, POINT)


class TestKeySensitivity:
    def test_same_inputs_same_key(self):
        assert _key_here()[1] == _key_here()[1]

    def test_every_point_coordinate_changes_the_key(self):
        fp, base = _key_here()
        variants = [
            DesignPoint(config=FOCAL_POINT, n_ranks=8),
            DesignPoint(config=FOCAL_POINT, n_ranks=4, replicate=1),
            DesignPoint(config=FOCAL_POINT.with_level("network", "myrinet"), n_ranks=4),
            DesignPoint(config=FOCAL_POINT.with_level("middleware", "cmpi"), n_ranks=4),
            DesignPoint(config=FOCAL_POINT.with_level("cpus_per_node", 2), n_ranks=4),
        ]
        keys = {cache_key(fp, v, CONFIG, PIII_1GHZ, 2002) for v in variants}
        assert base not in keys
        assert len(keys) == len(variants)

    def test_config_and_seed_change_the_key(self):
        fp, base = _key_here()
        assert cache_key(fp, POINT, MDRunConfig(n_steps=4, dt=0.0004), PIII_1GHZ, 2002) != base
        assert cache_key(fp, POINT, CONFIG, PIII_1GHZ, 2003) != base

    def test_workload_fingerprint_sees_the_coordinates(self):
        system, positions = build_workload("peptide-tiny")
        a = workload_fingerprint(system, positions)
        moved = positions.copy()
        moved[0, 0] += 1e-9
        assert workload_fingerprint(system, moved) != a
