"""Pin every built workload bit for bit.

A builder may get faster, never different: the campaign engine hashes the
built arrays into its cache keys and every pinned table was measured on
these systems.  The fingerprint covers the coordinates and everything the
topology hands the kernels.
"""

import hashlib

import numpy as np
import pytest

from repro.campaign.workloads import build_workload
from repro.md.topology import Topology


def fingerprint(topology: Topology, positions: np.ndarray) -> str:
    """sha256 over positions, the four term tables, charges, masses,
    type names and residue indices."""
    h = hashlib.sha256()
    for arr in (
        np.ascontiguousarray(positions, dtype=np.float64),
        topology.bond_index_array(),
        topology.angle_index_array(),
        topology.dihedral_index_array(),
        topology.improper_index_array(),
        topology.charges,
        topology.masses,
        np.array([a.residue_index for a in topology.atoms], dtype=np.int64),
    ):
        h.update(arr.tobytes())
    h.update("\0".join(topology.type_names).encode())
    return h.hexdigest()


PINNED = {
    "myoglobin-pme": "4f4433c9cf21c0e7786a6b841d1dde9ba166d2015e5937d41a682aecc48fbd32",
    "peptide-tiny": "8675ba113e453c012c488ae3035ee2354bb9593889ebce1c9fa14001c3714d9d",
    "water-box": "c5344cfd64137946647b19adb875f38d2335cad352d72089c102164f9b7045b6",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_built_workload_is_pinned(name):
    system, positions = build_workload(name)
    assert fingerprint(system.topology, positions) == PINNED[name]
