"""Work decomposition: partitions are exact, contiguous and balanced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import AtomDecomposition, SlabDecomposition, slice_bonded_tables


class TestAtomDecomposition:
    def test_ranges_partition(self):
        d = AtomDecomposition(10, 3)
        ranges = [d.atom_range(r) for r in range(3)]
        assert ranges == [(0, 4), (4, 7), (7, 10)]

    def test_balance(self):
        d = AtomDecomposition(1000, 7)
        sizes = [hi - lo for lo, hi in (d.atom_range(r) for r in range(7))]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 1000

    def test_validation(self):
        with pytest.raises(ValueError):
            AtomDecomposition(2, 3)
        with pytest.raises(ValueError):
            AtomDecomposition(10, 0)

    def test_pair_blocks_partition_pairs(self):
        rng = np.random.default_rng(0)
        n = 50
        d = AtomDecomposition(n, 4)
        # build a sorted pair list, and its row starts
        raw = rng.integers(0, n, size=(300, 2))
        raw = raw[raw[:, 0] < raw[:, 1]]
        order = np.lexsort((raw[:, 1], raw[:, 0]))
        pairs = raw[order]
        starts = np.searchsorted(pairs[:, 0], np.arange(n + 1))
        cuts = [d.pair_block(starts, r) for r in range(4)]
        # each block is its atoms' row starts slice
        for r, cut in enumerate(cuts):
            lo, hi = d.atom_range(r)
            assert cut == slice(int(starts[lo]), int(starts[hi]))
        # consecutive slices: they cut anything aligned with the rows too
        assert cuts[0].start == 0 and cuts[-1].stop == len(pairs)
        assert all(a.stop == b.start for a, b in zip(cuts, cuts[1:]))
        blocks = [pairs[cut] for cut in cuts]
        for r, block in enumerate(blocks):
            lo, hi = d.atom_range(r)
            assert len(block) > 0
            assert block[:, 0].min() >= lo
            assert block[:, 0].max() < hi

    def test_term_slices_partition(self):
        d = AtomDecomposition(10, 3)
        slices = [d.term_slice(17, r) for r in range(3)]
        covered = []
        for s in slices:
            covered += list(range(s.start, s.stop))
        assert covered == list(range(17))


class TestSlabDecomposition:
    def test_plane_ranges_partition(self):
        d = SlabDecomposition(80, 8)
        total = 0
        next_start = 0
        for r in range(8):
            start, count = d.plane_range(r)
            assert start == next_start
            next_start = start + count
            total += count
        assert total == 80

    def test_uneven_split(self):
        d = SlabDecomposition(10, 3)
        counts = [d.plane_range(r)[1] for r in range(3)]
        assert sorted(counts) == [3, 3, 4]

    def test_split_reassembles(self):
        rng = np.random.default_rng(1)
        arr = rng.normal(size=(10, 4, 3))
        d = SlabDecomposition(10, 3)
        parts = d.split(arr, axis=0)
        assert np.allclose(np.concatenate(parts, axis=0), arr)
        parts_y = SlabDecomposition(4, 2).split(arr, axis=1)
        assert np.allclose(np.concatenate(parts_y, axis=1), arr)

    def test_validation(self):
        with pytest.raises(ValueError):
            SlabDecomposition(4, 8)


class TestBondedSlicing:
    def test_slices_partition_all_terms(self, peptide_system):
        system, _ = peptide_system
        tables = system.bonded_tables
        n_ranks = 4
        d = AtomDecomposition(system.n_atoms, n_ranks)
        sliced = [slice_bonded_tables(tables, d, r) for r in range(n_ranks)]
        assert sum(len(s.bond_idx) for s in sliced) == len(tables.bond_idx)
        assert sum(len(s.angle_idx) for s in sliced) == len(tables.angle_idx)
        assert sum(len(s.dihedral_idx) for s in sliced) == len(tables.dihedral_idx)
        assert sum(len(s.improper_idx) for s in sliced) == len(tables.improper_idx)
        assert sum(s.n_terms for s in sliced) == tables.n_terms

    def test_sliced_energies_sum_to_total(self, peptide_system):
        from repro.md.bonded import bonded_energy_forces

        system, pos = peptide_system
        d = AtomDecomposition(system.n_atoms, 3)
        full_e, full_f = bonded_energy_forces(pos, system.box, system.bonded_tables)
        partial_f = np.zeros_like(full_f)
        sums = {k: 0.0 for k in full_e}
        for r in range(3):
            tables_r = slice_bonded_tables(system.bonded_tables, d, r)
            e, f = bonded_energy_forces(pos, system.box, tables_r)
            partial_f += f
            for k in sums:
                sums[k] += e[k]
        for k in sums:
            assert sums[k] == pytest.approx(full_e[k], abs=1e-10)
        assert np.allclose(partial_f, full_f, atol=1e-10)


@given(n=st.integers(1, 500), p=st.integers(1, 16))
@settings(max_examples=40)
def test_block_bounds_property(n, p):
    if n < p:
        with pytest.raises(ValueError):
            AtomDecomposition(n, p)
        return
    d = AtomDecomposition(n, p)
    bounds = d.bounds
    assert bounds[0] == 0 and bounds[-1] == n
    sizes = np.diff(bounds)
    assert sizes.max() - sizes.min() <= 1
