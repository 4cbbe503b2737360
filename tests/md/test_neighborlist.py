"""Cell-list neighbour search vs brute force; skin/rebuild behaviour."""

import tracemalloc
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from repro.md import CutoffScheme, NeighborList, PeriodicBox, brute_force_pairs
from repro.md import neighborlist
from repro.md.neighborlist import (
    brute_force_nearest,
    drop_excluded,
    exclusion_codes,
    nearest_distance,
    within_cutoff,
)


def _random_positions(rng, n, box):
    return rng.uniform(0, 1, (n, 3)) * box.lengths


def _rows(nl):
    """The list's ``(m, 2)`` rows ``(i, j)``, expanded from its row
    starts and partner column."""
    i = np.repeat(np.arange(len(nl.starts) - 1), np.diff(nl.starts))
    return np.stack([i, nl.j], axis=1)


class TestBruteForce:
    def test_two_atoms_within(self):
        box = PeriodicBox(10, 10, 10)
        pos = np.array([[1.0, 1.0, 1.0], [2.0, 1.0, 1.0]])
        pairs = brute_force_pairs(pos, box, 2.0)
        assert pairs.tolist() == [[0, 1]]

    def test_periodic_image_pair(self):
        box = PeriodicBox(10, 10, 10)
        pos = np.array([[0.5, 5.0, 5.0], [9.5, 5.0, 5.0]])
        pairs = brute_force_pairs(pos, box, 1.5)
        assert pairs.tolist() == [[0, 1]]

    def test_empty(self):
        box = PeriodicBox(10, 10, 10)
        pos = np.array([[1.0, 1.0, 1.0], [6.0, 6.0, 6.0]])
        assert len(brute_force_pairs(pos, box, 2.0)) == 0


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestNearestDistance:
    """The tree helper is the dense reference, bit for bit."""

    BOX = PeriodicBox(31.0, 17.3, 22.9)

    def test_random_points_and_targets(self):
        rng = np.random.default_rng(3)
        for n_points, n_targets in ((1, 9), (60, 40), (500, 700)):
            points = _random_positions(rng, n_points, self.BOX)
            targets = _random_positions(rng, n_targets, self.BOX)
            assert _same_bits(
                nearest_distance(points, targets, self.BOX),
                brute_force_nearest(points, targets, self.BOX),
            )

    def test_unwrapped_coordinates(self):
        rng = np.random.default_rng(4)
        shifts = rng.integers(-3, 4, (300, 3)) * self.BOX.lengths
        points = _random_positions(rng, 300, self.BOX) + shifts
        targets = _random_positions(rng, 200, self.BOX) - 2.5 * self.BOX.lengths
        assert _same_bits(
            nearest_distance(points, targets, self.BOX),
            brute_force_nearest(points, targets, self.BOX),
        )

    def test_half_box_image_boundary(self):
        rng = np.random.default_rng(5)
        targets = _random_positions(rng, 50, self.BOX)
        half = 0.5 * self.BOX.lengths
        # each point sits exactly half a box from a target along one or
        # more axes, so min_image and the tree pick different images
        offsets = np.array(
            [[1, 0, 0], [0, -1, 0], [0, 0, 1], [1, 1, 0], [-1, 1, 1]], dtype=float
        )
        points = (targets[:25, None, :] + offsets[None] * half).reshape(-1, 3)
        assert _same_bits(
            nearest_distance(points, targets, self.BOX),
            brute_force_nearest(points, targets, self.BOX),
        )

    def test_duplicate_targets_tie_exactly(self):
        rng = np.random.default_rng(6)
        base = _random_positions(rng, 30, self.BOX)
        targets = np.vstack([base, base, base[::-1], base + self.BOX.lengths])
        points = np.vstack([_random_positions(rng, 100, self.BOX), base])
        got = nearest_distance(points, targets, self.BOX)
        assert _same_bits(got, brute_force_nearest(points, targets, self.BOX))
        assert np.all(got[100:] == 0.0)

    def test_more_than_k_equidistant_falls_back(self, monkeypatch):
        # 30 integer vectors of length exactly 5: (5,0,0) and (3,4,0) family
        shells = {
            tuple(s * v for s, v in zip(signs, perm))
            for base in ((5, 0, 0), (3, 4, 0))
            for perm in permutations(base)
            for signs in product((1, -1), repeat=3)
        }
        assert len(shells) == 30
        center = np.array([15.0, 8.0, 11.0])
        targets = center + np.array(sorted(shells), dtype=float)
        far = np.array([[1.0, 1.0, 1.0], [29.0, 2.0, 20.0]])
        points = np.vstack([center, far])
        dense_rows = []
        real = neighborlist.brute_force_nearest

        def spy(p, t, box, *args):
            dense_rows.append(len(p))
            return real(p, t, box, *args)

        monkeypatch.setattr(neighborlist, "brute_force_nearest", spy)
        got = nearest_distance(points, targets, self.BOX)
        assert dense_rows == [1]  # only the tied point
        assert got[0] == 5.0
        assert _same_bits(got, real(points, targets, self.BOX))

    def test_empty_target_set(self):
        points = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        empty = np.empty((0, 3))
        got = nearest_distance(points, empty, self.BOX)
        assert _same_bits(got, brute_force_nearest(points, empty, self.BOX))
        assert np.all(np.isinf(got))
        assert nearest_distance(empty, points, self.BOX).shape == (0,)


class TestCellList:
    @pytest.mark.parametrize("n,edge", [(30, 9.0), (40, 12.0), (120, 18.0), (250, 25.0)])
    def test_matches_brute_force(self, n, edge, monkeypatch):
        """Tree proposals, and every pair where the smallest box edge
        (8.1 A at ``edge`` 9) is under twice the 5 A list cutoff."""
        rng = np.random.default_rng(n)
        box = PeriodicBox(edge, edge * 1.1, edge * 0.9)
        pos = _random_positions(rng, n, box)
        scheme = CutoffScheme(r_cut=4.0, skin=1.0)
        nl = NeighborList(box, scheme)
        trees, real_tree = [], neighborlist.cKDTree

        def spy(*args, **kwargs):
            trees.append(args)
            return real_tree(*args, **kwargs)

        monkeypatch.setattr(neighborlist, "cKDTree", spy)
        nl.build(pos)
        pairs = _rows(nl)
        assert bool(trees) == (0.9 * edge > 2 * scheme.list_cutoff)
        ref = brute_force_pairs(pos, box, scheme.list_cutoff)
        assert pairs.tolist() == ref.tolist()
        # the cost model's candidate count is the cell enumeration's
        assert nl.last_candidates >= len(pairs)

    def test_exclusions_removed(self):
        box = PeriodicBox(12, 12, 12)
        pos = np.array([[1.0, 1, 1], [2.0, 1, 1], [3.0, 1, 1]])
        excl = np.array([[0, 1]], dtype=np.int64)
        nl = NeighborList(box, CutoffScheme(r_cut=4.0, skin=0.5), exclusions=excl)
        nl.build(pos)
        pairs = set(map(tuple, _rows(nl).tolist()))
        assert (0, 1) not in pairs
        assert (1, 2) in pairs and (0, 2) in pairs

    @pytest.mark.parametrize("n_codes,n_excl", [(0, 5), (40, 0), (0, 0), (300, 60)])
    def test_drop_excluded_sorts_and_drops(self, n_codes, n_excl):
        """The same rows in the same order as searching every code in the
        exclusion table and then sorting the survivors."""
        rng = np.random.default_rng(n_codes + n_excl)
        codes = rng.permutation(rng.choice(10 * n_codes + 10, n_codes, replace=False))
        excl = np.sort(np.concatenate([
            rng.choice(codes, min(n_excl, n_codes), replace=False),
            rng.integers(10 * n_codes + 10, 20 * n_codes + 30, n_excl),  # none hit
        ]).astype(codes.dtype))
        keep = np.flatnonzero(neighborlist.absent_from(excl, codes))
        want = keep[np.argsort(codes[keep])]
        got = neighborlist.drop_excluded(codes, excl)
        assert got.tolist() == want.tolist()

    def test_bad_exclusion_order_rejected(self):
        box = PeriodicBox(12, 12, 12)
        with pytest.raises(ValueError):
            NeighborList(
                box,
                CutoffScheme(r_cut=4.0),
                exclusions=np.array([[1, 0]], dtype=np.int64),
            )

    def test_cutoff_vs_box_validation(self):
        with pytest.raises(ValueError):
            NeighborList(PeriodicBox(6, 6, 6), CutoffScheme(r_cut=4.0))

    def test_unwrapped_positions_handled(self):
        """Positions far outside the box must be binned correctly."""
        box = PeriodicBox(12, 12, 12)
        pos = np.array([[1.0, 1, 1], [2.0, 1, 1]])
        shifted = pos + np.array([36.0, -24.0, 12.0])
        nl = NeighborList(box, CutoffScheme(r_cut=4.0, skin=0.5))
        nl.build(shifted)
        assert _rows(nl).tolist() == [[0, 1]]


class TestRebuild:
    def test_needs_rebuild_initially(self):
        nl = NeighborList(PeriodicBox(12, 12, 12), CutoffScheme(r_cut=4.0, skin=2.0))
        assert nl.needs_rebuild(np.zeros((2, 3)))

    def test_no_rebuild_for_small_motion(self):
        box = PeriodicBox(12, 12, 12)
        pos = np.array([[1.0, 1, 1], [3.0, 1, 1]])
        nl = NeighborList(box, CutoffScheme(r_cut=4.0, skin=2.0))
        nl.build(pos)
        assert not nl.needs_rebuild(pos + 0.4)  # < skin/2 = 1.0

    def test_rebuild_for_large_motion(self):
        box = PeriodicBox(12, 12, 12)
        pos = np.array([[1.0, 1, 1], [3.0, 1, 1]])
        nl = NeighborList(box, CutoffScheme(r_cut=4.0, skin=2.0))
        nl.build(pos)
        moved = pos.copy()
        moved[0, 0] += 1.2  # > skin/2
        assert nl.needs_rebuild(moved)

    def test_ensure_counts_builds(self):
        box = PeriodicBox(12, 12, 12)
        pos = np.array([[1.0, 1, 1], [3.0, 1, 1]])
        nl = NeighborList(box, CutoffScheme(r_cut=4.0, skin=2.0))
        nl.ensure(pos)
        assert nl.n_builds == 1 and nl.last_ensure_rebuilt
        nl.ensure(pos + 0.1)
        assert nl.n_builds == 1 and not nl.last_ensure_rebuilt

    def test_zero_skin_always_rebuilds(self):
        box = PeriodicBox(12, 12, 12)
        pos = np.array([[1.0, 1, 1], [3.0, 1, 1]])
        nl = NeighborList(box, CutoffScheme(r_cut=4.0, skin=0.0))
        nl.build(pos)
        assert nl.needs_rebuild(pos)


class TestCellPairMemo:
    def test_same_grid_returns_cached_object(self):
        from repro.md.neighborlist import _neighbour_cell_pairs

        a = _neighbour_cell_pairs(np.array([4, 5, 6]))
        b = _neighbour_cell_pairs(np.array([4, 5, 6]))
        assert a is b  # lru_cache hit, no recomputation
        assert not a.flags.writeable  # shared result must be immutable

    def test_distinct_grids_differ(self):
        from repro.md.neighborlist import _neighbour_cell_pairs

        a = _neighbour_cell_pairs(np.array([4, 5, 6]))
        c = _neighbour_cell_pairs(np.array([4, 5, 7]))
        assert a is not c

    def test_candidate_counter_set(self):
        rng = np.random.default_rng(0)
        box = PeriodicBox(15, 15, 15)
        pos = _random_positions(rng, 60, box)
        nl = NeighborList(box, CutoffScheme(r_cut=4.0, skin=1.0))
        nl.build(pos)
        assert nl.last_candidates >= len(nl.j)


@given(seed=st.integers(0, 10_000), n=st.integers(10, 80))
@settings(max_examples=25, deadline=None)
def test_cell_list_equals_brute_force_property(seed, n):
    rng = np.random.default_rng(seed)
    box = PeriodicBox(14.0, 16.0, 13.0)
    pos = rng.uniform(-20, 40, (n, 3))  # deliberately unwrapped
    scheme = CutoffScheme(r_cut=5.0, skin=1.0)
    nl = NeighborList(box, scheme)
    nl.build(pos)
    assert _rows(nl).tolist() == brute_force_pairs(pos, box, scheme.list_cutoff).tolist()


class TestStepPrefilter:
    """The certified candidate prefilter: sound, and void without proof."""

    def _setup(self, n=80, seed=3):
        rng = np.random.default_rng(seed)
        box = PeriodicBox(15, 15, 15)
        pos = _random_positions(rng, n, box)
        nl = NeighborList(box, CutoffScheme(r_cut=4.0, skin=1.0))
        nl.build(pos)
        return rng, nl, pos

    def test_hit_right_after_build(self):
        _, nl, pos = self._setup()
        hit = nl.step_prefilter()
        assert hit is not None
        ref_d, bound = hit
        assert len(ref_d) == len(nl.j)
        # zero displacement since build: the bound is r_cut + epsilon
        assert bound == pytest.approx(nl.scheme.r_cut, abs=1e-5)

    def test_certified_after_needs_rebuild_check(self):
        rng, nl, pos = self._setup()
        moved = pos + rng.normal(scale=0.05, size=pos.shape)
        assert not nl.needs_rebuild(moved)
        hit = nl.step_prefilter()
        assert hit is not None
        _, bound = hit
        assert bound > nl.scheme.r_cut  # displacement widened the bound

    def test_no_certificate_without_a_decision(self):
        """None before any build, and after a check that voided the list
        until the rebuild it calls for."""
        rng = np.random.default_rng(3)
        box = PeriodicBox(15, 15, 15)
        pos = _random_positions(rng, 80, box)
        nl = NeighborList(box, CutoffScheme(r_cut=4.0, skin=1.0))
        assert nl.step_prefilter() is None
        assert nl.needs_rebuild(pos) and nl.step_prefilter() is None
        nl.ensure(pos)
        assert nl.step_prefilter() is not None
        assert nl.needs_rebuild(pos + 0.6) and nl.step_prefilter() is None  # > skin/2
        nl.ensure(pos + 0.6)
        assert nl.last_ensure_rebuilt and nl.step_prefilter() is not None

    def test_prefilter_keeps_every_true_pair(self):
        """Dropped rows provably fail the exact r <= r_cut test."""
        rng, nl, pos = self._setup(n=120)
        for _ in range(5):
            moved = pos + rng.normal(scale=0.08, size=pos.shape)
            if nl.needs_rebuild(moved):
                nl.build(moved)
            hit = nl.step_prefilter()
            assert hit is not None
            ref_d, bound = hit
            pairs = _rows(nl)
            lo, hi = pairs[:, 0], pairs[:, 1]
            dr = nl.box.min_image(moved[lo] - moved[hi])
            d2 = np.einsum("ij,ij->i", dr, dr)
            within = d2 <= nl.scheme.r_cut**2
            # every within-cutoff pair survives the prefilter
            assert np.all(ref_d[within] <= bound)
            pos = moved



class TestRowTiles:
    """The exact accept test walks its proposals in the pair kernel's row
    tiles; where the seams fall is invisible in what it returns."""

    T = 97

    @pytest.fixture(scope="class")
    def proposals(self):
        rng = np.random.default_rng(5)
        box = PeriodicBox(15, 15, 15)
        pos = _random_positions(rng, 60, box)
        lo, hi = np.triu_indices(len(pos), k=1)  # 1770 proposals, ~7 % accepted
        return pos, box, lo, hi

    @pytest.mark.parametrize("n_rows", [0, T - 1, T, T + 1, 2 * T, 2 * T + 1, 1770])
    def test_within_cutoff_identical(self, proposals, monkeypatch, n_rows):
        pos, box, lo, hi = proposals
        lo, hi = lo[:n_rows], hi[:n_rows]
        rows, d2 = within_cutoff(pos, box, lo, hi, 4.0)
        monkeypatch.setattr("repro.md.nonbonded.PAIR_TILE_ROWS", self.T)
        t_rows, t_d2 = within_cutoff(pos, box, lo, hi, 4.0)
        assert t_rows.dtype == rows.dtype and t_d2.dtype == d2.dtype
        assert np.array_equal(t_rows, rows) and np.array_equal(t_d2, d2)
        assert n_rows < 2 * self.T or len(rows) > 0

    def test_no_proposal_accepted(self, proposals, monkeypatch):
        pos, box, lo, hi = proposals
        monkeypatch.setattr("repro.md.nonbonded.PAIR_TILE_ROWS", self.T)
        rows, d2 = within_cutoff(pos, box, lo, hi, 1e-3)
        assert rows.shape == d2.shape == (0,)

    def test_build_identical(self, proposals, monkeypatch):
        """Pairs, and the build-time distances the prefilter certifies by."""
        pos, box, _, _ = proposals
        scheme = CutoffScheme(r_cut=4.0, skin=1.0)
        whole = NeighborList(box, scheme)
        whole.build(pos)
        monkeypatch.setattr("repro.md.nonbonded.PAIR_TILE_ROWS", self.T)
        tiled = NeighborList(box, scheme)
        tiled.build(pos)
        assert len(whole.j) > self.T
        assert np.array_equal(tiled.starts, whole.starts)
        assert np.array_equal(tiled.j, whole.j)
        assert np.array_equal(tiled.pair_ref_d, whole.pair_ref_d)
        assert tiled.last_candidates == whole.last_candidates


def _whole_list(pos, box, cutoff, excl_codes):
    """The whole-list build the streamed one replaced, as ``(m, 2)`` rows
    and distances: every candidate at once, one exact test, one sort of
    every accepted code, the exclusions dropped."""
    n = len(pos)
    padded = cutoff * (1.0 + 1e-9)
    if padded >= 0.5 * float(np.min(box.lengths)):
        lo, hi = np.triu_indices(n, k=1)
    else:
        cand = cKDTree(box.wrap(pos), boxsize=box.lengths).query_pairs(
            padded, output_type="ndarray"
        )
        lo, hi = cand[:, 0], cand[:, 1]
    rows, d2 = within_cutoff(pos, box, lo, hi, cutoff)
    lo, hi = lo[rows], hi[rows]
    keep = drop_excluded(lo * np.int64(n) + hi, excl_codes)
    return np.stack([lo[keep], hi[keep]], axis=1), np.sqrt(d2[keep])


class TestStreamedBuild:
    """The list in CHARMM's layout, built one block of row atoms at a
    time: the rows and distances of the whole-list build, bit for bit,
    wherever the block edges fall — and nothing list-long on the way."""

    SCHEME = CutoffScheme(r_cut=4.0, skin=1.0)

    @staticmethod
    def _scene(dense):
        """60 atoms crowded into one corner of a cubic box, and atoms with
        no partner at all at rows 12, 20, ...: row 12 starts a block of 4
        atoms, row 20 one of 4 and one of 5.  The dense box is under twice
        the list cutoff, so its build proposes every pair."""
        rng = np.random.default_rng(2)
        if dense:
            edge, scheme = 12.0, CutoffScheme(r_cut=5.5, skin=1.0)
            loners = np.array([[7.5, 7.5, 7.5]])
        else:
            edge, scheme = 40.0, TestStreamedBuild.SCHEME
            loners = np.array([[x, y, y] for y in (20.0, 30.0) for x in (16.0, 22.0, 28.0, 34.0)])
        at = np.array([12, 20, 27, 33, 40, 46, 53, 59])[: len(loners)]
        pos = np.empty((60 + len(loners), 3))
        pos[np.setdiff1d(np.arange(len(pos)), at)] = rng.uniform(0.0, edge / 4, (60, 3))
        pos[at] = loners
        return PeriodicBox(edge, edge, edge), scheme, pos, at

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "tree"])
    @pytest.mark.parametrize("block", [1, 4, 5, 7, 64, 10_000])
    def test_equals_the_whole_list_build(self, monkeypatch, dense, block):
        box, scheme, pos, loners = self._scene(dense)
        n = len(pos)
        assert (scheme.list_cutoff >= 0.5 * box.lengths.min()) == dense
        every = brute_force_pairs(pos, box, scheme.list_cutoff)
        # exclusions straddling block edges, and one inside a block
        straddle = every[(every[:, 0] // block != every[:, 1] // block)][::3]
        excl = np.vstack([straddle, every[len(every) // 2 : len(every) // 2 + 1]])
        monkeypatch.setattr(neighborlist, "BUILD_BLOCK_ATOMS", block)
        nl = NeighborList(box, scheme, exclusions=excl)
        nl.build(pos)
        want, want_d = _whole_list(pos, box, scheme.list_cutoff, exclusion_codes(excl, n))
        got = _rows(nl)
        assert np.array_equal(got, want)
        assert nl.pair_ref_d.tobytes() == want_d.tobytes()
        kept = {tuple(row) for row in every.tolist()} - {tuple(row) for row in excl.tolist()}
        assert sorted(kept) == [tuple(row) for row in got.tolist()]
        assert len(straddle) > 0 or block >= n
        # the isolated atoms have empty rows, and no row names them
        assert np.all(np.diff(nl.starts)[loners] == 0)
        assert not np.isin(nl.j, loners).any()

    def test_layout(self):
        """``int32`` partners and ``n_atoms + 1`` row starts; no ``(m, 2)``
        array is held."""
        box, scheme, pos, _ = self._scene(dense=False)
        nl = NeighborList(box, scheme)
        nl.build(pos)
        m = len(nl.j)
        assert m > 0 and nl.j.dtype == np.int32
        assert len(nl.starts) == len(pos) + 1 and nl.starts[0] == 0 and nl.starts[-1] == m
        assert len(nl.pair_ref_d) == m
        assert not hasattr(nl, "pairs")
        for value in vars(nl).values():
            assert not (isinstance(value, np.ndarray) and value.ndim == 2 and len(value) == m)

    def test_ensure_hands_out_the_list(self):
        box, scheme, pos, _ = self._scene(dense=False)
        nl = NeighborList(box, scheme)
        j, starts = nl.ensure(pos)
        assert j is nl.j and starts is nl.starts
        assert nl.ensure(pos) == (j, starts) and not nl.last_ensure_rebuilt

    def test_peak_is_one_block_above_the_list(self, monkeypatch):
        """tracemalloc's peak over a build, above the arrays it keeps, stays
        within one block's allowance: 128 B per row of the longest block
        (its proposals, their exact test and their sort) and 128 B per
        atom (the block trees and the wrapped coordinates): 0.85 MB here,
        where the streamed build needs 0.36 MB and the whole-list build
        needed 4.4 MB, ~50 B per list row beyond its list."""
        block = 64
        monkeypatch.setattr(neighborlist, "BUILD_BLOCK_ATOMS", block)
        rng = np.random.default_rng(1)
        box = PeriodicBox(30.0, 30.0, 30.0)
        n = 3000
        pos = rng.uniform(0.0, 30.0, (n, 3))
        NeighborList(box, self.SCHEME).build(pos)  # warm: numpy's small-block caches
        nl = NeighborList(box, self.SCHEME)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            nl.build(pos)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        held = nl.j.nbytes + nl.starts.nbytes + nl.pair_ref_d.nbytes
        longest = max(
            nl.starts[min(b + block, n)] - nl.starts[b] for b in range(0, n, block)
        )
        assert len(nl.j) > 20 * longest  # many blocks
        assert peak - held <= 128 * longest + 128 * n
