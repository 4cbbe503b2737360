"""Cell-list neighbour search vs brute force; skin/rebuild behaviour."""

from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md import CutoffScheme, NeighborList, PeriodicBox, brute_force_pairs
from repro.md import neighborlist
from repro.md.neighborlist import brute_force_nearest, nearest_distance, within_cutoff


def _random_positions(rng, n, box):
    return rng.uniform(0, 1, (n, 3)) * box.lengths


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
    @pytest.mark.parametrize("n,edge", [(40, 12.0), (120, 18.0), (250, 25.0)])
    def test_matches_brute_force(self, n, edge):
        rng = np.random.default_rng(n)
        box = PeriodicBox(edge, edge * 1.1, edge * 0.9)
        pos = _random_positions(rng, n, box)
        scheme = CutoffScheme(r_cut=4.0, skin=1.0)
        nl = NeighborList(box, scheme)
        pairs = nl.build(pos)
        ref = brute_force_pairs(pos, box, scheme.list_cutoff)
        assert pairs.tolist() == ref.tolist()

    def test_exclusions_removed(self):
        box = PeriodicBox(12, 12, 12)
        pos = np.array([[1.0, 1, 1], [2.0, 1, 1], [3.0, 1, 1]])
        excl = np.array([[0, 1]], dtype=np.int64)
        nl = NeighborList(box, CutoffScheme(r_cut=4.0, skin=0.5), exclusions=excl)
        pairs = set(map(tuple, nl.build(pos)))
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
        assert nl.build(shifted).tolist() == [[0, 1]]


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

    def test_adopt_mirrors_builder_state(self):
        """A mirroring list behaves exactly like one that built locally."""
        box = PeriodicBox(12, 12, 12)
        pos = np.array([[1.0, 1, 1], [3.0, 1, 1], [5.0, 5, 5]])
        scheme = CutoffScheme(r_cut=4.0, skin=2.0)
        builder = NeighborList(box, scheme)
        pairs = builder.ensure(pos)

        mirror = NeighborList(box, scheme)
        mirror.adopt(pairs, builder._ref_positions, builder.last_candidates, True)
        assert mirror.pairs is pairs
        assert mirror.last_ensure_rebuilt and mirror.last_candidates == builder.last_candidates
        assert mirror.n_builds == 0  # adopt is not a real build
        # rebuild decisions now track the builder's reference positions
        assert not mirror.needs_rebuild(pos + 0.4)
        moved = pos.copy()
        moved[0, 0] += 1.2
        assert mirror.needs_rebuild(moved)


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
        pairs = nl.build(pos)
        assert nl.last_candidates >= len(pairs)


@given(seed=st.integers(0, 10_000), n=st.integers(10, 80))
@settings(max_examples=25, deadline=None)
def test_cell_list_equals_brute_force_property(seed, n):
    rng = np.random.default_rng(seed)
    box = PeriodicBox(14.0, 16.0, 13.0)
    pos = rng.uniform(-20, 40, (n, 3))  # deliberately unwrapped
    scheme = CutoffScheme(r_cut=5.0, skin=1.0)
    nl = NeighborList(box, scheme)
    assert nl.build(pos).tolist() == brute_force_pairs(pos, box, scheme.list_cutoff).tolist()


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
        hit = nl.step_prefilter(pos, nl.pairs)
        assert hit is not None
        ref_d, bound = hit
        assert len(ref_d) == len(nl.pairs)
        # zero displacement since build: the bound is r_cut + epsilon
        assert bound == pytest.approx(nl.scheme.r_cut, abs=1e-5)

    def test_certified_after_needs_rebuild_check(self):
        rng, nl, pos = self._setup()
        moved = pos + rng.normal(scale=0.05, size=pos.shape)
        assert not nl.needs_rebuild(moved)
        hit = nl.step_prefilter(moved, nl.pairs)
        assert hit is not None
        _, bound = hit
        assert bound > nl.scheme.r_cut  # displacement widened the bound

    def test_unseen_positions_object_voids_the_certificate(self):
        _, nl, pos = self._setup()
        assert nl.step_prefilter(pos.copy(), nl.pairs) is None

    def test_foreign_pair_array_voids_the_certificate(self):
        _, nl, pos = self._setup()
        assert nl.step_prefilter(pos, nl.pairs.copy()) is None
        assert nl.step_prefilter(pos, nl.pairs[:-1]) is None

    def test_prefilter_keeps_every_true_pair(self):
        """Dropped rows provably fail the exact r <= r_cut test."""
        rng, nl, pos = self._setup(n=120)
        for _ in range(5):
            moved = pos + rng.normal(scale=0.08, size=pos.shape)
            if nl.needs_rebuild(moved):
                nl.build(moved)
            hit = nl.step_prefilter(moved, nl.pairs)
            assert hit is not None
            ref_d, bound = hit
            pairs = nl.pairs
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
        assert len(whole.pairs) > self.T
        assert np.array_equal(tiled.pairs, whole.pairs)
        assert np.array_equal(tiled.pair_ref_d, whole.pair_ref_d)
        assert tiled.last_candidates == whole.last_candidates
