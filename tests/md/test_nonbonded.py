"""Non-bonded kernel: LJ + electrostatics values, gradients, cutoffs."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.special import erfc

from repro.md import (
    CutoffScheme,
    NeighborList,
    NonbondedKernel,
    PairEnergies,
    PeriodicBox,
    default_forcefield,
)
from repro.md.units import COULOMB_CONSTANT

BOX = PeriodicBox(40.0, 40.0, 40.0)
SCHEME = CutoffScheme(r_cut=10.0, skin=2.0)


def _kernel(types, charges, elec_mode="shift", alpha=None, scheme=SCHEME):
    ff = default_forcefield()
    return NonbondedKernel(
        ff, types, np.array(charges), BOX, scheme, elec_mode=elec_mode, ewald_alpha=alpha
    )


def _pair(r):
    pos = np.array([[5.0, 5.0, 5.0], [5.0 + r, 5.0, 5.0]])
    pairs = np.array([[0, 1]], dtype=np.int64)
    return pos, pairs


class TestConstruction:
    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            _kernel(["OT", "OT"], [0.0, 0.0], elec_mode="pppm")

    def test_ewald_requires_alpha(self):
        with pytest.raises(ValueError):
            _kernel(["OT", "OT"], [0.0, 0.0], elec_mode="ewald")

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            _kernel(["OT"], [0.0, 0.0])


class TestLennardJones:
    def test_minimum_depth(self):
        """At r = Rmin the LJ energy is -eps (inside the switch-on radius)."""
        ff = default_forcefield()
        p = ff.lj_params("OT")
        kern = _kernel(["OT", "OT"], [0.0, 0.0])
        pos, pairs = _pair(2 * p.rmin_half)
        energies, forces = kern.compute(pos, pairs)
        assert energies.lj == pytest.approx(-p.epsilon, rel=1e-12)
        assert np.allclose(forces, 0.0, atol=1e-9)

    def test_repulsive_inside_minimum(self):
        kern = _kernel(["OT", "OT"], [0.0, 0.0])
        pos, pairs = _pair(2.2)
        energies, forces = kern.compute(pos, pairs)
        assert energies.lj > 0
        assert forces[0, 0] < 0  # pushed apart
        assert forces[1, 0] > 0

    def test_zero_beyond_cutoff(self):
        kern = _kernel(["OT", "OT"], [0.0, 0.0])
        pos, pairs = _pair(10.5)
        energies, forces = kern.compute(pos, pairs)
        assert energies.lj == 0.0
        assert np.allclose(forces, 0.0)
        assert kern.last_pair_count == 0

    def test_switched_continuity_at_cutoff(self):
        kern = _kernel(["OT", "OT"], [0.0, 0.0])
        e_in, _ = kern.compute(*_pair(10.0 - 1e-7))
        e_out, _ = kern.compute(*_pair(10.0 + 1e-7))
        assert abs(e_in.lj - e_out.lj) < 1e-8


class TestShiftElectrostatics:
    def test_small_r_close_to_bare_coulomb(self):
        q = [1.0, -1.0]
        kern = _kernel(["OT", "OT"], q)
        r = 1.5
        energies, _ = kern.compute(*_pair(r))
        bare = -COULOMB_CONSTANT / r
        # shift factor (1-(r/rc)^2)^2 at r=1.5, rc=10
        expect = bare * (1 - (r / 10) ** 2) ** 2
        assert energies.elec == pytest.approx(expect, rel=1e-12)

    def test_zero_at_cutoff(self):
        kern = _kernel(["OT", "OT"], [1.0, -1.0])
        energies, forces = kern.compute(*_pair(10.0))
        assert energies.elec == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(forces, 0.0, atol=1e-10)

    def test_like_charges_repel(self):
        kern = _kernel(["OT", "OT"], [0.5, 0.5])
        _, forces = kern.compute(*_pair(3.0))
        assert forces[0, 0] < 0 and forces[1, 0] > 0


class TestEwaldDirect:
    def test_matches_erfc_formula(self):
        alpha = 0.31
        kern = _kernel(["OT", "OT"], [0.8, -0.4], elec_mode="ewald", alpha=alpha)
        r = 4.0
        energies, _ = kern.compute(*_pair(r))
        expect = COULOMB_CONSTANT * 0.8 * (-0.4) * erfc(alpha * r) / r
        assert energies.elec == pytest.approx(expect, rel=1e-12)

    def test_forces_match_gradient(self):
        alpha = 0.31
        kern = _kernel(
            ["OT", "HT", "OT"], [0.8, -0.3, -0.5], elec_mode="ewald", alpha=alpha
        )
        rng = np.random.default_rng(4)
        pos = np.array([[5.0, 5, 5], [7.0, 5.5, 5], [6.0, 7.5, 6]])
        pos += rng.normal(scale=0.1, size=pos.shape)
        pairs = np.array([[0, 1], [0, 2], [1, 2]], dtype=np.int64)
        _, forces = kern.compute(pos, pairs)
        h = 1e-6
        for i in range(3):
            for d in range(3):
                pp = pos.copy(); pp[i, d] += h
                pm = pos.copy(); pm[i, d] -= h
                ep, _ = kern.compute(pp, pairs)
                em, _ = kern.compute(pm, pairs)
                fd = -(ep.total - em.total) / (2 * h)
                assert forces[i, d] == pytest.approx(fd, abs=1e-5)

    def test_forces_match_gradient_across_tiles(self, monkeypatch):
        """One pair per tile: the three-pair list spans three tiles."""
        monkeypatch.setattr("repro.md.nonbonded.PAIR_TILE_ROWS", 1)
        self.test_forces_match_gradient()


class TestShiftGradients:
    def test_forces_match_gradient(self):
        kern = _kernel(["OT", "HT", "CT2"], [0.6, -0.2, -0.4])
        pos = np.array([[5.0, 5, 5], [7.5, 5.5, 5], [6.0, 8.5, 6]])
        pairs = np.array([[0, 1], [0, 2], [1, 2]], dtype=np.int64)
        _, forces = kern.compute(pos, pairs)
        h = 1e-6
        for i in range(3):
            for d in range(3):
                pp = pos.copy(); pp[i, d] += h
                pm = pos.copy(); pm[i, d] -= h
                ep, _ = kern.compute(pp, pairs)
                em, _ = kern.compute(pm, pairs)
                fd = -(ep.total - em.total) / (2 * h)
                assert forces[i, d] == pytest.approx(fd, abs=1e-5)

    def test_forces_match_gradient_across_tiles(self, monkeypatch):
        """One pair per tile: the three-pair list spans three tiles."""
        monkeypatch.setattr("repro.md.nonbonded.PAIR_TILE_ROWS", 1)
        self.test_forces_match_gradient()


class TestBookkeeping:
    def test_empty_pairs(self):
        kern = _kernel(["OT", "OT"], [0.0, 0.0])
        energies, forces = kern.compute(
            np.zeros((2, 3)), np.empty((0, 2), dtype=np.int64)
        )
        assert energies.total == 0.0
        assert np.allclose(forces, 0.0)
        assert kern.last_pair_count == 0

    def test_pair_count_filters_skin(self):
        kern = _kernel(["OT", "OT", "OT"], [0.0, 0.0, 0.0])
        pos = np.array([[5.0, 5, 5], [9.0, 5, 5], [16.0, 5, 5]])
        pairs = np.array([[0, 1], [0, 2]], dtype=np.int64)  # 0-2 at 11 A: in skin
        kern.compute(pos, pairs)
        assert kern.last_pair_count == 1

    def test_newton_third_law(self):
        kern = _kernel(["OT", "HT", "CT2"], [0.6, -0.2, -0.4])
        pos = np.array([[5.0, 5, 5], [7.5, 5.5, 5], [6.0, 8.5, 6]])
        pairs = np.array([[0, 1], [0, 2], [1, 2]], dtype=np.int64)
        _, forces = kern.compute(pos, pairs)
        assert np.allclose(forces.sum(axis=0), 0.0, atol=1e-10)


@pytest.fixture(scope="module")
def scene():
    """120 charged atoms, their Verlet list (1078 rows, about half
    of them skin) and coordinates the list has checked since its build."""
    rng = np.random.default_rng(11)
    box = PeriodicBox(15.0, 15.0, 15.0)
    scheme = CutoffScheme(r_cut=4.0, skin=1.0)
    n = 120
    built_at = rng.uniform(0.0, 15.0, (n, 3))
    nl = NeighborList(box, scheme)
    nl.build(built_at)
    pos = built_at + rng.normal(scale=0.05, size=built_at.shape)
    assert not nl.needs_rebuild(pos)
    ref_d, bound = nl.step_prefilter()
    assert 0 < np.count_nonzero(ref_d > bound) < len(ref_d)  # it drops rows
    types = [("OT", "HT", "CT2")[k % 3] for k in range(n)]
    charges = rng.uniform(-0.8, 0.8, n)
    return box, scheme, nl, pos, types, charges


def _scene_kernel(scene, elec_mode):
    box, scheme, _, _, types, charges = scene
    return NonbondedKernel(
        default_forcefield(), types, charges, box, scheme,
        elec_mode=elec_mode, ewald_alpha=0.35 if elec_mode == "ewald" else None,
    )


class _Assembly(list):
    """A test's ``pair_terms`` consumer: every tile's accepted rows,
    concatenated in list order into ``(i, j, e_lj, e_el, fvec)``."""

    def __call__(self, start, part):
        self.append(part)

    def result(self, filled):
        return tuple(np.concatenate(col) for col in zip(*self))


def _assembled(kern, pos, pairs, reach=None):
    return kern.pair_terms(pos, pairs, reach, _Assembly())


def _assembled_reduction(terms, n_atoms):
    """What ``compute`` returns, from the assembled ``pair_terms`` arrays:
    ``np.sum`` of the energy rows and one ``bincount`` force scatter."""
    i, j, e_lj, e_el, fvec = terms
    forces = np.zeros((n_atoms, 3))
    c = np.ascontiguousarray(fvec.T)
    for dim in range(3):
        forces[:, dim] += np.bincount(i, weights=c[dim], minlength=n_atoms)
        forces[:, dim] -= np.bincount(j, weights=c[dim], minlength=n_atoms)
    return PairEnergies(float(np.sum(e_lj)), float(np.sum(e_el))), forces


class TestRowTiles:
    """A list walked in row tiles returns the arrays of the one-tile
    evaluation — equal, not close — wherever the seams fall, and so does
    an evaluation handed the list's certificate as ``reach``."""

    T = 97
    LENGTHS = [0, T - 1, T, T + 1, 2 * T, 2 * T + 1]

    @staticmethod
    def _evaluate(kern, pos, pairs, reach):
        """``pair_terms`` and ``compute``, whose streamed reduction of the
        tiles must equal that of the assembled arrays."""
        terms = _assembled(kern, pos, pairs, reach)
        count = kern.last_pair_count
        energies, forces = kern.compute(pos, pairs, reach)
        want_energies, want_forces = _assembled_reduction(terms, len(pos))
        assert energies == want_energies and forces.flags.c_contiguous
        assert np.array_equal(forces, want_forces)
        return terms, count, energies, forces

    def _assert_tiling_invisible(self, monkeypatch, kern, pos, pairs, reach=None):
        """Evaluate in one tile without ``reach``, then with it, in one
        tile and in tiles of ``T`` rows; compare each with the first."""
        terms, count, energies, forces = self._evaluate(kern, pos, pairs, None)
        for tile_rows in (None, self.T):
            if tile_rows:
                monkeypatch.setattr("repro.md.nonbonded.PAIR_TILE_ROWS", tile_rows)
            t_terms, t_count, t_energies, t_forces = self._evaluate(kern, pos, pairs, reach)
            for tiled, whole in zip(t_terms, terms):
                assert tiled.dtype == whole.dtype and tiled.shape == whole.shape
                assert np.array_equal(tiled, whole)
            assert t_count == count == len(terms[0])
            assert t_energies == energies
            assert np.array_equal(t_forces, forces)
        monkeypatch.undo()
        return count

    @staticmethod
    def _reach(nl, rows, prefilter):
        """The list's certificate cut as ``nl.pairs[rows]``, or None."""
        if not prefilter:
            return None
        ref_d, bound = nl.step_prefilter()
        return ref_d[rows], bound

    @pytest.mark.parametrize("n_rows", LENGTHS)
    @pytest.mark.parametrize("prefilter", [False, True], ids=["plain", "prefilter"])
    @pytest.mark.parametrize("elec_mode", ["shift", "ewald"])
    def test_list_lengths_around_the_seams(
        self, scene, monkeypatch, elec_mode, prefilter, n_rows
    ):
        nl, pos = scene[2], scene[3]
        assert len(nl.pairs) > 2 * self.T + 1
        kern = _scene_kernel(scene, elec_mode)
        rows = slice(0, n_rows)
        count = self._assert_tiling_invisible(
            monkeypatch, kern, pos, nl.pairs[rows], self._reach(nl, rows, prefilter)
        )
        assert 0 < count < n_rows or n_rows == 0  # the skin rows were cut

    @pytest.mark.parametrize("prefilter", [False, True], ids=["plain", "prefilter"])
    def test_row_slice_at_an_offset(self, scene, monkeypatch, prefilter):
        """A rank's block, a row slice of the list at an offset, with the
        certificate cut by the same slice (as ``ParallelClassic`` cuts it)."""
        nl, pos = scene[2], scene[3]
        rows = slice(53, 53 + 3 * self.T + 5)
        kern = _scene_kernel(scene, "ewald")
        self._assert_tiling_invisible(
            monkeypatch, kern, pos, nl.pairs[rows], self._reach(nl, rows, prefilter)
        )

    def test_tiles_that_accept_nothing(self, scene, monkeypatch):
        box, scheme, nl, pos = scene[:4]
        lo, hi = np.triu_indices(len(pos), k=1)
        dr = box.min_image(pos[lo] - pos[hi])
        d = np.sqrt(np.einsum("ij,ij->i", dr, dr))
        every = np.stack([lo, hi], axis=1)
        near, far = every[d < scheme.r_cut - 0.1], every[d > scheme.r_cut + 0.1]
        kern = _scene_kernel(scene, "ewald")
        hollow = np.concatenate([near[: self.T], far[: self.T], near[self.T : 150]])
        assert self._assert_tiling_invisible(monkeypatch, kern, pos, hollow) == 150
        nothing = far[: 2 * self.T + 9]
        assert self._assert_tiling_invisible(monkeypatch, kern, pos, nothing) == 0
        energies, forces = kern.compute(pos, nothing)
        assert energies.total == 0.0 and not forces.any()


class TestStreamedCompute:
    """``compute`` reduces each tile as it comes (its bits are pinned
    against the assembled arrays at every seam by :class:`TestRowTiles`);
    that nothing of list length outlives it is :class:`TestStaticsLifetime`'s."""

    def test_peak_is_one_tile_plus_the_energy_rows(self, scene, monkeypatch):
        """tracemalloc's peak over a four-tile ``compute`` stays within a
        one-tile call's peak plus 16 B per list row — the two energy rows
        — and a 4 KiB slack for numpy's small-block bookkeeping.  An
        evaluation that assembled its list-length arrays (56 B per row)
        would overshoot it by ~280 KB here."""
        T = 2048
        pos = scene[3]
        lo, hi = np.triu_indices(len(pos), k=1)
        pairs = np.resize(np.stack([lo, hi], axis=1), (4 * T, 2))
        kern = _scene_kernel(scene, "ewald")
        monkeypatch.setattr("repro.md.nonbonded.PAIR_TILE_ROWS", T)

        def peak(rows):
            kern.compute(pos, rows)  # warm: numpy's small-block caches
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                kern.compute(pos, rows)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        one_tile = max(peak(pairs[k * T : (k + 1) * T].copy()) for k in range(4))
        assert peak(pairs) <= one_tile + 16 * len(pairs) + 4096


def _held_arrays(kern):
    """Every numpy array a kernel's attributes reach through tuples and lists."""
    held, arrays = list(vars(kern).values()), []
    while held:
        value = held.pop()
        if isinstance(value, (tuple, list)):
            held.extend(value)
        elif isinstance(value, np.ndarray):
            arrays.append(value)
    return arrays


class TestStaticsLifetime:
    """No per-pair state outlives an evaluation: what a kernel holds
    between steps is sized by its atoms, never by a pair list."""

    def test_an_array_evaluated_once_has_no_statics(self, scene):
        """A spatial rank's step array, fresh each step, through both
        ``pair_terms`` and ``compute``: no kernel attribute holds an array
        of its length afterwards."""
        nl, pos = scene[2], scene[3]
        kern = _scene_kernel(scene, "shift")
        for _ in range(3):
            step_pairs = nl.pairs.take(np.arange(0, len(nl.pairs), 3), axis=0)
            _assembled(kern, pos, step_pairs)
            kern.compute(pos, step_pairs)
            for value in _held_arrays(kern):
                assert value.ndim == 0 or len(value) != len(step_pairs)

    def test_statics_go_with_their_pair_array(self, scene):
        """A reused array, evaluated step after step, dies with its last
        reference, and the kernel with its own — by reference counting,
        not by the cyclic collector."""
        nl, pos = scene[2], scene[3]
        kern = _scene_kernel(scene, "shift")
        reused = nl.pairs.copy()
        gc.disable()
        try:
            for _ in range(3):
                _assembled(kern, pos, reused)
                kern.compute(pos, reused)
            for value in _held_arrays(kern):
                assert value.ndim == 0 or len(value) != len(reused)
            alive = weakref.ref(reused)
            del reused
            assert alive() is None
            kernel = weakref.ref(kern)
            del kern
            assert kernel() is None
        finally:
            gc.enable()
