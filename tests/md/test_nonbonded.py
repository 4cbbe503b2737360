"""Non-bonded kernel: LJ + electrostatics values, gradients, cutoffs."""

import gc
import weakref

import numpy as np
import pytest
from scipy.special import erfc

from repro.md import (
    CutoffScheme,
    NeighborList,
    NonbondedKernel,
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


class TestRowTiles:
    """A list walked in row tiles returns the arrays of the one-tile
    evaluation — equal, not close — wherever the seams fall."""

    T = 97
    LENGTHS = [0, T - 1, T, T + 1, 2 * T, 2 * T + 1]

    @pytest.fixture(scope="class")
    def scene(self):
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
        ref_d, bound = nl.step_prefilter(pos, nl.pairs)
        assert 0 < np.count_nonzero(ref_d > bound) < len(ref_d)  # it drops rows
        types = [("OT", "HT", "CT2")[k % 3] for k in range(n)]
        charges = rng.uniform(-0.8, 0.8, n)
        return box, scheme, nl, pos, types, charges

    @staticmethod
    def _kernel(scene, elec_mode, prefilter=False):
        box, scheme, nl, _, types, charges = scene
        kern = NonbondedKernel(
            default_forcefield(), types, charges, box, scheme,
            elec_mode=elec_mode, ewald_alpha=0.35 if elec_mode == "ewald" else None,
        )
        if prefilter:
            kern.attach_prefilter(nl.step_prefilter)
        return kern

    @staticmethod
    def _evaluate(kern, pos, pairs):
        terms = kern.pair_terms(pos, pairs)
        count = kern.last_pair_count
        energies, forces = kern.compute(pos, pairs)
        return terms, count, energies, forces

    def _assert_tiling_invisible(self, monkeypatch, kern, pos, pairs):
        """Evaluate in one tile, then in tiles of ``T`` rows; compare."""
        terms, count, energies, forces = self._evaluate(kern, pos, pairs)
        monkeypatch.setattr("repro.md.nonbonded.PAIR_TILE_ROWS", self.T)
        t_terms, t_count, t_energies, t_forces = self._evaluate(kern, pos, pairs)
        monkeypatch.undo()
        for tiled, whole in zip(t_terms, terms):
            assert tiled.dtype == whole.dtype and tiled.shape == whole.shape
            assert np.array_equal(tiled, whole)
        assert t_count == count == len(terms[0])
        assert t_energies == energies
        assert np.array_equal(t_forces, forces)
        return count

    @pytest.mark.parametrize("n_rows", LENGTHS)
    @pytest.mark.parametrize("prefilter", [False, True], ids=["plain", "prefilter"])
    @pytest.mark.parametrize("elec_mode", ["shift", "ewald"])
    def test_list_lengths_around_the_seams(
        self, scene, monkeypatch, elec_mode, prefilter, n_rows
    ):
        nl, pos = scene[2], scene[3]
        assert len(nl.pairs) > 2 * self.T + 1
        kern = self._kernel(scene, elec_mode, prefilter)
        count = self._assert_tiling_invisible(monkeypatch, kern, pos, nl.pairs[:n_rows])
        assert 0 < count < n_rows or n_rows == 0  # the skin rows were cut

    @pytest.mark.parametrize("prefilter", [False, True], ids=["plain", "prefilter"])
    def test_row_slice_at_an_offset(self, scene, monkeypatch, prefilter):
        """A rank's block: statics and prefilter distances are served from
        the base list's arrays at ``offset + tile``."""
        nl, pos = scene[2], scene[3]
        block = nl.pairs[53 : 53 + 3 * self.T + 5]
        kern = self._kernel(scene, "ewald", prefilter)
        assert kern._row_slice(block) == (nl.pairs, 53)
        self._assert_tiling_invisible(monkeypatch, kern, pos, block)

    def test_view_that_is_no_row_slice(self, scene, monkeypatch):
        """Every other row: no cached statics, parameters are gathered
        from the accepted rows of each tile."""
        nl, pos = scene[2], scene[3]
        strided = nl.pairs[::2]
        kern = self._kernel(scene, "shift", prefilter=True)
        assert kern._row_slice(strided) is None
        assert len(strided) > 3 * self.T
        self._assert_tiling_invisible(monkeypatch, kern, pos, strided)

    def test_tiles_that_accept_nothing(self, scene, monkeypatch):
        box, scheme, nl, pos = scene[:4]
        lo, hi = np.triu_indices(len(pos), k=1)
        dr = box.min_image(pos[lo] - pos[hi])
        d = np.sqrt(np.einsum("ij,ij->i", dr, dr))
        every = np.stack([lo, hi], axis=1)
        near, far = every[d < scheme.r_cut - 0.1], every[d > scheme.r_cut + 0.1]
        kern = self._kernel(scene, "ewald")
        hollow = np.concatenate([near[: self.T], far[: self.T], near[self.T : 150]])
        assert self._assert_tiling_invisible(monkeypatch, kern, pos, hollow) == 150
        nothing = far[: 2 * self.T + 9]
        assert self._assert_tiling_invisible(monkeypatch, kern, pos, nothing) == 0
        energies, forces = kern.compute(pos, nothing)
        assert energies.total == 0.0 and not forces.any()


class TestStaticsLifetime:
    """The per-pair statics cache lives exactly as long as its pair array."""

    @pytest.fixture()
    def scene(self):
        """A Verlet list, its coordinates and a kernel factory."""
        rng = np.random.default_rng(5)
        box = PeriodicBox(15.0, 15.0, 15.0)
        scheme = CutoffScheme(r_cut=4.0, skin=1.0)
        n = 90
        pos = rng.uniform(0.0, 15.0, (n, 3))
        nl = NeighborList(box, scheme)
        nl.build(pos)
        types = [("OT", "HT")[k % 2] for k in range(n)]
        charges = rng.uniform(-0.8, 0.8, n)
        return nl, pos, lambda: NonbondedKernel(
            default_forcefield(), types, charges, box, scheme
        )

    def test_an_array_evaluated_once_has_no_statics(self, scene, monkeypatch):
        """A spatial rank's step array: each tile gathers its accepted
        rows' parameters, and no whole-array copy is made or kept."""
        nl, pos, make_kernel = scene
        kern = make_kernel()
        monkeypatch.setattr(kern, "pair_statics", lambda base: pytest.fail("expanded"))
        for _ in range(3):
            step_pairs = nl.pairs.take(np.arange(0, len(nl.pairs), 3), axis=0)
            kern.pair_terms(pos, step_pairs)
            assert kern._statics is None

    def test_statics_go_with_their_pair_array(self, scene):
        """Statics cached for a reused array are freed with it, and the
        cache keeps neither the array nor the kernel alive."""
        nl, pos, make_kernel = scene
        kern = make_kernel()
        reused = nl.pairs.copy()
        kern.pair_terms(pos, reused)
        kern.pair_terms(pos, reused)
        statics = weakref.ref(kern._statics[0])
        gc.disable()  # freed by reference counting, not by the collector
        try:
            del reused
            assert statics() is None and kern._statics is None
            kernel = weakref.ref(kern)
            del kern
            assert kernel() is None
        finally:
            gc.enable()

    def test_long_lived_base_once_per_build(self, scene, monkeypatch):
        """The replicated list: one statics evaluation per build, at its
        second evaluation, serves every later step and every rank block
        sliced from it."""
        nl, pos, make_kernel = scene
        kern = make_kernel()
        calls = []
        pair_statics = kern.pair_statics
        monkeypatch.setattr(
            kern, "pair_statics", lambda base: calls.append(len(base)) or pair_statics(base)
        )
        for _ in range(3):
            kern.pair_terms(pos, nl.pairs)
            kern.pair_terms(pos, nl.pairs[7:61])
        assert calls == [len(nl.pairs)]
        nl.build(pos + 0.01)
        kern.pair_terms(pos, nl.pairs)
        kern.pair_terms(pos, nl.pairs[3:40])
        assert calls == [len(nl.pairs)] * 2
