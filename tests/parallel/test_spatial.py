"""Spatial domain decomposition: bit-identity with replicated + halo edge cases.

The acceptance bar of the spatial engine: identical physics (energies
and trajectories bitwise equal to the replicated-data strategy at the
same rank count), neighbour-only communication (per-rank message counts
independent of p), and hard failures on anything the single-hop halo
schedule cannot represent.
"""

import pickle
import tracemalloc

import numpy as np
import pytest

from repro.campaign.workloads import build_workload
from repro.cluster import ClusterSpec, tcp_gigabit_ethernet
from repro.instrument.commstats import CommTrace
from repro.instrument.counters import FRESH_ATOMS, OWNERSHIP_EPOCHS, PAIRLIST_BUILDS
from repro.md import CutoffScheme, MDSystem
from repro.md.box import PeriodicBox
from repro.md.integrator import maxwell_boltzmann_velocities
from repro.md.neighborlist import NeighborList, exclusion_codes
from repro.parallel import MDRunConfig, RunOptions, run_parallel_md
from repro.parallel.decomposition import AtomDecomposition
from repro.parallel.spatial import (
    SpatialDecomposition,
    SpatialEngine,
    SpatialLedger,
    SpatialMigrationError,
    grid_for,
    halo_pulses,
)
from repro.parallel.spatial import engine as spatial_engine

CFG = MDRunConfig(n_steps=3, dt=0.0004)
#: long enough, at this timestep, for atoms to outrun half the skin: every
#: rank's buffered pair list is rebuilt at least once inside the run
#: (water gets there in six steps, the protein needs eight)
LONG = MDRunConfig(n_steps=8, dt=0.003)
LONG_WATER = MDRunConfig(n_steps=6, dt=0.003)


@pytest.fixture(scope="module")
def water():
    return build_workload("water-box")


@pytest.fixture(scope="module")
def myoglobin():
    return build_workload("myoglobin-shift")


def _run(system, pos, p, strategy, config=CFG, **kw):
    return run_parallel_md(
        system,
        pos,
        ClusterSpec(n_ranks=p, network=tcp_gigabit_ethernet()),
        RunOptions(config=config, strategy=strategy, **kw),
    )


def _assert_bit_identical(res_a, res_b):
    """Energies and trajectories bitwise equal — not approx, equal."""
    assert len(res_a.energies) == len(res_b.energies)
    for ea, eb in zip(res_a.energies, res_b.energies):
        assert ea == eb
    assert res_a.final_positions.tobytes() == res_b.final_positions.tobytes()


class TestBitIdenticalToReplicated:
    """Same rank count, same middleware fold — same bits out."""

    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_water_box_mpi(self, water, p):
        system, pos = water
        _assert_bit_identical(
            _run(system, pos, p, "spatial"), _run(system, pos, p, "replicated")
        )

    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_myoglobin_shift_mpi(self, myoglobin, p):
        system, pos = myoglobin
        _assert_bit_identical(
            _run(system, pos, p, "spatial"), _run(system, pos, p, "replicated")
        )

    @pytest.mark.parametrize("p", [2, 8])
    def test_water_box_cmpi(self, water, p):
        """CMPI folds in arrival-chain order; the ledger must match it too."""
        system, pos = water
        _assert_bit_identical(
            _run(system, pos, p, "spatial", middleware="cmpi"),
            _run(system, pos, p, "replicated", middleware="cmpi"),
        )


@pytest.mark.usefixtures("small_pair_tiles")
class TestBitIdenticalAcrossTileSeams(TestBitIdenticalToReplicated):
    """The same cases with every list spanning many row tiles: a spatial
    rank's local list and a replicated rank's block of the shared list
    put their seams at different pairs."""

    @pytest.mark.parametrize("middleware", ["mpi", "cmpi"])
    @pytest.mark.parametrize("strategy", ["replicated", "spatial"])
    def test_tile_length_is_invisible(self, water, monkeypatch, strategy, middleware):
        """Against the one-tile run: energies, trajectory and — through
        ``last_pair_count``, the cost model's input — virtual time."""
        system, pos = water
        tiled = _run(system, pos, 4, strategy, middleware=middleware)
        monkeypatch.undo()
        whole = _run(system, pos, 4, strategy, middleware=middleware)
        _assert_bit_identical(tiled, whole)
        for t_tiled, t_whole in zip(tiled.timelines, whole.timelines):
            assert t_tiled.total_seconds() == t_whole.total_seconds()


def _with_skin(system, skin):
    """The same classic-cutoff physics under another Verlet skin."""
    return MDSystem(
        system.topology, system.forcefield, system.box,
        CutoffScheme(r_cut=system.scheme.r_cut, skin=skin),
        electrostatics="shift",
    )


def _slab_engine(system, pos):
    """Rank 0 of the forced four-slab grid, outside any simulated run."""
    decomp = SpatialDecomposition.for_cluster(
        system.box, 4, system.scheme.r_cut, grid=(4, 1, 1)
    )
    vdecomp = AtomDecomposition(system.n_atoms, 4)
    return SpatialEngine(
        system=system,
        decomp=decomp,
        vdecomp=vdecomp,
        rank=0,
        cost=RunOptions().cost,
        middleware="mpi",
        ledger=SpatialLedger(system, vdecomp, "mpi"),
        positions0=pos,
        velocities0=np.zeros_like(pos),
        lj_tables=system.forcefield.lj_tables(system.topology.type_names),
        excl_codes=exclusion_codes(system.exclusions, system.n_atoms),
    )


def _spatial_counting(system, pos, p, config, **kw):
    """A spatial run plus its (pair-list builds, fresh atoms) counts."""
    builds, fresh = PAIRLIST_BUILDS.snapshot(), FRESH_ATOMS.snapshot()
    res = _run(system, pos, p, "spatial", config=config, **kw)
    return res, PAIRLIST_BUILDS.delta(builds), FRESH_ATOMS.delta(fresh)


class TestBufferedPairList:
    """The rank-local Verlet list: searched once per rebuild, selected
    from in between — and the same bits as replicated across rebuilds."""

    @pytest.mark.parametrize("middleware", ["mpi", "cmpi"])
    @pytest.mark.parametrize("p", [2, 8])
    def test_water_box_across_a_rebuild(self, water, p, middleware):
        system, pos = water
        cfg = LONG_WATER
        res, builds, _ = _spatial_counting(system, pos, p, cfg, middleware=middleware)
        assert p < builds < p * cfg.n_steps  # rebuilt, but not every step
        _assert_bit_identical(
            res, _run(system, pos, p, "replicated", config=cfg, middleware=middleware)
        )

    @pytest.mark.parametrize("p,middleware", [(8, "mpi"), (2, "cmpi")])
    def test_myoglobin_shift_across_a_rebuild(self, myoglobin, p, middleware):
        """The protein moves atoms across cell faces and halo edges
        between rebuilds, so the fresh-atom rule runs as well."""
        system, pos = myoglobin
        res, builds, fresh = _spatial_counting(system, pos, p, LONG, middleware=middleware)
        assert p < builds < p * LONG.n_steps
        assert fresh > 0
        _assert_bit_identical(
            res, _run(system, pos, p, "replicated", config=LONG, middleware=middleware)
        )

    def test_forced_slab_grid_across_a_rebuild(self, water):
        """Multi-pulse halo: ghosts two regions away feed the list too."""
        system, pos = water
        cfg = LONG_WATER
        res, builds, _ = _spatial_counting(system, pos, 4, cfg, spatial_grid=(4, 1, 1))
        assert 4 < builds < 4 * cfg.n_steps
        _assert_bit_identical(res, _run(system, pos, 4, "replicated", config=cfg))

    def test_one_search_per_rank_per_rebuild(self, myoglobin):
        """The paper's ten steps: a count, not a stopwatch — a return to
        per-step searching makes this 80."""
        system, pos = myoglobin
        _, builds, _ = _spatial_counting(system, pos, 8, MDRunConfig(n_steps=10))
        assert builds == 8

    def test_ownership_epoch_per_migration(self, myoglobin, monkeypatch):
        """The slot map and the bonded rows are rebuilt once per rank, then
        only at a step whose owned set a migration changed — counted here
        from the owned masks each rank's force evaluation sees."""
        system, pos = myoglobin
        masks: dict[int, list[np.ndarray]] = {}
        compute_forces = SpatialEngine.compute_forces

        def watched(engine):
            masks.setdefault(engine.rank, []).append(engine.owned_mask.copy())
            return compute_forces(engine)

        monkeypatch.setattr(SpatialEngine, "compute_forces", watched)
        epochs = OWNERSHIP_EPOCHS.snapshot()
        _run(system, pos, 8, "spatial", config=MDRunConfig(n_steps=10))
        changed = sum(
            not np.array_equal(before, after)
            for seen in masks.values()
            for before, after in zip(seen, seen[1:])
        )
        assert sorted(masks) == list(range(8))
        assert all(len(seen) == 10 for seen in masks.values())
        assert 0 < changed < 8 * 9
        assert OWNERSHIP_EPOCHS.delta(epochs) == 8 + changed

    def test_zero_skin_searches_every_step(self, myoglobin):
        """No skin certifies nothing: every rank searches every step."""
        system, pos = myoglobin
        _, builds, fresh = _spatial_counting(
            _with_skin(system, 0.0), pos, 8, MDRunConfig(n_steps=10)
        )
        assert builds == 80
        assert fresh == 0  # a list built this step knows every atom

    def test_zero_skin_bit_identical(self, water):
        """... through the same code, with the same bits out."""
        system, pos = water
        bare = _with_skin(system, 0.0)
        _assert_bit_identical(
            _run(bare, pos, 2, "spatial"), _run(bare, pos, 2, "replicated")
        )

    def test_tiny_skin_rebuilds_every_few_steps(self, water):
        system, pos = water
        thin = _with_skin(system, 0.6)
        cfg = LONG_WATER
        res, builds, _ = _spatial_counting(thin, pos, 2, cfg)
        assert 2 * 2 <= builds < 2 * cfg.n_steps
        _assert_bit_identical(res, _run(thin, pos, 2, "replicated", config=cfg))

    def test_skin_too_wide_for_the_tree(self, water):
        """r_cut + skin beyond half the box: no toroidal tree query, the
        build enumerates all known pairs — the exact test still decides."""
        system, pos = water
        wide = _with_skin(system, 5.0)
        assert wide.scheme.list_cutoff > 0.5 * wide.box.lengths.min()
        _assert_bit_identical(
            _run(wide, pos, 2, "spatial"), _run(wide, pos, 2, "replicated")
        )

    @pytest.mark.parametrize(
        "plane,event", [(34.0, "enters the halo"), (24.0, "migrates in")]
    )
    def test_atom_crossing_after_the_build(self, myoglobin, plane, event):
        """Myoglobin at p=8 is a (4, 1, 2) grid of 24 A slabs in x under a
        10 A cutoff: the ranks at x-cell 0 own [0, 24) and know ghosts up
        to 34.  The fastest atom moving down in x is put just above
        ``plane``, so one step after the lists are built it crosses the
        halo edge (a new ghost) or the cell face (a new owned atom): both
        are the fresh-atom rule's to pair."""
        system, pos = myoglobin
        vel = maxwell_boltzmann_velocities(
            system.masses, CFG.temperature, np.random.default_rng(CFG.velocity_seed)
        )
        atom = int(np.argmin(vel[:, 0]))
        shifted = pos.copy()
        shifted[:, 0] += plane + 0.4 * abs(vel[atom, 0]) * CFG.dt - pos[atom, 0]
        res, builds, fresh = _spatial_counting(system, shifted, 8, CFG)
        x_before = system.box.wrap(shifted)[atom, 0]
        x_after = system.box.wrap(res.final_positions)[atom, 0]
        assert x_after < plane < x_before, f"the atom never {event}"
        assert builds == 8  # no rebuild covered for the crossing
        assert fresh > 0
        _assert_bit_identical(res, _run(system, shifted, 8, "replicated"))


class _Assembly(list):
    """A test's ``pair_terms`` consumer: every tile's accepted rows,
    concatenated in list order into ``(i, j, e_lj, e_el, fvec)``."""

    def __call__(self, start, part):
        self.append(part)

    def result(self, filled):
        return tuple(np.concatenate(col) for col in zip(*self))


def _assembled(kern, positions, rows):
    return kern.pair_terms(positions, *rows, None, _Assembly())


def _row_slice(j, starts, rows):
    """Rows ``rows`` (a slice) of a list, as a list of their own: the
    partner column's slice, and the row starts clipped to it."""
    return j[rows], np.clip(starts, rows.start, rows.stop)


class TestFreshAtomRule:
    """White box, one rank: after the build, a hand-placed ghost and a
    hand-made migration must leave exactly the rows the replicated kernel
    accepts from the replicated list — restricted to this rank."""

    @staticmethod
    def _refill(engine, world):
        """What a step's halo exchange leaves behind: owned atoms at their
        world coordinates, every other atom within ``r_cut`` of the slab a
        ghost, the rest NaN."""
        owned = engine.owned_mask
        engine.positions[owned] = world[owned]
        engine.begin_step()
        lo, hi = engine.decomp.region(engine.rank, 0)
        length = engine.box.lengths[0]
        x = engine.box.wrap(world)[:, 0]
        outside = np.where(
            (x >= lo) & (x < hi), 0.0, np.minimum((x - hi) % length, (lo - x) % length)
        )
        ghosts = ~owned & (outside <= engine.r_cut)
        engine.positions[ghosts] = world[ghosts]
        engine.known_mask[ghosts] = True

    @staticmethod
    def _rows(engine):
        rows = engine._step_pairs(np.nonzero(engine.known_mask)[0])
        return _assembled(engine.kernel, engine.positions, rows)

    @staticmethod
    def _replicated_rows(system, world, owned_mask):
        rows = NeighborList(system.box, system.scheme, system.exclusions).build(world)
        i, j, e_lj, e_el, fvec = _assembled(system.nonbonded, world, rows)
        mine = owned_mask[i] | owned_mask[j]
        return i[mine], j[mine], e_lj[mine], e_el[mine], fvec[mine]

    @staticmethod
    def _assert_rows_equal(got, want):
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @pytest.fixture()
    def built(self, water):
        """Rank 0 with its list built on the initial coordinates, and a
        world that has since drifted by less than half the skin."""
        system, pos = water
        engine = _slab_engine(system, pos)
        self._refill(engine, pos)
        self._assert_rows_equal(
            self._rows(engine), self._replicated_rows(system, pos, engine.owned_mask)
        )
        rng = np.random.default_rng(7)
        world = pos + rng.uniform(-0.15, 0.15, size=pos.shape)
        return system, engine, world

    def test_ghost_entering_the_halo_is_paired(self, built):
        system, engine, world = built
        x = system.box.wrap(world)[:, 0]
        unknown = np.nonzero((x > 14.5) & (x < 16.3))[0]  # beyond every pulse
        anchor = np.nonzero(engine.owned_mask)[0][0]
        ghost = unknown[0]
        assert not engine._list.known[ghost]
        world[ghost] = world[anchor] + [7.99, 0.0, 0.0]  # inside r_cut of the anchor
        builds, fresh = PAIRLIST_BUILDS.snapshot(), FRESH_ATOMS.snapshot()
        self._refill(engine, world)
        got = self._rows(engine)
        assert PAIRLIST_BUILDS.delta(builds) == 0
        assert FRESH_ATOMS.delta(fresh) >= 1
        lo, hi = sorted((int(anchor), int(ghost)))
        assert np.any((got[0] == lo) & (got[1] == hi))  # the list never held it
        self._assert_rows_equal(
            got, self._replicated_rows(system, world, engine.owned_mask)
        )

    def test_migration_in_and_out_is_paired(self, built):
        system, engine, world = built
        x = system.box.wrap(world)[:, 0]
        ghosts = np.nonzero(engine.known_mask & ~engine.owned_mask & (x < 7.0))[0]
        arriving = ghosts[np.argmin(x[ghosts])]
        owned = np.nonzero(engine.owned_mask)[0]
        leaving = owned[np.argmax(x[owned])]
        world[arriving, 0], world[leaving, 0] = 6.19, 6.21
        engine.owned_mask[arriving], engine.owned_mask[leaving] = True, False
        builds, fresh = PAIRLIST_BUILDS.snapshot(), FRESH_ATOMS.snapshot()
        self._refill(engine, world)
        got = self._rows(engine)
        assert PAIRLIST_BUILDS.delta(builds) == 0
        assert FRESH_ATOMS.delta(fresh) >= 1
        self._assert_rows_equal(
            got, self._replicated_rows(system, world, engine.owned_mask)
        )


    def test_first_atom_arriving_at_an_empty_rank(self, water):
        """A rank that owned nothing built an empty list: the arriving
        atom's pairs are all the step has.  (Disowning a full slab is
        unphysical, but the engine only sees masks: owned, known, NaN.)"""
        system, pos = water
        engine = _slab_engine(system, pos)
        engine.owned_mask[:] = False
        self._refill(engine, pos)
        assert len(self._rows(engine)[0]) == 0
        x = system.box.wrap(pos)[:, 0]
        arriving = int(np.argmin(np.where(x >= 6.2, x, np.inf)))
        world = pos.copy()
        world[arriving, 0] = 6.19
        engine.owned_mask[arriving] = True
        builds = PAIRLIST_BUILDS.snapshot()
        self._refill(engine, world)
        got = self._rows(engine)
        assert PAIRLIST_BUILDS.delta(builds) == 0
        assert len(got[0]) > 0
        self._assert_rows_equal(
            got, self._replicated_rows(system, world, engine.owned_mask)
        )


@pytest.fixture()
def tiny_fresh_blocks(monkeypatch):
    """One fresh atom per dense block of the fresh-atom rule."""
    monkeypatch.setattr(spatial_engine, "FRESH_BLOCK_BYTES", 1)


class TestBitIdenticalAcrossFreshBlockSeams:
    """The fresh-atom rule's dense test, cut into blocks of one atom: the
    same codes, and the same bits out of a run, as in one block."""

    @pytest.mark.usefixtures("tiny_fresh_blocks")
    @pytest.mark.parametrize("p,middleware", [(8, "mpi"), (2, "cmpi")])
    def test_myoglobin_shift_across_a_rebuild(self, myoglobin, p, middleware):
        system, pos = myoglobin
        res, _, fresh = _spatial_counting(system, pos, p, LONG, middleware=middleware)
        assert fresh > 1  # several atoms, so several blocks
        _assert_bit_identical(
            res, _run(system, pos, p, "replicated", config=LONG, middleware=middleware)
        )

    def test_same_codes(self, water, monkeypatch):
        """Rank 0 after a ghost moved in and atoms migrated both ways."""
        system, pos = water
        engine = _slab_engine(system, pos)
        TestFreshAtomRule._refill(engine, pos)
        TestFreshAtomRule._rows(engine)
        x = system.box.wrap(pos)[:, 0]
        owned = np.nonzero(engine.owned_mask)[0]
        ghosts = np.nonzero(engine.known_mask & ~engine.owned_mask & (x < 7.0))[0]
        world = pos.copy()
        world[ghosts[:3], 0] = 6.19
        engine.owned_mask[ghosts[:3]] = True
        engine.owned_mask[owned[np.argsort(x[owned])[-2:]]] = False
        TestFreshAtomRule._refill(engine, world)
        known = np.nonzero(engine.known_mask)[0]
        mask = engine._ownership().mask
        lst = engine._list
        i = np.repeat(np.arange(system.n_atoms), np.diff(lst.starts))
        whole = engine._fresh_codes(lst, i, known, mask)
        monkeypatch.setattr(spatial_engine, "FRESH_BLOCK_BYTES", 1)
        blocked = engine._fresh_codes(lst, i, known, mask)
        assert len(whole[0]) > 0
        for got, want in zip(blocked, whole):
            assert got.tobytes() == want.tobytes()
        # sorted, absent from the list, and each placed before the first
        # list row whose code exceeds it
        codes, at = whole
        listed = i * system.n_atoms + lst.j
        assert np.all(codes[1:] > codes[:-1])
        assert not np.isin(codes, listed).any()
        assert np.array_equal(at, np.searchsorted(listed, codes))


class TestStreamedStep:
    """A rank's step buckets the pair tiles as they come, and its list
    keeps one index form: the step's bits are pinned by the bit-identity
    suites (tile seams included); these pin what it holds."""

    @pytest.fixture()
    def built(self, water):
        """Rank 0 of four slabs, its list built and its epoch gathered."""
        system, pos = water
        engine = _slab_engine(system, pos)
        TestFreshAtomRule._refill(engine, pos)
        engine.compute_forces()
        return system, engine

    def test_the_list_keeps_row_starts_and_partners(self, built):
        """CHARMM's layout (INBLO, JNB): no ``(m, 2)`` pair array and no
        codes beside it."""
        _, built = built
        lst = built._list
        m = len(lst.ref_d)
        assert m > 0 and len(lst.j) == m
        assert len(lst.starts) == built.n_atoms + 1 and lst.starts[-1] == m
        assert not hasattr(lst, "pairs") and not hasattr(lst, "codes")
        for value in vars(lst).values():
            assert not (isinstance(value, np.ndarray) and value.ndim == 2 and len(value) == m)
        i = np.repeat(np.arange(built.n_atoms), np.diff(lst.starts))
        codes = i * built.n_atoms + lst.j
        assert np.all(i < lst.j) and np.all(codes[1:] > codes[:-1])

    def test_peak_is_one_tile_plus_the_owned_rows(self, built, monkeypatch):
        """tracemalloc's peak over a step of at least four tiles stays
        within the peak of a step of one of its tiles, plus 32 B per owned
        candidate row — the 24 B ``(code, e_lj, e_el)`` the ledger is
        posted — and a 4 KiB slack.  A step that assembled the kernel's
        five list-length arrays and bucketed them (104 B per accepted row)
        overshoots it."""
        T = 2048
        system, engine = built
        j, starts = engine._step_pairs(np.flatnonzero(engine.known_mask))
        n_tiles = len(j) // T
        assert n_tiles >= 4
        monkeypatch.setattr("repro.md.nonbonded.PAIR_TILE_ROWS", T)

        def peak(rows):
            monkeypatch.setattr(engine, "_step_pairs", lambda known: rows)
            for _ in range(2):  # warm once: numpy's small-block caches
                # a fresh ledger each time, so the one step never folds
                engine.ledger = SpatialLedger(system, engine.vdecomp, engine.middleware)
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    engine.compute_forces()
                    top = tracemalloc.get_traced_memory()[1] - base
                finally:
                    tracemalloc.stop()
            return top

        one_tile = max(
            peak(_row_slice(j.copy(), starts, slice(k * T, (k + 1) * T)))
            for k in range(n_tiles)
        )
        n_owned = int(np.diff(starts)[engine.owned_mask].sum())
        assert peak((j, starts)) <= one_tile + 32 * n_owned + 4096


class TestBoundaryAtom:
    """An atom exactly on a cell face belongs to the upper cell."""

    def test_owner_is_upper_cell(self, water):
        system, _ = water
        decomp = SpatialDecomposition.for_cluster(system.box, 2, system.scheme.r_cut)
        assert decomp.grid == (2, 1, 1)
        # 24.8 / 2 == 12.4 exactly in binary FP, so the scaled coordinate
        # is exactly 0.5 and floor(0.5 * 2) == 1: the upper cell, rank 1
        boundary = np.array([[12.4, 1.0, 1.0]])
        assert decomp.owners(boundary)[0] == 1
        assert decomp.cell_coords(boundary)[0, 0] == 1

    def test_run_with_atom_on_the_face(self, water):
        """Ownership of a face atom is consistent across ranks: the run
        neither loses nor double-counts it, and stays bit-identical."""
        system, pos = water
        shifted = pos.copy()
        shifted[:, 0] += 12.4 - shifted[0, 0]
        shifted[0, 0] = 12.4  # exact, whatever the shift rounding did
        _assert_bit_identical(
            _run(system, shifted, 2, "spatial"),
            _run(system, shifted, 2, "replicated"),
        )


class TestMultiPulseHalo:
    """Cutoff wider than a cell: ghosts arrive over several pulses."""

    def test_pulse_count(self, water):
        system, _ = water
        # four slabs of 6.2 A against an 8 A cutoff: two pulses in x
        assert halo_pulses(system.box, (4, 1, 1), system.scheme.r_cut) == (2, 0, 0)

    def test_forced_slab_grid_runs_bit_identical(self, water):
        system, pos = water
        _assert_bit_identical(
            _run(system, pos, 4, "spatial", spatial_grid=(4, 1, 1)),
            _run(system, pos, 4, "replicated"),
        )


class TestUnitGridDimensions:
    """A grid dimension of 1 wraps to self — it must simply not talk."""

    def test_degenerate_dims_do_not_communicate(self, water):
        system, pos = water
        trace = CommTrace()
        # barrier off: its point-to-point rounds would show in the trace
        cfg = MDRunConfig(n_steps=2, dt=0.0004, barrier_per_step=False)
        res = _run(
            system, pos, 2, "spatial",
            config=cfg, spatial_grid=(1, 1, 2), trace=trace,
        )
        assert len(res.energies) == cfg.n_steps
        # only z is split: one halo pulse (2 exchanges) + migration
        # (2 exchanges) per step -> 4 sends per rank per step
        for rank in range(2):
            sends = [e for e in trace.events if e.kind == "send" and e.rank == rank]
            assert len(sends) == 4 * cfg.n_steps

    def test_forced_unit_grid_bit_identical(self, water):
        system, pos = water
        _assert_bit_identical(
            _run(system, pos, 2, "spatial", spatial_grid=(1, 1, 2)),
            _run(system, pos, 2, "replicated"),
        )


class TestNeighbourOnlyScaling:
    """The paper's question, answered structurally: per-rank message
    counts do not grow with p (unlike the replicated allreduce)."""

    @staticmethod
    def _per_rank_sends(system, pos, p):
        trace = CommTrace()
        cfg = MDRunConfig(n_steps=2, dt=0.0004, barrier_per_step=False)
        run_parallel_md(
            system, pos,
            ClusterSpec(n_ranks=p, network=tcp_gigabit_ethernet(), max_nodes=p),
            RunOptions(config=cfg, strategy="spatial", trace=trace),
        )
        counts = {
            rank: sum(1 for e in trace.events if e.kind == "send" and e.rank == rank)
            for rank in range(p)
        }
        return counts, cfg.n_steps

    @pytest.mark.parametrize("p,grid", [(8, (2, 2, 2)), (27, (3, 3, 3))])
    def test_message_count_independent_of_p(self, water, p, grid):
        system, pos = water
        decomp = SpatialDecomposition.for_cluster(system.box, p, system.scheme.r_cut)
        assert decomp.grid == grid
        assert decomp.pulses == (1, 1, 1)
        counts, n_steps = self._per_rank_sends(system, pos, p)
        # 3 dims x (2 halo sends + 2 migrate sends) per step, at EVERY p
        assert set(counts.values()) == {12 * n_steps}


class TestPassiveInstrumentation:
    """Sanitizer and tracing observe a spatial run without changing it."""

    def test_toggles_are_bitwise_invisible(self, water):
        system, pos = water
        plain = _run(system, pos, 4, "spatial")
        watched = _run(
            system, pos, 4, "spatial", sanitize=True, trace=CommTrace()
        )
        _assert_bit_identical(plain, watched)
        assert plain.wall_time() == watched.wall_time()


class TestGeometryUnits:
    def test_grid_for_prefers_wide_dimensions(self, water, myoglobin):
        assert grid_for(water[0].box, 8) == (2, 2, 2)
        assert grid_for(myoglobin[0].box, 8) == (4, 1, 2)
        assert grid_for(water[0].box, 1) == (1, 1, 1)

    def test_pulse_cap_at_grid_minus_one(self):
        # a cutoff spanning the whole ring saturates at G - 1: beyond
        # that a pulse would re-import the rank's own atoms
        box = PeriodicBox(40.0, 40.0, 40.0)
        assert halo_pulses(box, (4, 1, 1), 35.0) == (3, 0, 0)
        # legal cutoffs never hit the cap, only multi-pulse counts
        assert halo_pulses(box, (4, 1, 1), 19.0) == (2, 0, 0)

    def test_grid_validation(self, water):
        system, _ = water
        with pytest.raises(ValueError, match="cells for"):
            SpatialDecomposition.for_cluster(
                system.box, 4, system.scheme.r_cut, grid=(2, 1, 1)
            )
        with pytest.raises(ValueError, match=">= 1"):
            SpatialDecomposition.for_cluster(
                system.box, 2, system.scheme.r_cut, grid=(-2, 1, -1)
            )


class TestHardFailures:
    def test_spatial_rejects_pme(self):
        system, pos = build_workload("myoglobin-pme")
        with pytest.raises(ValueError, match="classic"):
            _run(system, pos, 2, "spatial")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            RunOptions(strategy="scattered")

    def test_migration_rejects_multi_cell_hop(self, water):
        """An atom teleporting two cells in one step is a hard error,
        matching the single-hop schedule the contract declares."""
        system, pos = water
        engine = _slab_engine(system, pos)
        engine.begin_step()
        moved = np.nonzero(engine.owned_mask)[0][0]
        engine.positions[moved, 0] = 15.5  # cell 2 of 4: two hops from cell 0
        with pytest.raises(RuntimeError, match="more than one cell"):
            engine.migrate_payload(0, 0)

    def test_multi_cell_hop_error_is_typed_and_actionable(self, water):
        """Both checks name the rank, step, atoms (and axis when known),
        and say what to change; the error survives a process boundary."""
        system, pos = water
        engine = _slab_engine(system, pos)
        engine.begin_step()
        moved = int(np.nonzero(engine.owned_mask)[0][0])
        engine.positions[moved, 0] = 15.5  # cell 2 of 4: two hops from cell 0
        with pytest.raises(SpatialMigrationError) as hop:
            engine.migrate_payload(0, 0)
        err = hop.value
        assert (err.rank, err.step, err.dim, err.atoms) == (0, 0, 0, (moved,))
        assert "shorter timestep" in str(err) and "fewer ranks" in str(err)
        with pytest.raises(SpatialMigrationError) as stray:
            engine.end_step()
        assert (stray.value.rank, stray.value.step, stray.value.dim) == (0, 0, None)
        assert stray.value.atoms == (moved,)
        copy = pickle.loads(pickle.dumps(err))
        assert isinstance(copy, SpatialMigrationError) and str(copy) == str(err)


class TestLedger:
    """The eager fold: a step is reduced when its last rank has posted."""

    @staticmethod
    def _post_full_bonded(ledger, system, step=0, skip_last_bond=False):
        t = system.bonded_tables
        for term, idx in (
            ("bond", t.bond_idx),
            ("angle", t.angle_idx),
            ("dihedral", t.dihedral_idx),
            ("improper", t.improper_idx),
        ):
            rows = np.arange(len(idx) - (skip_last_bond and term == "bond"))
            ledger.post_bonded(term, step, rows, np.zeros(len(rows)))

    @staticmethod
    def _pair(system, i, j, e_lj):
        """One pair's post: its code ``i * n_atoms + j`` and energies."""
        return np.array([i * system.n_atoms + j]), np.array([e_lj]), np.zeros(1)

    def test_duplicate_pair_is_rejected(self, water):
        """Two ranks claiming one pair: caught when the step folds."""
        system, _ = water
        ledger = SpatialLedger(system, AtomDecomposition(system.n_atoms, 2), "mpi")
        self._post_full_bonded(ledger, system)
        ledger.post_pairs(0, *self._pair(system, 0, 1, 1.0))
        with pytest.raises(RuntimeError, match="posted twice"):
            ledger.post_pairs(0, *self._pair(system, 0, 1, 1.0))

    def test_post_after_the_fold_is_rejected(self, water):
        """A rank posting a step twice lands on a step already folded."""
        system, _ = water
        ledger = SpatialLedger(system, AtomDecomposition(system.n_atoms, 1), "mpi")
        self._post_full_bonded(ledger, system)
        ledger.post_pairs(0, *self._pair(system, 0, 1, 1.0))
        with pytest.raises(RuntimeError, match="posted twice"):
            ledger.post_pairs(0, *self._pair(system, 2, 3, 1.0))
        with pytest.raises(RuntimeError, match="posted twice"):
            ledger.post_bonded("bond", 0, np.arange(1), np.zeros(1))

    def test_missing_bonded_row_is_rejected(self, water):
        """Exactly-once coverage: a row nobody claimed fails the fold
        instead of silently summing as zero."""
        system, _ = water
        ledger = SpatialLedger(system, AtomDecomposition(system.n_atoms, 1), "mpi")
        self._post_full_bonded(ledger, system, skip_last_bond=True)
        with pytest.raises(RuntimeError, match="never posted"):
            ledger.post_pairs(0, *self._pair(system, 0, 1, 1.0))

    def test_missing_rank_is_rejected(self, water):
        """A step one rank never closed cannot be assembled."""
        system, _ = water
        ledger = SpatialLedger(system, AtomDecomposition(system.n_atoms, 2), "mpi")
        self._post_full_bonded(ledger, system)
        ledger.post_pairs(0, *self._pair(system, 0, 1, 1.0))
        with pytest.raises(RuntimeError, match="1 of 2 ranks were never posted"):
            ledger.assemble()

    def test_steps_completing_out_of_order(self, water):
        """Ranks pipeline freely: step 1 may fold before step 0 does.
        Each fold keeps one EnergyBreakdown and drops the rows."""
        system, _ = water
        ledger = SpatialLedger(system, AtomDecomposition(system.n_atoms, 2), "cmpi")
        for step in (0, 1):  # the fast rank runs ahead
            self._post_full_bonded(ledger, system, step)
            ledger.post_pairs(step, *self._pair(system, 0, 1, 10.0 + step))
        assert sorted(ledger._open) == [0, 1]
        ledger.post_pairs(1, *self._pair(system, 2, 3, 0.5))  # the slow rank, out of order
        assert sorted(ledger._open) == [0]
        ledger.post_pairs(0, *self._pair(system, 2, 3, 0.25))
        assert not ledger._open
        assert [e.lj for e in ledger.assemble()] == [10.25, 11.5]

    def test_pairs_fold_per_virtual_rank(self, water):
        """Posts interleave within a virtual rank's block: each block is
        merged in code order and summed as one contiguous array."""
        system, _ = water
        n = system.n_atoms
        vdecomp = AtomDecomposition(n, 2)
        split = vdecomp.bounds[1]
        ledger = SpatialLedger(system, vdecomp, "mpi")
        self._post_full_bonded(ledger, system)
        e = [1e16, 1.0, -1e16]  # order-sensitive under np.sum
        ledger.post_pairs(
            0, np.array([0 * n + 5, 1 * n + 2, split * n + split + 1]),
            np.array([e[0], e[2], 7.0]), np.zeros(3),
        )
        ledger.post_pairs(
            0, np.array([0 * n + 9, (split + 2) * n + split + 3]),
            np.array([e[1], 0.5]), np.zeros(2),
        )
        # block 0 in code order: (0, 5), (0, 9), (1, 2)
        assert ledger.assemble()[0].lj == float(np.sum(e)) + 7.5

    @staticmethod
    def _assert_refused(system, codes):
        ledger = SpatialLedger(system, AtomDecomposition(system.n_atoms, 2), "mpi")
        with pytest.raises(ValueError, match="strictly ascending"):
            ledger.post_pairs(0, np.array(codes), np.zeros(2), np.zeros(2))
        assert not ledger._open  # nothing of the refused post was kept

    def test_pairs_out_of_order_are_rejected(self, water):
        system, _ = water
        n = system.n_atoms
        self._assert_refused(system, [3 * n + 4, 1 * n + 2])

    def test_a_pair_twice_in_one_post_is_rejected(self, water):
        """Caught at the post; across posts, at the fold (above)."""
        system, _ = water
        n = system.n_atoms
        self._assert_refused(system, [1 * n + 2, 1 * n + 2])

    def test_unknown_middleware_is_rejected(self, water):
        system, _ = water
        with pytest.raises(ValueError, match="middleware"):
            SpatialLedger(system, AtomDecomposition(system.n_atoms, 1), "pvm")
