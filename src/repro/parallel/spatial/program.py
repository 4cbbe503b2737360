"""The spatial SPMD rank program: halo exchange, compute, migrate.

Structure of one step:

* **classic phase** — (optional) barrier;
* **halo phase** — for every split grid dimension, ``pulses[dim]``
  paired neighbour exchanges per side: ghost coordinates within the
  cutoff flow in from both neighbours, multi-pulse when the cutoff
  exceeds a region width (arrivals are forwarded verbatim one region
  further per pulse);
* **classic phase** — force evaluation and leapfrog integration of the
  rank's owned atoms (the engine replays the replicated-data
  accumulation orders so trajectories are bit-identical);
* **migrate phase** — one paired exchange per side per split dimension
  moving atoms that crossed a cell face, with their velocities.

This module is deliberately *only* the communication skeleton: control
flow depends on nothing but the decomposition's grid and pulse counts,
so the static verifier (:mod:`repro.analysis.static_schedule`) can
interpret it per (rank, p) — running the real ``mw.exchange`` against a
recording endpoint — and prove the schedule deadlock-free without
executing any physics.  All numerics live behind the opaque ``engine``
object (:class:`repro.parallel.spatial.engine.SpatialEngine`).

Every exchange draws a fresh collective tag and posts its receive
before its send (:meth:`~repro.mpi.endpoint.RankEndpoint.sendrecv`), so
the neighbour rings cannot deadlock under rendezvous semantics.
"""

from __future__ import annotations

__all__ = ["spatial_rank_program"]


def spatial_rank_program(ep, mw, decomp, engine, config):
    """Generator driven by the simulator; returns the engine's outcome.

    ``decomp`` supplies the concrete rank-grid geometry (``grid`` and
    ``pulses`` tuples); ``engine`` owns every coordinate, force and
    ledger operation.  The communication schedule below is a pure
    function of (rank, grid, pulses) — identical on every rank, which
    is what makes the paired exchanges match up.
    """
    tl = ep.timeline
    grid = decomp.grid
    pulses = decomp.pulses
    gx, gy, gz = grid
    strides = (gy * gz, gz, 1)
    coords = (ep.rank // (gy * gz), (ep.rank // gz) % gy, ep.rank % gz)

    for _step in range(config.n_steps):
        with tl.phase("classic"):
            if config.barrier_per_step:
                yield from mw.barrier(ep)

        with tl.phase("halo"):
            engine.begin_step()
            for dim in range(3):
                if grid[dim] > 1:
                    minus_c = (coords[dim] - 1) % grid[dim]
                    plus_c = (coords[dim] + 1) % grid[dim]
                    minus = ep.rank + (minus_c - coords[dim]) * strides[dim]
                    plus = ep.rank + (plus_c - coords[dim]) * strides[dim]
                    for k in range(pulses[dim]):
                        tag_down = ep.next_collective_tag("halo")
                        down = engine.halo_payload(dim, k, 0)
                        from_plus = yield from mw.exchange(ep, minus, down, plus, tag_down)
                        engine.halo_receive(dim, k, 0, from_plus)
                        tag_up = ep.next_collective_tag("halo")
                        up = engine.halo_payload(dim, k, 1)
                        from_minus = yield from mw.exchange(ep, plus, up, minus, tag_up)
                        engine.halo_receive(dim, k, 1, from_minus)

        with tl.phase("classic"):
            yield from ep.compute(engine.compute_forces())
            yield from ep.compute(engine.integrate(config.dt))

        with tl.phase("migrate"):
            for dim in range(3):
                if grid[dim] > 1:
                    minus_c = (coords[dim] - 1) % grid[dim]
                    plus_c = (coords[dim] + 1) % grid[dim]
                    minus = ep.rank + (minus_c - coords[dim]) * strides[dim]
                    plus = ep.rank + (plus_c - coords[dim]) * strides[dim]
                    tag_down = ep.next_collective_tag("migrate")
                    down = engine.migrate_payload(dim, 0)
                    from_plus = yield from mw.exchange(ep, minus, down, plus, tag_down)
                    engine.migrate_receive(dim, from_plus)
                    tag_up = ep.next_collective_tag("migrate")
                    up = engine.migrate_payload(dim, 1)
                    from_minus = yield from mw.exchange(ep, plus, up, minus, tag_up)
                    engine.migrate_receive(dim, from_minus)
            engine.end_step()

    return engine.outcome()
