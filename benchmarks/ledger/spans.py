"""Host-time spans taken from outside the program.

The ledger's per-layer numbers come from timing wrappers that this file
installs *around* the program's public callables — nothing under
``src/`` knows it is being measured (in-program spans are a later
issue).  A wrapper pushes a frame on one process-wide stack when its
callable is entered and pops it on return; a frame's **self time** is
its duration minus the time its children covered, so every host second
inside the root span is charged to exactly one layer.

Generator-valued callables (the middleware collectives, the distributed
FFT) are timed **per resume segment**: the simulator interleaves the
rank programs of all ranks, so one collective's wall interval contains
other ranks' work — only the stretches in which *this* generator is
actually running belong to it.

Layer names are the program's module names (``md.nonbonded``,
``parallel.pfft``, ...).  ``BINDINGS`` lists every patched name; a
``from``-import binds a function into the importing module, so those
are patched where they are *used* (``parallel.pclassic`` for the bonded
kernel), which is what the binding guard in ``worker.py`` protects.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict
from functools import wraps

__all__ = ["BINDINGS", "COUNTERS", "SpanRecorder", "install"]


class SpanRecorder:
    """One nesting-aware span stack plus per-layer accumulators."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: calls per patched name (``"NeighborList.build"``), and the
        #: plain event counters of ``COUNTERS``
        self.target_calls: dict[str, int] = defaultdict(int)
        #: rows of work handed to a layer (pair rows for the kernel)
        self.work: dict[str, int] = defaultdict(int)
        #: most negative self time any frame produced (0.0 = none): the
        #: self-test asserts nesting never drives this below zero
        self.min_self = 0.0
        self._stack: list[list] = []  # frames: [layer, start, child_seconds]

    # -- the stack ------------------------------------------------------
    def enter(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0.0])

    def leave(self) -> None:
        layer, start, child = self._stack.pop()
        duration = self.clock() - start
        own = duration - child
        if own < self.min_self:
            self.min_self = own
        self.self_s[layer] += own
        if self._stack:
            self._stack[-1][2] += duration

    @property
    def depth(self) -> int:
        return len(self._stack)

    def total_self(self) -> float:
        return sum(self.self_s.values())

    # -- wrappers -------------------------------------------------------
    def wrap(self, layer: str, fn, target: str | None = None, work=None):
        """A timing wrapper around ``fn`` charging ``layer``.

        ``target`` names the patched callable for per-name call counts;
        ``work``, when given, maps the call's positional arguments to a
        row count added to ``self.work[layer]``.
        """
        target = target or getattr(fn, "__qualname__", repr(fn))
        rec = self

        if inspect.isgeneratorfunction(fn):

            @wraps(fn)
            def gen_wrapper(*args, **kwargs):
                rec.calls[layer] += 1
                rec.target_calls[target] += 1
                gen = fn(*args, **kwargs)
                sent = None
                while True:
                    rec.enter(layer)
                    try:
                        effect = gen.send(sent)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        rec.leave()
                    sent = yield effect

            return gen_wrapper

        @wraps(fn)
        def wrapper(*args, **kwargs):
            rec.calls[layer] += 1
            rec.target_calls[target] += 1
            if work is not None:
                rec.work[layer] += work(args)
            rec.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.leave()

        return wrapper

    def count(self, name: str, fn, amount=None):
        """A wrapper that only counts (no span): calls to ``fn``, or the
        sum of ``amount(args)`` over them."""
        counts = self.target_calls

        @wraps(fn)
        def counter(*args, **kwargs):
            counts[name] += 1 if amount is None else amount(args)
            return fn(*args, **kwargs)

        return counter


def _pair_rows(args) -> int:
    # NonbondedKernel.compute / .pair_terms (self, positions, pairs, ...)
    return len(args[2])


#: (layer, "module:attr.path", work-row function or None).  The attribute
#: path is resolved on the module, so ``Class.method`` patches the class
#: and a bare name patches the module global (the ``from``-import case).
BINDINGS: list[tuple[str, str, object]] = [
    ("parallel.run", "repro.parallel.run:run_parallel_md", None),
    ("parallel.run", "repro.campaign.engine:run_parallel_md", None),
    ("sim", "repro.sim.engine:Simulator.run", None),
    *[
        ("mpi", f"repro.mpi.middleware:MPIMiddleware.{verb}", None)
        for verb in ("barrier", "allreduce", "allgatherv", "alltoallv", "exchange")
    ],
    *[
        ("cmpi", f"repro.cmpi.middleware:CMPIMiddleware.{verb}", None)
        for verb in ("barrier", "allreduce", "allgatherv", "alltoallv", "exchange", "sync")
    ],
    # compute() evaluates its rows through pair_terms(); the spatial engine
    # calls pair_terms() directly, so rows are counted there only
    ("md.nonbonded", "repro.md.nonbonded:NonbondedKernel.compute", None),
    ("md.nonbonded", "repro.md.nonbonded:NonbondedKernel.pair_terms", _pair_rows),
    ("md.neighborlist", "repro.md.neighborlist:NeighborList.build", None),
    ("md.neighborlist", "repro.md.neighborlist:NeighborList.step_prefilter", None),
    ("md.bonded", "repro.parallel.pclassic:bonded_energy_forces", None),
    *[
        ("md.bonded", f"repro.parallel.spatial.engine:{term}_row_terms", None)
        for term in ("bond", "angle", "dihedral", "improper")
    ],
    ("pme.grid.stencil", "repro.pme.grid:ChargeMesh.stencil", None),
    ("pme.grid.spread", "repro.pme.grid:ChargeMesh.spread", None),
    ("pme.grid.interpolate", "repro.pme.grid:ChargeMesh.interpolate_forces", None),
    ("parallel.pfft", "repro.parallel.pfft:DistributedFFT.forward", None),
    ("parallel.pfft", "repro.parallel.pfft:DistributedFFT.inverse", None),
    ("parallel.spatial.forces", "repro.parallel.spatial.engine:SpatialEngine.compute_forces", None),
    *[
        ("parallel.spatial.halo", f"repro.parallel.spatial.engine:SpatialEngine.{name}", None)
        for name in ("halo_payload", "halo_receive", "migrate_payload", "migrate_receive")
    ],
    *[
        ("parallel.spatial.ledger", f"repro.parallel.spatial.engine:SpatialLedger.{name}", None)
        for name in ("post_bonded", "post_pairs", "assemble")
    ],
    ("parallel.spatial.integrate", "repro.parallel.spatial.engine:SpatialEngine.integrate", None),
    ("campaign.federation", "repro.campaign.federation:publish_campaign", None),
    ("campaign.federation", "repro.campaign.federation:work_campaign", None),
    ("campaign.engine", "repro.campaign.engine:execute_point", None),
    ("campaign.engine", "repro.campaign.federation:execute_point", None),
    ("campaign.keys", "repro.campaign.engine:CampaignEngine.key_for", None),
    ("campaign.store.put", "repro.campaign.store:ResultStore.put", None),
    ("campaign.store.load", "repro.campaign.store:ResultStore.__init__", None),
    ("campaign.store.merge", "repro.campaign.federation:merge_into_store", None),
    *[
        ("campaign.leases", f"repro.campaign.leases:LeaseBoard.{verb}", None)
        for verb in ("claim", "heartbeat", "complete")
    ],
    ("campaign.analytics", "repro.campaign.analytics:run_analysis", None),
]

def _transfer_bytes(args) -> int:
    # ClusterState.plan_transfer(self, src_node, dst_node, nbytes, ready_time)
    return args[3]


#: counters without a span: (counter name, "module:attr.path", amount
#: function or None for plain call counts)
COUNTERS: list[tuple[str, str, object]] = [
    ("sim.events", "repro.sim.engine:Simulator.schedule", None),
    ("mpi.messages", "repro.mpi.endpoint:RankEndpoint.isend", None),
    ("mpi.bytes", "repro.cluster.state:ClusterState.plan_transfer", _transfer_bytes),
    ("mpi.collectives", "repro.mpi.endpoint:RankEndpoint.next_collective_tag", None),
]

#: every span layer, in report order
LAYERS: list[str] = list(dict.fromkeys(layer for layer, _, _ in BINDINGS))


def _resolve(spec: str):
    """``"module:a.b"`` -> (owner object, attribute name, current value)."""
    module_name, _, path = spec.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def install(recorder: SpanRecorder) -> None:
    """Patch every binding; raises if a name no longer resolves.

    The same function object reached through two names (``execute_point``
    in its home module and ``from``-imported into the federation module)
    gets one shared wrapper, so a call is never double-counted.
    """
    wrapped: dict[int, object] = {}
    for layer, spec, work in BINDINGS:
        owner, attr, fn = _resolve(spec)
        if getattr(fn, "__ledger_wrapped__", False):
            raise RuntimeError(f"{spec} is already wrapped")
        wrapper = wrapped.get(id(fn))
        if wrapper is None:
            wrapper = recorder.wrap(layer, fn, target=spec.partition(":")[2], work=work)
            wrapper.__ledger_wrapped__ = True
            wrapped[id(fn)] = wrapper
        setattr(owner, attr, wrapper)
    for name, spec, amount in COUNTERS:
        owner, attr, fn = _resolve(spec)
        setattr(owner, attr, recorder.count(name, fn, amount))
