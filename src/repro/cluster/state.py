"""Runtime network state: NIC occupancy, interrupt queues, congestion.

:func:`ClusterState.plan_transfer` is the single point where a message's
wire timing is decided.  It models:

* **NIC serialization** — a node's link carries one transfer at a time;
  overlapping transfers queue (``nic_free``).
* **Interrupt bottleneck** — on interrupt-driven stacks (TCP/IP) receive
  processing serializes on one CPU per node (``irq_free``); with two
  ranks per node both streams share it, which is the paper's explanation
  for the dual-processor collapse on TCP (Sec. 4.3).
* **Congestion-dependent efficiency** — each transfer samples a
  lognormal efficiency whose mean and spread degrade with the number of
  transfers in flight, reproducing the throughput variability of Figure 7
  that "starts abruptly with four processors".
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .machine import ClusterSpec
from .network import IntranodeParams, NetworkParams

__all__ = ["TransferPlan", "TransferRecord", "ClusterState"]

#: No transfer drops below 6% of peak — even a collapsed TCP stream makes
#: some progress between retransmit timeouts.
_EFFICIENCY_FLOOR = 0.06


class TransferPlan(NamedTuple):
    """Resolved timing of one message transfer.

    Named tuples, not frozen dataclasses: two of these are built per
    message, and a frozen dataclass costs a microsecond to construct.
    """

    start: float  # instant the data begins to move
    end: float  # instant the payload is fully delivered
    nbytes: int
    efficiency: float  # sampled fraction of peak bandwidth
    intranode: bool

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def rate(self) -> float:
        """Achieved payload rate in bytes/second."""
        return self.nbytes / self.duration if self.duration > 0 else float("inf")


class TransferRecord(NamedTuple):
    """One logged transfer (feeds the Figure 7 statistics)."""

    start: float
    end: float
    src_node: int
    dst_node: int
    nbytes: int

    @property
    def rate(self) -> float:
        return self.nbytes / (self.end - self.start) if self.end > self.start else 0.0


@dataclass
class _ActiveTransfers:
    """Interval bookkeeping for the congestion estimate.

    The congestion proxy is the *offered load*: how many transfers are
    still pending (queued on a NIC or on the wire) when a new one is
    requested.  Queued flows matter — TCP incast collapses under offered
    load even though the NIC serializes the actual wire occupancy.
    """

    ends: list[float] = field(default_factory=list)
    grace: float = 1.0  # seconds of history kept for late queries

    def count_pending(self, t: float) -> int:
        # ``ends`` is kept sorted, so "how many transfers are still pending
        # at t" is a suffix length.  Pruning drops only entries with
        # e <= t - grace, which can never satisfy e > t for this or any
        # later (grace-bounded) query — counts are unaffected.
        ends = self.ends
        if len(ends) > 4096:
            keep_from = bisect.bisect_right(ends, t - self.grace)
            if keep_from:
                del ends[:keep_from]
        return len(ends) - bisect.bisect_right(ends, t)

    def add(self, start: float, end: float) -> None:
        bisect.insort(self.ends, end)


class ClusterState:
    """Mutable per-run network state for one simulated cluster.

    ``plan_validator`` is an optional hook called as ``validator(plan,
    ready_time)`` on every planned transfer; the runtime sanitizer uses
    it to assert non-negative, causally ordered transfer windows.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        plan_validator: Callable[[TransferPlan, float], None] | None = None,
    ) -> None:
        self.spec = spec
        self._plan_validator = plan_validator
        self.net: NetworkParams = spec.network
        # per-node instants the NIC / the interrupt CPU is next free; plain
        # float lists (one element read or written per transfer — numpy
        # scalar indexing would cost more than the arithmetic)
        self.nic_free = [0.0] * spec.n_nodes
        self.irq_free = [0.0] * spec.n_nodes
        self.rng = np.random.default_rng(spec.seed)
        self._active = _ActiveTransfers()
        #: the efficiency law's (mean, log-mean, sigma) per pending-transfer
        #: count
        self._laws: dict[int, tuple[float, float, float]] = {}
        self.transfers: list[TransferRecord] = []
        # dual-CPU nodes on interrupt-driven stacks hit the SMP pathologies
        self._smp = spec.node.cpus_per_node == 2 and spec.network.uses_interrupts
        self._irq_cost = spec.network.irq_cost * (
            spec.network.smp_irq_multiplier if self._smp else 1.0
        )

    # ------------------------------------------------------------------
    def sample_efficiency(self, at_time: float) -> float:
        """Fraction of peak bandwidth for a transfer requested at ``at_time``."""
        k = self._active.count_pending(at_time)  # queued + in-flight transfers
        law = self._laws.get(k)
        if law is None:
            net = self.net
            mean = net.base_efficiency * float(np.exp(-net.congestion_sensitivity * k))
            sigma = min(net.variability + net.congestion_variability * k, 1.0)
            law = self._laws[k] = (mean, -0.5 * sigma * sigma, sigma)
        mean, mu, sigma = law
        if sigma <= 0:
            # scalar clamp; min/max give the same value as np.clip without
            # the array round-trip (this runs once per transfer)
            return min(max(mean, _EFFICIENCY_FLOOR), 1.0)
        draw = mean * float(self.rng.lognormal(mu, sigma))
        return min(max(draw, _EFFICIENCY_FLOOR), 1.0)

    # ------------------------------------------------------------------
    def plan_transfer(
        self, src_node: int, dst_node: int, nbytes: int, ready_time: float
    ) -> TransferPlan:
        """Decide when a payload moves and when it is fully delivered.

        ``ready_time`` is the earliest instant the transfer may begin
        (sender data available, and for rendezvous messages the handshake
        completion).
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        net = self.net
        if src_node == dst_node:
            plan = self._plan_intranode(dst_node, nbytes, ready_time, net.intranode)
            if self._plan_validator is not None:
                self._plan_validator(plan, ready_time)
            return plan

        nic_free = self.nic_free
        start = max(float(ready_time), nic_free[src_node], nic_free[dst_node])
        eff = self.sample_efficiency(ready_time)
        if self._smp:
            eff *= net.smp_efficiency_penalty
        occupancy = nbytes / (net.bandwidth * eff)
        packets = net.packets(nbytes)
        wire = net.latency + occupancy + packets * net.packet_overhead
        nic_free[src_node] = nic_free[dst_node] = start + occupancy
        end = start + wire

        if net.uses_interrupts:
            irq_time = packets * self._irq_cost
            irq_start = max(end - irq_time, self.irq_free[dst_node])
            end = irq_start + irq_time
            self.irq_free[dst_node] = end

        self._active.add(start, end)
        # positional: keyword construction of a named tuple costs more
        self.transfers.append(TransferRecord(start, end, src_node, dst_node, nbytes))
        plan = TransferPlan(start, end, nbytes, eff, False)
        if self._plan_validator is not None:
            self._plan_validator(plan, ready_time)
        return plan

    # ------------------------------------------------------------------
    def _plan_intranode(
        self, node: int, nbytes: int, ready_time: float, path: IntranodeParams
    ) -> TransferPlan:
        start = float(ready_time)
        duration = path.latency + nbytes / path.bandwidth
        end = start + duration
        if path.uses_interrupts:
            # loopback still raises softirqs; serialize on the node's
            # interrupt CPU like a real receive
            irq_time = self.net.packets(nbytes) * self._irq_cost
            irq_start = max(end - irq_time, self.irq_free[node])
            end = irq_start + irq_time
            self.irq_free[node] = end
        return TransferPlan(start, end, nbytes, 1.0, True)
