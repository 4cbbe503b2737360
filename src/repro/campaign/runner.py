"""The characterization runner: execute design points, collect responses.

This is the paper's measurement harness over one in-memory workload: for
each design point it runs the 10-step MD energy calculation on the
simulated platform and records the response variables.  It is a view
over the campaign layer, not a second executor: a response record is
looked up in the content-addressed store (:mod:`repro.campaign.store`)
under the same key a :class:`~repro.campaign.engine.CampaignEngine`
would use, and a miss runs through the engine's executor
(:func:`~repro.campaign.engine.execute_built`).  So any two runners or
engines over the same workload — in the same process or via a shared
persistent store, across processes — resolve to the same entries and
never duplicate work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.design import DesignPoint
from ..core.factors import PlatformConfig
from ..core.responses import ResponseRecord
from ..md.system import MDSystem
from ..parallel.costmodel import PIII_1GHZ, MachineCostModel
from ..parallel.pmd import MDRunConfig
from ..parallel.shared import TrajectorySession
from .engine import execute_built
from .keys import cache_key, workload_fingerprint
from .store import ResultStore, shared_memory_store

__all__ = ["CharacterizationRunner"]


@dataclass
class CharacterizationRunner:
    """Runs design points over one workload.

    Parameters
    ----------
    system:
        The MD system under study (the paper's myoglobin benchmark, or
        any other workload).
    positions:
        Initial coordinates.
    config:
        MD run parameters; the paper measures 10 steps.
    cost:
        Machine cost model.
    base_seed:
        Per-point seeds are derived deterministically from this.
    store:
        Response-record store.  Defaults to the process-wide in-memory
        store; pass a persistent :class:`ResultStore` to share records
        across processes (warm-cache figure regeneration then performs
        zero MD work).
    """

    system: MDSystem
    positions: np.ndarray
    config: MDRunConfig = field(default_factory=MDRunConfig)
    cost: MachineCostModel = PIII_1GHZ
    base_seed: int = 2002
    store: ResultStore | None = None

    _fingerprint: str | None = field(default=None, init=False, repr=False)
    _session: TrajectorySession | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.store is None:
            self.store = shared_memory_store()

    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """Content hash of this runner's workload (computed once)."""
        if self._fingerprint is None:
            self._fingerprint = workload_fingerprint(self.system, self.positions)
        return self._fingerprint

    def point_key(self, point: DesignPoint) -> str:
        """The content address of one design point's response record."""
        return cache_key(self.fingerprint, point, self.config, self.cost, self.base_seed)

    @property
    def session(self) -> TrajectorySession:
        """The runner's trajectory session: every platform variant of a
        ``(p, middleware)`` trajectory this runner executes after the first
        replays that first run's op streams."""
        if self._session is None:
            self._session = TrajectorySession()
        return self._session

    # ------------------------------------------------------------------
    def run_record(self, point: DesignPoint) -> ResponseRecord:
        """One response row, through the store: hits perform no MD work."""
        key = self.point_key(point)
        cached = self.store.get(key)
        if cached is not None:
            return cached
        record = execute_built(
            self.system, self.positions, point, self.config, self.cost, self.base_seed,
            session=self.session,
        )
        self.store.put(key, record, {"label": point.label(), "source": "runner"})
        return record

    def measure(self, points: list[DesignPoint]) -> list[ResponseRecord]:
        """Run a whole design; returns one response row per point."""
        return [self.run_record(p) for p in points]

    def sweep(
        self, config: PlatformConfig, processor_levels: tuple[int, ...] = (1, 2, 4, 8)
    ) -> list[ResponseRecord]:
        """Processor-count sweep at a fixed platform configuration."""
        points = [DesignPoint(config=config, n_ranks=p) for p in processor_levels]
        return self.measure(points)
