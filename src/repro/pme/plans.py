"""FFT plan / work-array cache for the PME mesh pipeline.

numpy's pocketfft plans transforms internally, but every step of the
PME pipeline still re-allocates the arrays *around* the transforms: the
complex cast of the spread mesh, the influence-function product fed to
the inverse FFT, the stencil scratch.  :class:`PlanCache` keeps those
work arrays alive across steps, keyed by ``(tag, shape, dtype)`` — the
mesh-shape analogue of the ``lru_cache``'d B-spline moduli and influence
function (:func:`repro.pme.pme.influence_function`).

Rules that keep reuse bitwise-invisible:

* Buffers are only handed to exact-rewrite operations (``out=`` ufunc
  calls, whole-array assignment); ufuncs with ``out=`` produce the same
  bits as their allocating form.
* A cache instance is **never shared across simulated ranks or
  threads**: each :class:`~repro.pme.grid.ChargeMesh` /
  :class:`~repro.pme.pme.PME` / ``ParallelPME`` owns a private cache, so
  one rank can never scribble over another rank's in-flight arrays.
* A buffer's contents are assumed stale on every
  :meth:`PlanCache.buffer` call; callers must fully overwrite it.

Hits and misses are reported through the metrics registry
(``exec.plan_cache_{hits,misses}`` with a ``tag`` label split).
"""

from __future__ import annotations

import numpy as np

from ..instrument.metrics import REGISTRY

__all__ = ["PlanCache", "PLAN_CACHE_HITS", "PLAN_CACHE_MISSES"]

PLAN_CACHE_HITS = REGISTRY.counter("exec.plan_cache_hits")
PLAN_CACHE_MISSES = REGISTRY.counter("exec.plan_cache_misses")


class PlanCache:
    """Reusable work arrays keyed by ``(tag, shape, dtype)``.

    One live buffer per key: asking for the same tag with a new shape
    (e.g. the slab-active atom count changed) replaces the old buffer
    rather than accumulating dead ones.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: dict[str, tuple[tuple[int, ...], np.ndarray]] = {}

    def buffer(self, tag: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """An uninitialised array of ``shape``/``dtype``, reused when possible."""
        shape = tuple(int(s) for s in shape)
        key = f"{tag}:{np.dtype(dtype).str}"
        entry = self._buffers.get(key)
        if entry is not None and entry[0] == shape:
            PLAN_CACHE_HITS.increment(tag=tag)
            return entry[1]
        PLAN_CACHE_MISSES.increment(tag=tag)
        buf = np.empty(shape, dtype=dtype)
        self._buffers[key] = (shape, buf)
        return buf

    def complex_buffer(self, tag: str, shape: tuple[int, ...]) -> np.ndarray:
        return self.buffer(tag, shape, np.complex128)

    def __len__(self) -> int:
        return len(self._buffers)
