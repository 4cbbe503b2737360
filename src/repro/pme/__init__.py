"""Smooth particle-mesh Ewald electrostatics (Essmann et al., 1995).

Serial building blocks used both by :class:`repro.md.system.MDSystem`
(serial evaluation) and :mod:`repro.parallel.ppme` (slab-parallel
evaluation over simulated MPI).
"""

# ``repro.md.system`` builds on this package, whose modules build on
# ``repro.md.box`` and ``repro.md.units``: import ``repro.md`` first, so
# whichever of the two a process imports first, ``md.system`` never
# meets a half-initialized ``pme.ewald``.
from .. import md as _md  # noqa: F401
from .bspline import bspline_moduli, bspline_weights, mn_values
from .ewald import choose_alpha, exclusion_correction, self_energy
from .grid import ChargeMesh, SpreadWorkload
from .pme import PME, ReciprocalResult, influence_function
from .reference import EwaldReference, ReferenceResult

__all__ = [
    "bspline_moduli",
    "bspline_weights",
    "ChargeMesh",
    "choose_alpha",
    "EwaldReference",
    "exclusion_correction",
    "influence_function",
    "mn_values",
    "PME",
    "ReciprocalResult",
    "ReferenceResult",
    "self_energy",
    "SpreadWorkload",
]
