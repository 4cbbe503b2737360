"""Physical units and constants for the MD engine.

The engine works in the AKMA-like unit system used by CHARMM:

========  =======================
quantity  unit
========  =======================
length    angstrom (A)
energy    kcal/mol
mass      atomic mass unit (amu)
charge    elementary charge (e)
time      picosecond (ps)
========  =======================

Newton's second law in these units needs a conversion factor because
``kcal/mol / (A * amu)`` is not ``A/ps^2``; the factor is
:data:`ACCEL_CONVERT`.
"""

from __future__ import annotations

import math

#: Coulomb constant in kcal*A/(mol*e^2).  CHARMM's ``CCELEC`` value.
COULOMB_CONSTANT: float = 332.0716

#: Boltzmann constant in kcal/(mol*K).
BOLTZMANN_KCAL: float = 0.001987204259

#: Conversion from (kcal/mol/A)/amu to A/ps^2.
#:
#: 1 kcal/mol = 4184 J/mol; dividing by Avogadro's number, an amu and an
#: angstrom and rescaling seconds to picoseconds gives exactly
#: ``4184 * 1e-4 = 418.4``.
ACCEL_CONVERT: float = 418.4

#: Convenient alias used by the integrator: kinetic energy prefactor so that
#: ``0.5 * m * v**2 / KINETIC_CONVERT`` is in kcal/mol when ``v`` is in A/ps.
KINETIC_CONVERT: float = ACCEL_CONVERT

#: Degrees-to-radians multiplier.
DEG2RAD: float = math.pi / 180.0
