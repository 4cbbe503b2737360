"""Energy bookkeeping: the classic / PME split the paper measures.

:class:`EnergyBreakdown` mirrors Figure 2 of the paper: the *classic*
component holds every term evaluated in the time domain (bonded terms plus
cutoff non-bonded), the *PME* component holds the frequency-domain terms
(reciprocal sum, Gaussian self term, exclusion correction).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["EnergyBreakdown"]


@dataclass(frozen=True)
class EnergyBreakdown:
    """All energy components of one evaluation, in kcal/mol."""

    bond: float = 0.0
    angle: float = 0.0
    dihedral: float = 0.0
    improper: float = 0.0
    lj: float = 0.0
    elec_direct: float = 0.0
    pme_reciprocal: float = 0.0
    pme_self: float = 0.0
    pme_exclusion: float = 0.0

    @property
    def bonded(self) -> float:
        return self.bond + self.angle + self.dihedral + self.improper

    @property
    def classic_total(self) -> float:
        """Time-domain component (Figure 2's 'classic routine')."""
        return self.bonded + self.lj + self.elec_direct

    @property
    def pme_total(self) -> float:
        """Frequency-domain component (Figure 2's 'PME routine')."""
        return self.pme_reciprocal + self.pme_self + self.pme_exclusion

    @property
    def total(self) -> float:
        return self.classic_total + self.pme_total

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}
