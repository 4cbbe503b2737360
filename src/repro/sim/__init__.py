"""Discrete-event simulation kernel (virtual time, generator processes)."""

from .engine import Process, SimulationError, Simulator, Sleep

__all__ = ["Process", "SimulationError", "Simulator", "Sleep"]
