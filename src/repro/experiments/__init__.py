"""Experiment drivers: one per table/figure of the paper's evaluation."""

from .factorial import FactorialResult, main_effects, run_full_factorial
from .throughput import ThroughputPlan, ThroughputStudy, throughput_study
from .figures import (
    ALL_FIGURES,
    FigureResult,
    ablation_eager,
    ablation_interrupts,
    ablation_middleware_sync,
    ablation_pme_grid,
    default_runner,
    extrapolation,
    fast_ethernet_comparison,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    grid_outlook,
)

__all__ = [
    "ALL_FIGURES",
    "ablation_eager",
    "ablation_interrupts",
    "ablation_middleware_sync",
    "ablation_pme_grid",
    "default_runner",
    "extrapolation",
    "fast_ethernet_comparison",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "FigureResult",
    "grid_outlook",
    "FactorialResult",
    "main_effects",
    "run_full_factorial",
    "ThroughputPlan",
    "ThroughputStudy",
    "throughput_study",
]
