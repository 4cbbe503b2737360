"""The paper's primary contribution: the workload-characterization method.

Factors and levels (Fig. 1), experimental designs (full and fractional
factorial) and the response-variable records.  The measurement runner
that executes a design lives in :mod:`repro.campaign`, which sits above
this package.
"""

from .design import PROCESSOR_LEVELS, DesignPoint, full_factorial, one_factor_at_a_time
from .factors import FOCAL_POINT, PAPER_FACTOR_SPACE, Factor, FactorSpace, PlatformConfig
from .metrics import ScalingMetrics, karp_flatt, recommended_processors, scaling_metrics
from .report import breakdown_table, format_table, speed_table, text_bar, time_series_table
from .responses import ResponseRecord

__all__ = [
    "breakdown_table",
    "DesignPoint",
    "Factor",
    "FactorSpace",
    "FOCAL_POINT",
    "format_table",
    "full_factorial",
    "one_factor_at_a_time",
    "PAPER_FACTOR_SPACE",
    "PlatformConfig",
    "PROCESSOR_LEVELS",
    "recommended_processors",
    "ResponseRecord",
    "ScalingMetrics",
    "scaling_metrics",
    "karp_flatt",
    "speed_table",
    "text_bar",
    "time_series_table",
]
