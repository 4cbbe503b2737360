"""The four ablations on the full workload: which mechanism carries which shape.

Each test reads the table the driver printed — the same rows
``test_pinned_tables.py`` holds equal to ``EXPERIMENTS.tables.txt``.
"""

import numpy as np
import pytest


@pytest.fixture(scope="module")
def table(figure_result):
    """``table(figure_id)``: the ablation's printed rows, one tuple each."""
    return lambda figure_id: list(zip(*figure_result(figure_id).series.values()))


def test_eager_threshold_ablation(table):
    # totals stay in the same regime: the protocol switch shifts time
    # between categories rather than removing it
    totals = [r[1] for r in table("ablation_eager")]
    assert max(totals) / min(totals) < 1.6


def test_interrupt_bottleneck_ablation(table):
    rows = table("ablation_interrupts")
    # with the bottleneck the time grows from 4 -> 8 ranks; without it the
    # dual-processor cluster scales again
    assert rows[2][1] > rows[1][1]
    assert rows[2][2] < rows[2][1]


def test_middleware_sync_ablation(table):
    rows = table("ablation_middleware_sync")
    tcp_mpi = np.array([r[1] for r in rows])
    tcp_cmpi = np.array([r[2] for r in rows])
    # MPI barrier grows ~log p, CMPI sync ~linearly: the gap must widen
    assert tcp_cmpi[-1] / tcp_mpi[-1] > tcp_cmpi[0] / tcp_mpi[0]
    assert tcp_cmpi[-1] > 3 * tcp_mpi[-1]


def test_pme_grid_ablation(table):
    rows = table("ablation_pme_grid")
    # serial PME cost grows with mesh size
    assert rows[-1][1] > rows[0][1]
    # overheads stay dominant at p=8 on TCP across the sweep
    assert all(r[3] > 50.0 for r in rows)
