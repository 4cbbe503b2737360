"""The calibration guard: EXPERIMENTS.tables.txt is what the code prints.

``EXPERIMENTS.tables.txt`` is the committed stdout of ``python -m repro
figures --all`` and the source of every measured number EXPERIMENTS.md
quotes.  A cost-model, platform-model or schedule edit that moves a
paper shape fails here with the figure's id; an intended move is
committed by regenerating the file (``python -m repro figures --all >
EXPERIMENTS.tables.txt``) and re-reading EXPERIMENTS.md against it.

Tier-1 regenerates the eight tables ``test_paper_claims.py`` computes
anyway plus the four ablations.  The other four (extrapolation to p=16,
the grid outlook, the throughput study and the 48-point factorial on
myoglobin, ~40 s) are held equal to the code by the nightly ``cmp``
only; their claims are asserted here on the pinned rows.
"""

import pytest

from repro.experiments import ThroughputPlan, ThroughputStudy

from .conftest import TABLES

REGENERATED_IN_TIER1 = [
    "figure3", "figure4", "figure5", "figure6", "figure7", "figure8", "figure9",
    "fast_ethernet",
    "ablation_eager", "ablation_interrupts", "ablation_middleware_sync", "ablation_pme_grid",
]


@pytest.mark.parametrize("figure_id", REGENERATED_IN_TIER1)
def test_report_is_pinned(figure_id, figure_result, pinned_tables):
    report = figure_result(figure_id).report
    for table in report.split("\n\n"):  # table by table, for a readable diff
        assert table == pinned_tables[table.partition("\n")[0]]
    assert report + "\n\n" in TABLES.read_text()


def _totals(rows, network):
    return [r["total (s)"] for r in rows if r["platform"].startswith(network + "/")]


class TestNightlyOnlyTables:
    """Claims on the four tables tier-1 reads but does not regenerate."""

    def test_extrapolation(self, pinned_rows):
        rows = pinned_rows("== Extension: scaling to 16 processors ==")
        assert sorted({r["p"] for r in rows})[-1] == 16
        tcp, myr = _totals(rows, "tcp-gige"), _totals(rows, "myrinet")
        # on TCP the extra processors beyond 8 buy little or nothing
        assert tcp[4] > 0.8 * tcp[3]
        # on Myrinet p=16 still improves
        assert myr[4] < myr[3]

    def test_grid_outlook(self, pinned_rows):
        rows = pinned_rows("== Extension: wide-area grid outlook ==")
        local = {r["p"]: r["total (s)"] for r in rows if r["platform"].startswith("tcp-gige/")}
        grid = {r["p"]: r["total (s)"] for r in rows if r["platform"].startswith("wide-area-grid/")}
        # parallel MD over the wide area is slower than just running serially
        assert all(g > local[1] for g in grid.values())
        # and massively slower than the same run on the local cluster
        assert all(grid[p] / local[p] > 5.0 for p in grid)

    def test_throughput_tradeoff(self, pinned_rows):
        rows = pinned_rows("== Task vs data parallelism: 32 calculations on 16 nodes ==")
        plans = [
            ThroughputPlan(
                network=r["network"],
                ranks_per_job=int(r["ranks/job"]),
                job_time=r["turnaround (s)"],
                concurrent_jobs=int(r["jobs at once"]),
                makespan=r["makespan (s)"],
            )
            for r in rows
        ]
        study = ThroughputStudy(n_jobs=32, plans=plans, report="")
        # turnaround: data parallelism on a good network wins
        assert study.best_turnaround("myrinet").ranks_per_job >= 4
        # batch makespan on TCP/IP: task parallelism is already near-optimal
        tcp_best = study.best_makespan("tcp-gige")
        tcp_serial = [
            p for p in study.plans if p.network == "tcp-gige" and p.ranks_per_job == 1
        ][0]
        assert tcp_serial.makespan <= 1.5 * tcp_best.makespan

    def test_full_factorial(self, pinned_rows):
        records = pinned_rows("== Full factorial design (all 12 cases) ==")
        assert len(records) == 48  # 12 cases x 4 processor counts
        effects = {
            r["factor"]: r["ratio"]
            for r in pinned_rows(
                "== Main effects at p=8 (worst/best level ratio of mean total time) =="
            )
        }
        # the paper's ranking of what matters at p=8: middleware and network
        # interactions dominate; every factor has a real effect
        assert effects["middleware"] > 1.5
        assert effects["network"] > 1.5
        assert effects["cpus_per_node"] > 1.1
