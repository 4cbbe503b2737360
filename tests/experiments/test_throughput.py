"""Task- vs data-parallel throughput study (small workload)."""

import pytest

from repro.campaign import CharacterizationRunner
from repro.experiments import throughput_study
from repro.parallel import MDRunConfig


@pytest.fixture(scope="module")
def study(peptide_system):
    system, pos = peptide_system
    runner = CharacterizationRunner(
        system=system, positions=pos, config=MDRunConfig(n_steps=2, dt=0.0004)
    )
    return throughput_study(runner, n_jobs=32, networks=("tcp-gige", "myrinet"))


class TestThroughputStudy:
    def test_plan_count(self, study):
        assert len(study.plans) == 2 * 4  # networks x processor levels

    def test_concurrency_bounds(self, study):
        for plan in study.plans:
            assert plan.concurrent_jobs == max(1, 16 // plan.ranks_per_job)

    def test_makespan_consistency(self, study):
        import math

        for plan in study.plans:
            waves = math.ceil(32 / plan.concurrent_jobs)
            assert plan.makespan == pytest.approx(waves * plan.job_time)

    def test_turnaround_best_with_most_ranks_on_good_network(self, study):
        best = study.best_turnaround("myrinet")
        assert best.ranks_per_job == 8

    def test_task_parallelism_often_wins_makespan_on_tcp(self, study):
        """With many queued jobs and poor networks, serial task-parallel
        execution is competitive — the paper's observation about how
        clusters were actually used."""
        serial = [p for p in study.plans if p.network == "tcp-gige" and p.ranks_per_job == 1][0]
        parallel8 = [p for p in study.plans if p.network == "tcp-gige" and p.ranks_per_job == 8][0]
        assert serial.makespan <= parallel8.makespan * 1.5

    def test_report_renders(self, study):
        assert "Task vs data parallelism" in study.report
        assert "jobs/hour" in study.report

    def test_validation(self, peptide_system):
        system, pos = peptide_system
        runner = CharacterizationRunner(
            system=system, positions=pos, config=MDRunConfig(n_steps=1, dt=0.0004)
        )
        with pytest.raises(ValueError):
            throughput_study(runner, n_jobs=0)

    def test_unknown_network_raises(self, study):
        with pytest.raises(ValueError):
            study.best_makespan("infiniband")
