"""Full-factorial driver on a small workload (structure + main effects)."""

import pytest

from repro.campaign import CharacterizationRunner
from repro.experiments import main_effects, run_full_factorial
from repro.parallel import MDRunConfig


@pytest.fixture(scope="module")
def factorial(peptide_system):
    system, pos = peptide_system
    runner = CharacterizationRunner(
        system=system, positions=pos, config=MDRunConfig(n_steps=1, dt=0.0004)
    )
    return run_full_factorial(runner, processor_levels=(1, 4))


class TestFullFactorial:
    def test_record_count(self, factorial):
        assert len(factorial.records) == 24  # 12 cases x 2 processor counts

    def test_all_cases_present(self, factorial):
        cases = {
            (r.network, r.middleware, r.cpus_per_node) for r in factorial.records
        }
        assert len(cases) == 12

    def test_effects_computed(self, factorial):
        assert set(factorial.effects) == {"network", "middleware", "cpus_per_node"}
        assert all(v >= 1.0 for v in factorial.effects.values())

    def test_report_renders(self, factorial):
        assert "Main effects" in factorial.report
        assert "Full factorial" in factorial.report


class TestMainEffects:
    def test_requires_matching_rank_count(self, factorial):
        with pytest.raises(ValueError):
            main_effects(factorial.records, n_ranks=64)

    def test_ratio_at_least_one(self, factorial):
        effects = main_effects(factorial.records, n_ranks=4)
        assert all(v >= 1.0 for v in effects.values())
