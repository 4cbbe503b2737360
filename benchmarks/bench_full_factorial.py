"""The complete 12-case factorial design (Sec. 3.1) with main effects.

Runs through the campaign engine rather than the bare runner: the 48
points resolve against the shared persistent store (figure benchmarks
already populate many of them), and only the misses execute.
"""

from conftest import emit

from repro.experiments import run_full_factorial


def test_full_factorial(benchmark, figure_engine, report_dir):
    result = benchmark.pedantic(
        run_full_factorial,
        args=(figure_engine,),
        rounds=1,
        iterations=1,
    )
    emit(report_dir, "full_factorial", result.report)

    assert len(result.records) == 48  # 12 cases x 4 processor counts
    # the paper's ranking of what matters at p=8: middleware and network
    # interactions dominate; every factor has a real effect
    assert result.effects["middleware"] > 1.5
    assert result.effects["network"] > 1.5
    assert result.effects["cpus_per_node"] > 1.1
