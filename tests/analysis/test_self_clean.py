"""The shipped tree must pass its own analyzer (the dogfood gate)."""

from pathlib import Path

from repro.analysis import lint_paths

REPO = Path(__file__).resolve().parents[2]


def test_src_and_tests_lint_clean():
    """src, tests and examples lint clean; each intentional exception
    carries an inline ``# repro: noqa[REPxxx]`` with its reason."""
    diags = lint_paths([REPO / "src", REPO / "tests", REPO / "examples"])
    formatted = "\n".join(d.format() for d in diags)
    assert not diags, f"analyzer findings in the shipped tree:\n{formatted}"


def test_cli_analyze_exits_zero():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "repro", "analyze", "src", "tests"],
        cwd=REPO,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
