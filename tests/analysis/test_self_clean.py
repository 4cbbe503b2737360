"""The shipped tree must pass its own analyzer (the dogfood gate)."""

from pathlib import Path

from repro.analysis import apply_baseline, lint_paths, load_baseline
from repro.analysis.baseline import BASELINE_FILENAME

REPO = Path(__file__).resolve().parents[2]


def test_src_and_tests_lint_clean():
    """src, tests and examples lint clean, modulo the reviewed baseline."""
    diags = lint_paths([REPO / "src", REPO / "tests", REPO / "examples"])
    baseline = load_baseline(REPO / BASELINE_FILENAME)
    surviving, suppressed = apply_baseline(diags, baseline)
    formatted = "\n".join(d.format() for d in surviving)
    assert not surviving, f"analyzer findings in the shipped tree:\n{formatted}"
    # every baseline entry must still correspond to a real finding —
    # fixed code means the entry must be dropped, keeping debt honest
    stale = set(baseline) - {d.fingerprint() for d in suppressed}
    assert not stale, f"stale baseline entries (finding fixed): {stale}"


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
