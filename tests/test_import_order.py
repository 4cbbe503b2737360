"""Every ``repro`` subpackage imports as a process's first ``repro`` import.

A circular import between two subpackages only fails for one order of
first imports, and a test session imports everything in whatever order
its collection happens to take.  One fresh interpreter imports numpy
and scipy once, then, per subpackage, forgets every ``repro`` module
and imports that subpackage alone.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import importlib, pkgutil, sys
import numpy, scipy.special
import repro

names = [m.name for m in pkgutil.iter_modules(repro.__path__, "repro.") if m.ispkg]
for name in names:
    for key in [k for k in sys.modules if k == "repro" or k.startswith("repro.")]:
        del sys.modules[key]
    try:
        importlib.import_module(name)
    except Exception as exc:
        print(f"{name}: {type(exc).__name__}: {exc}")
print(f"imported {len(names)} subpackages")
"""


def test_each_subpackage_imports_first():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[:-1] == [], "\n".join(lines)
    assert lines[-1].startswith("imported ") and int(lines[-1].split()[1]) >= 10
