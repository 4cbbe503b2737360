"""Compare two ledger result files under the benchmark's own bounds.

    python benchmarks/ledger/compare.py A.json B.json

``A`` is the parent (or the first set of runs), ``B`` the change (or the
second set); both are written by ``run.py --out``.  One row per workload
and end-to-end metric:

* ``same``        B is within the metric's bound of A, and the spread is narrower than the bound
* ``better``      B improves on A by more than the bound
* ``worse``       B is worse than A by more than the bound
* ``unresolved``  the spread across either side's children is wider than
                  the bound, and the two sides' samples overlap — the
                  benchmark cannot tell; run again on a quieter machine

Rows that are not ``same`` are followed by the per-layer ``self_s``
deltas of that workload, largest first, which is where to look for the
cause.  Exact metrics (``virtual.*`` and counts) must be bit-identical
when both files were measured at the same seed.  Exits non-zero on any
``worse`` row or exact mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import PER_LAYER  # noqa: E402

BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"

__all__ = ["compare", "verdict"]


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """Classify one metric; returns (verdict, B's change as a share of A,
    positive = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b["value"] - a["value"]) / a["value"]
    spread = max((m["p75"] - m["p25"]) / m["value"] for m in (a, b))
    if spread > bound:
        a_s, b_s = ([sign * v for v in m["samples"]] for m in (a, b))
        if max(b_s) < min(a_s):
            return "better", change  # every B run beats every A run
        if min(b_s) > max(a_s) and change > bound:
            return "worse", change
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def layer_deltas(a: dict, b: dict, top: int = 6) -> list[tuple[str, float, float, float]]:
    """Largest per-layer self-time movements (name, A, B, B - A), seconds per op."""
    rows = []
    for m in PER_LAYER:
        if not m.name.endswith(".self_s"):
            continue
        va, vb = a["per_layer"][m.name]["value"], b["per_layer"][m.name]["value"]
        if va or vb:
            rows.append((m.name, va, vb, vb - va))
    rows.sort(key=lambda row: -abs(row[3]))
    return rows[:top]


def compare(a: dict, b: dict, out=sys.stdout) -> int:
    """Print the comparison; returns the process exit code."""
    end_to_end = json.loads(BENCHMARK_JSON.read_text())["end_to_end"]
    status = 0
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            print(f"{name}: missing from the second file", file=out)
            status = 1
            continue
        explain = False
        for spec in end_to_end:
            metric, unit, bound = spec["name"], spec["unit"], spec["bound"]
            ma, mb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            word, change = verdict(ma, mb, spec["better"], bound)
            print(f"{name:<22} {metric:<14} {ma['value']:>11.5f} -> {mb['value']:>11.5f} {unit:<4}"
                  f" {change:+8.1%} (+ is worse, bound {bound:.0%})  {word}", file=out)
            explain |= word != "same"
            status |= word == "worse"
        failed = wb["failed"] + wb.get("failed_traced", 0)
        if failed:
            print(f"{name:<22} {failed} failed operation(s) in the second file  worse", file=out)
            status = 1
        if explain and "per_layer" in wa and "per_layer" in wb:
            print(f"{'':<22} per-layer self time per operation, largest movements:", file=out)
            for layer, va, vb, delta in layer_deltas(wa, wb):
                print(f"{'':<24} {layer:<36} {va:>10.5f} -> {vb:>10.5f} s  {delta:+.5f}", file=out)
        if "per_layer" in wa and "per_layer" in wb and a["seed"] == b["seed"]:
            differing = [
                m.name for m in PER_LAYER
                if m.exact and wa["per_layer"][m.name]["value"] != wb["per_layer"][m.name]["value"]
            ]
            n_exact = sum(m.exact for m in PER_LAYER)
            if differing:
                print(f"{name:<22} exact metrics differ: {', '.join(differing)}", file=out)
                status = 1
            else:
                print(f"{name:<22} all {n_exact} virtual.* and count metrics identical", file=out)
    return status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="results of the parent / first set of runs")
    ap.add_argument("b", type=Path, help="results of the change / second set of runs")
    args = ap.parse_args(argv)
    return compare(json.loads(args.a.read_text()), json.loads(args.b.read_text()))


if __name__ == "__main__":
    sys.exit(main())
