"""Self-test of the ledger harness (not part of tier-1: run it explicitly).

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py

Drives ``run.py --smoke`` once (N=2, two MD steps, a 6-point campaign)
and checks the harness's own promises: names, completeness, the
declared interactions, span arithmetic and ``compare.py``.
"""

from __future__ import annotations

import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text()), proc.stdout


def test_benchmark_json_matches_the_declarations():
    assert BENCHMARK == metrics.benchmark_doc(BENCHMARK["run_seconds"])


def test_names_are_plain():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])


def test_every_end_to_end_metric_is_reported_for_every_workload(smoke):
    results, stdout = smoke
    assert list(results["workloads"]) == list(metrics.WORKLOADS)
    for name, workload in results["workloads"].items():
        assert workload["failed"] == 0 and workload["failed_traced"] == 0, workload["failures"]
        for metric, unit, _, bound in metrics.END_TO_END:
            m = workload["end_to_end"][metric]
            assert m["unit"] == unit and m["value"] > 0 and 0 < bound <= 0.25
            assert m["min"] <= m["p25"] <= m["p75"] <= m["max"]
            assert metric in stdout
        assert set(workload["per_layer"]) == {m.name for m in metrics.PER_LAYER}


def test_every_per_layer_metric_names_what_it_should_move():
    end_to_end = {name for name, *_ in metrics.END_TO_END}
    for m in metrics.PER_LAYER:
        metric, workloads = m.moves
        assert metric in end_to_end, m.name
        assert workloads and set(workloads) <= set(metrics.WORKLOADS), m.name


def test_bypassed_layers_read_zero_and_used_layers_do_not(smoke):
    results, _ = smoke
    for name, workload in results["workloads"].items():
        for layer in spans.LAYERS:
            calls = workload["per_layer"][f"{layer}.calls"]["value"]
            assert (calls > 0) == (name in metrics.INTERACTIONS[layer][1]), (name, layer)


def test_span_nesting_never_yields_negative_self_time():
    ticks = iter(range(1000))
    rec = spans.SpanRecorder(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    def gen():
        got = yield leaf_w()
        leaf_w()
        return got

    leaf_w = rec.wrap("leaf", leaf)
    gen_w = rec.wrap("gen", gen)

    def root():
        g = gen_w()
        next(g)
        leaf_w()  # runs while the generator is suspended: not its child
        with pytest.raises(StopIteration) as stop:
            g.send("x")
        return stop.value.value

    assert rec.wrap("root", root)() == "x"
    assert rec.depth == 0 and rec.min_self == 0.0
    assert rec.calls == {"root": 1, "gen": 1, "leaf": 3}
    # the fake clock ticks once per enter and once per leave: 3 leaf calls,
    # 2 generator segments and the root make 12 ticks, 11 units of span
    # time.  Each segment lasts 3 and holds one leaf; the root's own 4 are
    # what is left of its 11 after two segments (6) and its direct leaf (1)
    assert rec.self_s == {"leaf": 3.0, "gen": 4.0, "root": 4.0}
    assert rec.total_self() == 11.0


def test_compare_of_a_file_with_itself_is_all_same(smoke):
    results, _ = smoke
    out = io.StringIO()
    assert compare.compare(results, results, out=out) == 0
    rows = [line for line in out.getvalue().splitlines() if "bound" in line]
    assert len(rows) == len(metrics.WORKLOADS) * len(metrics.END_TO_END)
    assert all(row.endswith("same") for row in rows)
    assert "differ" not in out.getvalue()


def test_compare_flags_a_regression_and_names_the_layer(smoke):
    results, _ = smoke
    slower = json.loads(json.dumps(results))
    workload = slower["workloads"]["myo_pme_p8"]
    m = workload["end_to_end"]["op_wall_s_p50"]
    for key in ("value", "min", "p25", "p75", "max"):
        m[key] *= 2
    m["samples"] = [2 * v for v in m["samples"]]
    workload["per_layer"]["md.nonbonded.self_s"]["value"] *= 2
    out = io.StringIO()
    assert compare.compare(results, slower, out=out) == 1
    assert "worse" in out.getvalue() and "md.nonbonded.self_s" in out.getvalue()
