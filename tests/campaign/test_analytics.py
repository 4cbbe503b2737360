"""Post-hoc analytics: determinism, zero-force-eval, golden reports.

The contract under test (DESIGN.md §14): a report over a warm store is
byte-identical regardless of worker count and of how the same entries
are distributed across shard files, and producing it performs zero
force evaluations.  On top of that, each analyzer gets a golden test —
the breakdown report must reproduce the paper's comp/comm/sync tables
from stored records alone, the drift analyzer must flag a deliberately
corrupted record, the trend analyzer must attribute a regression to a
phase, and the coverage analyzer must name missing factorial cells.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import ResultStore, run_analysis
from repro.campaign.analytics import (
    AnalysisError,
    map_shards,
    merge_rows,
    render,
    to_json_bytes,
)
from repro.campaign.analytics import mapreduce
from repro.campaign.analytics.trend import load_trend_source, trend_report
from repro.core.design import DesignPoint
from repro.core.factors import FOCAL_POINT
from repro.instrument.counters import FORCE_EVALUATIONS

from .conftest import tiny_engine


def _factorial_points(middlewares=("mpi", "cmpi"), ranks=(1, 2)):
    return [
        DesignPoint(config=FOCAL_POINT.with_level("middleware", mw), n_ranks=p)
        for mw in middlewares
        for p in ranks
    ]


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """A 2x2 factorial (middleware x p) executed once for the module."""
    root = tmp_path_factory.mktemp("analytics") / "cache"
    engine = tiny_engine(root)
    result = engine.run(_factorial_points())
    assert result.ok
    return root


def _split_store(src, dst, n_shards=3):
    """The same entries re-dealt round-robin across differently-named shards."""
    dst.mkdir(parents=True)
    lines = []
    for shard in sorted(src.glob("*.jsonl")):
        lines.extend(line for line in shard.read_text().splitlines() if line.strip())
    for i in range(n_shards):
        chunk = lines[i::n_shards]
        (dst / f"shard-{chr(ord('a') + i)}.jsonl").write_text(
            "".join(line + "\n" for line in chunk)
        )


# -- determinism ------------------------------------------------------


@pytest.mark.parametrize("kind", ["report", "drift", "coverage"])
def test_reports_are_byte_identical_across_worker_counts(warm_store, kind):
    inline = run_analysis(kind, warm_store, workers=0, save=False)
    pooled = run_analysis(kind, warm_store, workers=4, save=False)
    assert to_json_bytes(inline) == to_json_bytes(pooled)


def test_report_is_invariant_to_shard_layout(warm_store, tmp_path):
    """Re-dealing the same entries across other shard files changes nothing
    an analyzer reads — the report body is identical (only the shard-name
    hash in the analysis id and the coverage shard table may differ)."""
    reshuffled = tmp_path / "reshuffled"
    _split_store(warm_store, reshuffled)
    a = run_analysis("report", warm_store, save=False)
    b = run_analysis("report", reshuffled, save=False)
    a.pop("analysis_id"), b.pop("analysis_id")
    assert to_json_bytes(a) == to_json_bytes(b)


def test_merge_rows_is_shard_order_deterministic(warm_store, tmp_path):
    reshuffled = tmp_path / "reshuffled"
    _split_store(warm_store, reshuffled, n_shards=4)
    assert merge_rows(map_shards(warm_store)) == merge_rows(map_shards(reshuffled))


def test_analysis_performs_zero_force_evaluations(warm_store):
    mark = FORCE_EVALUATIONS.snapshot()
    for kind in ("report", "drift", "coverage"):
        run_analysis(kind, warm_store, save=False)
    assert FORCE_EVALUATIONS.delta(mark) == 0


def test_saved_report_is_the_canonical_bytes(warm_store):
    doc = run_analysis("report", warm_store, save=True)
    saved = warm_store / "reports" / "report-latest.json"
    assert saved.read_bytes() == to_json_bytes(doc)


def test_empty_store_is_an_analysis_error(tmp_path):
    with pytest.raises(AnalysisError, match="does not exist"):
        run_analysis("report", tmp_path / "nothing")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(AnalysisError, match="no shards"):
        run_analysis("report", empty)


def _mapper_raising(exc):
    def mapper(path):
        raise exc

    return mapper


@pytest.mark.parametrize("workers", [0, 2])
def test_failing_mapper_is_an_analysis_error(warm_store, monkeypatch, workers):
    monkeypatch.setattr(mapreduce, "map_shard", _mapper_raising(OSError("disk gone")))
    with pytest.raises(AnalysisError, match="map stage failed on .*OSError: disk gone"):
        map_shards(warm_store, workers)


def test_interrupt_during_an_inline_map_propagates(warm_store, monkeypatch):
    """Ctrl-C is not a failed map stage."""
    monkeypatch.setattr(mapreduce, "map_shard", _mapper_raising(KeyboardInterrupt()))
    with pytest.raises(KeyboardInterrupt):
        map_shards(warm_store, 0)


# -- breakdown report (the paper's tables) ----------------------------


def test_breakdown_report_matches_the_stored_records(warm_store):
    doc = run_analysis("report", warm_store, save=False)
    store = ResultStore(warm_store)
    by_identity = {
        (e.record.middleware, e.record.n_ranks): e.record for e in store.entries()
    }
    assert doc["n_records"] == len(by_identity) == 4
    for group in doc["groups"]:
        mw = group["group"]["middleware"]
        for point in group["points"]:
            record = by_identity[(mw, point["series"])]
            assert point["wall_time"] == record.wall_time
            classic = point["phases"]["classic"]
            assert classic["seconds"]["comp"] == record.classic_comp
            assert classic["total"] == record.classic_time
            if classic["total"] > 0:
                assert sum(classic["pct"].values()) == pytest.approx(100.0, abs=0.05)


def test_breakdown_report_reproduces_the_paper_shape():
    """Acceptance: myoglobin classic+PME, p in {1, 2, 4, 8}, from records
    alone — serial runs are all-computation, parallel overhead fractions
    grow with p, and speedup/efficiency come out of the stored walls."""
    import tempfile

    from repro.parallel import MDRunConfig

    with tempfile.TemporaryDirectory() as tmp:
        root = f"{tmp}/cache"
        engine = tiny_engine(
            root, workload="myoglobin-pme", config=MDRunConfig(n_steps=2)
        )
        points = [DesignPoint(config=FOCAL_POINT, n_ranks=p) for p in (1, 2, 4, 8)]
        assert engine.run(points).ok

        mark = FORCE_EVALUATIONS.snapshot()
        doc = run_analysis("report", root, save=False)
        assert FORCE_EVALUATIONS.delta(mark) == 0

        (group,) = doc["groups"]
        assert [pt["series"] for pt in group["points"]] == [1, 2, 4, 8]
        serial, *parallel = group["points"]
        for phase in ("classic", "pme"):
            assert serial["phases"][phase]["pct"]["comp"] == 100.0
            assert serial["phases"][phase]["pct"]["comm"] == 0.0
        assert serial["speedup"] == 1.0 and serial["efficiency"] == 1.0
        overheads = [pt["phases"]["total"]["overhead_fraction"] for pt in parallel]
        assert all(o > 0 for o in overheads)
        assert overheads == sorted(overheads)  # overhead grows with p
        for pt in parallel:
            assert pt["speedup"] == pytest.approx(
                serial["wall_time"] / pt["wall_time"], abs=1e-6
            )
            assert pt["efficiency"] == pytest.approx(
                pt["speedup"] / pt["series"], abs=1e-6
            )
        assert group["speedup_ref_p"] == 1
        # the title question's quantitative answer exists per phase
        assert set(group["crossover"]) == {"classic", "pme", "total"}


def test_breakdown_rejects_unknown_series(warm_store):
    with pytest.raises(AnalysisError, match="unknown series axis"):
        run_analysis("report", warm_store, series="nonsense", save=False)


# -- drift ------------------------------------------------------------


def _copy_with_mutation(src, dst, mutate):
    """Copy a store, appending one mutated duplicate of its first entry."""
    _split_store(src, dst, n_shards=1)
    shard = next(iter(sorted(dst.glob("*.jsonl"))))
    doc = json.loads(shard.read_text().splitlines()[0])
    doc["key"] = "mutant-" + doc["key"][:8]
    mutate(doc["record"])
    with shard.open("a") as f:
        f.write(json.dumps(doc) + "\n")


def test_drift_is_clean_on_a_known_good_store(warm_store):
    doc = run_analysis("drift", warm_store, save=False)
    assert doc["ok"] and doc["findings"] == []
    for group in doc["workloads"]:
        # deterministic simulator: one energy cluster per (workload, strategy)
        assert len(group["clusters"]) == 1
        assert group["clusters"][0]["n"] == group["n_records"]


def test_drift_flags_a_corrupted_energy(warm_store, tmp_path):
    bad = tmp_path / "bad"
    _copy_with_mutation(
        warm_store, bad, lambda r: r.__setitem__("final_energy", r["final_energy"] + 1.0)
    )
    doc = run_analysis("drift", bad, save=False)
    assert not doc["ok"]
    checks = {f["check"] for f in doc["findings"]}
    assert "energy-consensus" in checks
    (finding,) = [f for f in doc["findings"] if f["check"] == "energy-consensus"]
    assert finding["key"].startswith("mutant-")


def test_drift_flags_non_finite_energy_and_broken_bookkeeping(warm_store, tmp_path):
    bad = tmp_path / "bad"
    _copy_with_mutation(
        warm_store,
        bad,
        lambda r: (r.__setitem__("final_energy", float("nan")),
                   r.__setitem__("classic_comp", r["classic_comp"] + 0.5)),
    )
    doc = run_analysis("drift", bad, save=False)
    checks = {f["check"] for f in doc["findings"]}
    assert {"finite-energy", "phase-bookkeeping"} <= checks


# -- trend ------------------------------------------------------------


def _slower_pme(record):
    """Double one record's PME computation, bookkeeping kept consistent."""
    grown = record["pme_comp"]
    for field in ("pme_comp", "pme_time", "wall_time"):
        record[field] += grown


def test_trend_gates_a_store_regression(warm_store, tmp_path):
    slow = tmp_path / "slow"
    # the mutant sorts after every real key, so it is the record its
    # design identity's series carries; the other three are untouched
    _copy_with_mutation(warm_store, slow, _slower_pme)
    doc = run_analysis("trend", slow, against=warm_store, save=False)
    assert not doc["ok"] and doc["compared"] == 3 * 4
    # its wall and PME series breach the 1.25x gate, its classic series does not
    assert len({r["name"] for r in doc["regressions"]}) == 1
    assert sorted(r["metric"] for r in doc["regressions"]) == ["pme_time", "wall_time"]
    assert all(r["ratio"] > 1.25 for r in doc["regressions"])
    # read the other way round the same edit is an improvement, and passes
    back = run_analysis("trend", warm_store, against=slow, save=False)
    assert back["ok"] and len(back["improvements"]) == 2


def test_trend_attributes_a_regression_to_the_phase_that_grew(warm_store, tmp_path):
    slow = tmp_path / "slow"
    _copy_with_mutation(warm_store, slow, _slower_pme)
    doc = trend_report(load_trend_source(warm_store), load_trend_source(slow))
    assert doc["regressions"]
    for reg in doc["regressions"]:
        attribution = reg["attribution"]
        assert attribution["dominant_phase"] == "pme"
        assert attribution["deltas"]["classic"] == attribution["deltas"]["comm"] == 0.0
    assert "| pme |" in render(doc, "md")


@pytest.mark.parametrize("text", ["3", "[]", '"x"'])
def test_trend_rejects_a_json_source_that_is_not_an_object(tmp_path, capsys, text):
    from repro.cli import main

    bad = tmp_path / "bad.json"
    bad.write_text(text)
    with pytest.raises(AnalysisError, match=r"bad\.json is not a campaign manifest"):
        load_trend_source(bad)
    assert main(["campaign", "analyze", "trend", "--against", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1


def test_trend_store_against_itself_is_clean(warm_store):
    doc = run_analysis("trend", warm_store, against=warm_store, save=False)
    assert doc["ok"]
    assert doc["compared"] == 3 * 4  # wall/classic/pme per record
    assert doc["regressions"] == [] and doc["improvements"] == []


def test_trend_requires_a_baseline(warm_store):
    with pytest.raises(AnalysisError, match="--against"):
        run_analysis("trend", warm_store, save=False)


# -- coverage ---------------------------------------------------------


def test_coverage_of_a_complete_factorial_is_clean(warm_store):
    doc = run_analysis("coverage", warm_store, save=False)
    assert doc["ok"]
    assert doc["missing_cells"] == 0
    assert doc["orphaned_shards"] == []
    (grid,) = doc["grids"]
    assert grid["expected_cells"] == grid["observed_cells"] == 4


def test_coverage_names_missing_factorial_cells(tmp_path):
    root = tmp_path / "cache"
    engine = tiny_engine(root)
    points = _factorial_points()[:-1]  # drop cmpi p=2: one hole in the grid
    assert engine.run(points).ok
    doc = run_analysis("coverage", root, save=False)
    assert doc["ok"]  # sparse is not damage
    (grid,) = doc["grids"]
    assert grid["missing_cells"] == 1
    (cell,) = grid["missing"]
    assert cell["middleware"] == "cmpi" and cell["n_ranks"] == 2


def test_coverage_counts_damage_and_orphans(warm_store, tmp_path):
    damaged = tmp_path / "damaged"
    _split_store(warm_store, damaged, n_shards=1)
    (shard,) = sorted(damaged.glob("*.jsonl"))
    with shard.open("a") as f:
        f.write("{torn json\n")
    # a later shard holding every key orphans the first one
    (damaged / "zz-copy.jsonl").write_text(shard.read_text().rsplit("{torn", 1)[0])
    doc = run_analysis("coverage", damaged, save=False)
    assert not doc["ok"]
    assert doc["corrupt_lines"] == 1
    assert doc["orphaned_shards"] == [shard.name]


# -- rendering --------------------------------------------------------


def test_renderings_cover_every_analyzer(warm_store, tmp_path):
    for kind in ("report", "drift", "coverage"):
        doc = run_analysis(kind, warm_store, save=False)
        md = render(doc, "md")
        assert md.startswith(f"# campaign {kind}")
        html_text = render(doc, "html")
        assert html_text.startswith("<!DOCTYPE html>") and kind in html_text
        assert render(doc, "json").encode() == to_json_bytes(doc)
    with pytest.raises(ValueError, match="unknown format"):
        render(doc, "pdf")
