"""Campaign engine: caching, parallel execution, passivity, verify."""

import os
import subprocess
import time

import pytest

from repro.campaign import CampaignManifest, CharacterizationRunner, ResultStore
from repro.campaign import engine as engine_mod
from repro.campaign import manifest as manifest_mod
from repro.campaign import publish_campaign, work_campaign
from repro.campaign.keys import SCHEMA_VERSION
from repro.campaign.store import record_to_dict
from repro.campaign.workloads import build_workload
from repro.core.design import DesignPoint, full_factorial
from repro.core.factors import FOCAL_POINT
from repro.instrument import FORCE_EVALUATIONS
from repro.instrument.runlog import read_runlog

from .conftest import TINY_CONFIG, tiny_engine, tiny_points


class TestColdAndWarm:
    def test_cold_run_executes_every_point(self, store_root):
        result = tiny_engine(store_root).run(tiny_points())
        assert result.ok
        assert [p.status for p in result.manifest.points] == ["ran", "ran"]
        assert all(r is not None for r in result.records)
        assert [r.n_ranks for r in result.records] == [1, 2]

    def test_warm_run_is_all_hits_and_does_zero_md_work(self, store_root):
        tiny_engine(store_root).run(tiny_points())

        warm = tiny_engine(store_root)
        before = FORCE_EVALUATIONS.snapshot()
        result = warm.run(tiny_points())
        assert FORCE_EVALUATIONS.delta(before) == 0
        assert result.ok
        assert [p.status for p in result.manifest.points] == ["hit", "hit"]

    def test_warm_records_equal_cold_records(self, store_root):
        cold = tiny_engine(store_root).run(tiny_points())
        warm = tiny_engine(store_root).run(tiny_points())
        for a, b in zip(cold.records, warm.records):
            assert record_to_dict(a) == record_to_dict(b)

    def test_duplicate_input_points_share_one_execution(self, store_root):
        point = tiny_points(ranks=(1,))[0]
        result = tiny_engine(store_root).run([point, point])
        assert result.ok
        assert record_to_dict(result.records[0]) == record_to_dict(result.records[1])
        assert [p.status for p in result.manifest.points] == ["ran", "hit"]


class TestPassivity:
    def test_engine_records_bit_identical_to_direct_runner(self, store_root):
        """Exact passivity: going through the engine (store, manifest,
        scheduling) changes nothing about the record itself."""
        system, positions = build_workload("peptide-tiny")
        runner = CharacterizationRunner(
            system=system, positions=positions, config=TINY_CONFIG
        )
        direct = runner.measure(tiny_points())

        engine = tiny_engine(store_root)
        via_engine = engine.run(tiny_points()).records
        for a, b in zip(direct, via_engine):
            assert record_to_dict(a) == record_to_dict(b)

    def test_pool_records_bit_identical_to_inline(self, store_root):
        inline = tiny_engine(store_root).run(tiny_points()).records

        pooled_engine = tiny_engine(None, n_workers=2)
        pooled = pooled_engine.run(tiny_points())
        assert pooled.ok
        assert {p.status for p in pooled.manifest.points} == {"ran"}
        for a, b in zip(inline, pooled.records):
            assert record_to_dict(a) == record_to_dict(b)


class TestFailureHandling:
    def test_impossible_point_marked_failed_after_retries(self, store_root):
        # 32 uni-CPU ranks need 32 nodes; the CoPs cluster has 16
        bad = DesignPoint(config=FOCAL_POINT, n_ranks=32)
        engine = tiny_engine(store_root, retries=1)
        result = engine.run(tiny_points(ranks=(1,)) + [bad])
        assert not result.ok
        statuses = [p.status for p in result.manifest.points]
        assert statuses == ["ran", "failed"]
        failed = result.manifest.points[1]
        assert failed.attempts == 2  # first try + one retry
        assert "nodes" in failed.error
        assert result.records[1] is None

    def test_repeated_points_all_take_the_first_copys_outcome(self, store_root):
        bad = DesignPoint(config=FOCAL_POINT, n_ranks=32)
        (good,) = tiny_points(ranks=(1,))
        result = tiny_engine(store_root, retries=0).run([bad, good, bad, good])
        points = result.manifest.points
        assert [p.status for p in points] == ["failed", "ran", "failed", "hit"]
        assert result.manifest.counts["pending"] == 0
        assert points[2].error == points[0].error
        assert result.records[3] is result.records[1]

    def test_timeout_kills_and_marks_the_point(self, store_root):
        slow = tiny_engine(
            store_root,
            config=type(TINY_CONFIG)(n_steps=3000, dt=0.0004),
            n_workers=1,
            timeout=0.2,
            retries=0,
        )
        result = slow.run(tiny_points(ranks=(2,)))
        assert not result.ok
        (status,) = result.manifest.points
        assert status.status == "timeout"
        assert "timed out" in status.error

    def test_timeout_inside_a_pooled_group_is_retried_per_point(
        self, store_root, tmp_path, monkeypatch
    ):
        """A pooled task is a trajectory group, but timeouts, retries and
        statuses stay per point: the third of six variants hangs once, is
        killed with its child and retried alone, and the group's three
        unstarted points run on in a new child."""
        variants = [
            p for p in full_factorial() if p.n_ranks == 2 and p.config.middleware == "mpi"
        ]
        stuck = variants[2]
        marker = tmp_path / "stuck-once"
        real = engine_mod.execute_point

        def hang_once(workload, point, *rest):
            if point == stuck and not marker.exists():
                marker.touch()
                time.sleep(60)
            return real(workload, point, *rest)

        monkeypatch.setattr(engine_mod, "execute_point", hang_once)
        engine = tiny_engine(store_root, n_workers=1, timeout=2.0, retries=1, backoff=0.01)
        result = engine.run(variants)
        assert result.ok
        assert all(record is not None for record in result.records)
        assert [(p.status, p.attempts) for p in result.manifest.points] == [
            ("ran", 2 if p == stuck else 1) for p in variants
        ]

        log = store_root / "logs" / f"campaign-{result.manifest.campaign_id}.jsonl"
        events = list(read_runlog(log))
        retries = [(e["label"], e["status"]) for e in events if e["event"] == "point_retry"]
        assert retries == [(stuck.label(), "timeout")]
        launches = [e for e in events if e["event"] == "point_launch"]
        assert [e["label"] for e in launches] == [
            p.label() for p in [*variants, stuck]
        ]
        first, requeued, retry = launches[0]["pid"], launches[3]["pid"], launches[6]["pid"]
        assert [e["pid"] for e in launches] == [first] * 3 + [requeued] * 3 + [retry]
        assert len({first, requeued, retry}) == 3

    def test_unknown_workload_raises(self, store_root):
        engine = tiny_engine(store_root, workload="no-such-system")
        with pytest.raises(ValueError, match="unknown workload"):
            engine.run(tiny_points())


    @pytest.mark.parametrize(
        "setting,match",
        [
            ({"base_seed": -1}, "seed must be >= 0"),
            ({"retries": -1}, "retries must be >= 0"),
            ({"timeout": 0.0}, "timeout must be > 0"),
            ({"timeout": -5.0}, "timeout must be > 0"),
        ],
    )
    def test_bad_settings_raise_at_construction(self, setting, match):
        with pytest.raises(ValueError, match=match):
            engine_mod.CampaignEngine(workload="peptide-tiny", **setting)


class TestDispatch:
    def test_child_dying_without_posting_is_crashed_and_retried(self):
        launched, settled = [], []
        final = engine_mod.dispatch(
            os._exit, {"k": 3}, n_workers=1, retries=1, backoff=0.01,
            on_launch=launched.append, on_settle=settled.append,
        )
        assert [a.number for a in launched] == [1, 2]
        assert all(a.pid is not None for a in launched)
        assert [(a.status, a.final) for a in settled] == [
            ("crashed", False), ("crashed", True),
        ]
        assert final["k"] is settled[1]
        assert final["k"].error == "worker exited with code 3"


class TestManifest:
    def test_manifest_written_and_readable(self, store_root):
        engine = tiny_engine(store_root)
        result = engine.run(tiny_points())
        path = store_root / "manifests" / f"{result.manifest.campaign_id}.json"
        assert path.exists()
        read_back = CampaignManifest.read(path)
        assert read_back.campaign_id == result.manifest.campaign_id
        assert read_back.workload == "peptide-tiny"
        assert read_back.schema == SCHEMA_VERSION
        assert [p.status for p in read_back.points] == ["ran", "ran"]
        assert read_back.counts["ran"] == 2
        assert "2/2" in read_back.summary_line()

    def test_campaign_id_is_deterministic(self, store_root):
        a = tiny_engine(store_root).run(tiny_points())
        b = tiny_engine(store_root).run(tiny_points())
        assert a.manifest.campaign_id == b.manifest.campaign_id


class TestGitRevision:
    """Every executed point stamps ``git_rev`` into its store metadata;
    ``git`` is asked once per process, not once per point."""

    #: six platform variants of one trajectory
    POINTS = [p for p in full_factorial() if p.n_ranks == 2 and p.config.middleware == "mpi"]

    @pytest.fixture()
    def git_forks(self, monkeypatch):
        """The ``git`` commands run from now on; the process has not asked yet."""
        forks = []
        real_run = subprocess.run

        def counted(args, *rest, **kwargs):
            if args[0] == "git":
                forks.append(args)
            return real_run(args, *rest, **kwargs)

        monkeypatch.setattr(subprocess, "run", counted)
        manifest_mod.git_revision.cache_clear()
        return forks

    @staticmethod
    def _stamped(store) -> set[str]:
        return {entry.meta["git_rev"] for entry in store.entries()}

    def test_inline_run(self, git_forks, store_root):
        expected = manifest_mod.git_revision.__wrapped__()
        git_forks.clear()
        engine = tiny_engine(store_root)
        result = engine.run(self.POINTS)
        assert result.ok and result.manifest.git_rev == expected
        assert len(git_forks) <= 1
        assert self._stamped(engine.store) == {expected}
        engine.store.close()

    def test_work_campaign(self, git_forks, tmp_path):
        expected = manifest_mod.git_revision.__wrapped__()
        git_forks.clear()
        board = tmp_path / "board.json"
        publish_campaign(tiny_engine(), self.POINTS, board)
        store = ResultStore(tmp_path / "worker")
        stats = work_campaign(board, store, "w0")
        assert stats["executed"] == len(self.POINTS)
        assert len(git_forks) <= 1
        assert self._stamped(store) == {expected}
        store.close()


class TestVerify:
    def test_intact_store_verifies_clean(self, store_root):
        engine = tiny_engine(store_root)
        engine.run(tiny_points())
        assert engine.verify(sample=2) == []

    def test_reopened_store_verifies_clean(self, store_root):
        tiny_engine(store_root).run(tiny_points())
        assert tiny_engine(store_root).verify(sample=2) == []

    def test_parallel_verify_clean(self, store_root):
        """Satellite: ``verify`` can fan the re-runs out over workers."""
        engine = tiny_engine(store_root)
        engine.run(tiny_points())
        assert engine.verify(sample=2, n_workers=2) == []

    def test_parallel_verify_detects_tampering(self, store_root):
        engine = tiny_engine(store_root)
        result = engine.run(tiny_points(ranks=(2,)))
        key = engine.key_for(tiny_points(ranks=(2,))[0])
        record = result.records[0]
        tampered = type(record)(
            **{**record_to_dict(record), "wall_time": record.wall_time * 1.5}
        )
        engine.store.put(key, tampered)
        mismatches = engine.verify(sample=2, n_workers=2)
        assert {m["field"] for m in mismatches} == {"wall_time"}

    @pytest.mark.parametrize("n_workers", [0, 1])
    def test_failing_rerun_is_a_rerun_mismatch(self, store_root, monkeypatch, n_workers):
        """Inline and pooled verification report a re-run error alike."""
        engine = tiny_engine(store_root)
        engine.run(tiny_points(ranks=(2,)))

        def broken(*args, **kwargs):
            raise RuntimeError("rerun broke")

        monkeypatch.setattr(engine_mod, "execute_point", broken)
        (mismatch,) = engine.verify(sample=1, n_workers=n_workers)
        assert mismatch["field"] == "__rerun__"
        assert mismatch["rerun"] == "RuntimeError: rerun broke"

    def test_tampered_record_detected(self, store_root):
        engine = tiny_engine(store_root)
        result = engine.run(tiny_points(ranks=(2,)))
        key = engine.key_for(tiny_points(ranks=(2,))[0])
        record = result.records[0]
        tampered = type(record)(
            **{**record_to_dict(record), "wall_time": record.wall_time * 1.5}
        )
        engine.store.put(key, tampered)
        mismatches = engine.verify(sample=2)
        assert mismatches
        assert {m["field"] for m in mismatches} == {"wall_time"}
        assert mismatches[0]["key"] == key


class TestRunnerSharing:
    def test_two_runners_share_work_in_process(self):
        """A second runner over the same workload and store performs
        zero MD work."""
        store = ResultStore(None)
        system, positions = build_workload("peptide-tiny")
        first = CharacterizationRunner(
            system=system, positions=positions, config=TINY_CONFIG, store=store
        )
        first.measure(tiny_points())

        second = CharacterizationRunner(
            system=system, positions=positions, config=TINY_CONFIG, store=store
        )
        before = FORCE_EVALUATIONS.snapshot()
        records = second.measure(tiny_points())
        assert FORCE_EVALUATIONS.delta(before) == 0
        assert len(records) == 2

    def test_runner_and_engine_share_one_persistent_store(self, store_root):
        tiny_engine(store_root).run(tiny_points())

        system, positions = build_workload("peptide-tiny")
        runner = CharacterizationRunner(
            system=system,
            positions=positions,
            config=TINY_CONFIG,
            store=ResultStore(store_root),
        )
        before = FORCE_EVALUATIONS.snapshot()
        runner.measure(tiny_points())
        assert FORCE_EVALUATIONS.delta(before) == 0
