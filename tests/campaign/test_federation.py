"""Store federation: shard import/merge semantics and multi-host audits."""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    ResultStore,
    StoreConflictError,
    merge_into_store,
    record_digest,
    verify_stores_match,
)
from repro.campaign.store import record_to_dict

from .conftest import tiny_engine, tiny_points


def _run_into(store_root, points, **kw):
    engine = tiny_engine(store_root, **kw)
    engine.run(points)
    return engine


def _store_bytes(root) -> dict:
    return {f.name: f.read_bytes() for f in sorted(root.glob("*.jsonl"))}


def _snapshot(root, shard) -> int:
    """Concatenate a store's shard files into one portable shard."""
    shard.write_text("".join(f.read_text() for f in sorted(root.glob("*.jsonl"))))
    return len(shard.read_text().splitlines())


class TestExportImport:
    def test_export_then_import_reproduces_the_store(self, tmp_path):
        _run_into(tmp_path / "a", tiny_points())
        src = ResultStore(tmp_path / "a")
        shard = tmp_path / "snapshot.jsonl"
        assert _snapshot(tmp_path / "a", shard) == 2

        dest = ResultStore(tmp_path / "b")
        stats = dest.import_shard(shard)
        assert stats == {
            "imported": 2, "duplicates": 0, "conflicts": 0,
            "corrupt": 0, "stale_schema": 0,
        }
        assert verify_stores_match(src, dest) == []

    def test_importing_the_same_shard_twice_is_a_bitwise_noop(self, tmp_path):
        _run_into(tmp_path / "a", tiny_points())
        shard = tmp_path / "snapshot.jsonl"
        _snapshot(tmp_path / "a", shard)

        dest = ResultStore(tmp_path / "b")
        dest.import_shard(shard)
        dest.close()
        before = _store_bytes(tmp_path / "b")

        reopened = ResultStore(tmp_path / "b")
        stats = reopened.import_shard(shard)
        reopened.close()
        assert stats["imported"] == 0
        assert stats["duplicates"] == 2
        # idempotence is literal: not one byte of the store changed
        assert _store_bytes(tmp_path / "b") == before

    def test_truncated_shard_imports_its_readable_prefix(self, tmp_path):
        _run_into(tmp_path / "a", tiny_points())
        shard = tmp_path / "snapshot.jsonl"
        _snapshot(tmp_path / "a", shard)
        lines = shard.read_text().splitlines()
        # a crashed writer: whole first line, then a torn second line
        shard.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])

        dest = ResultStore(tmp_path / "b")
        with pytest.warns(UserWarning, match="corrupt store line skipped"):
            stats = dest.import_shard(shard)
        assert stats["imported"] == 1
        assert stats["corrupt"] == 1
        assert len(dest) == 1

    def test_garbage_lines_are_skipped_not_fatal(self, tmp_path):
        _run_into(tmp_path / "a", tiny_points(ranks=(1,)))
        shard = tmp_path / "snapshot.jsonl"
        _snapshot(tmp_path / "a", shard)
        shard.write_text("not json at all\n" + shard.read_text() + "{\"key\": 1}\n")

        dest = ResultStore(tmp_path / "b")
        with pytest.warns(UserWarning):
            stats = dest.import_shard(shard)
        assert stats["imported"] == 1
        assert stats["corrupt"] == 2

    def test_key_collision_with_different_record_raises(self, tmp_path):
        _run_into(tmp_path / "a", tiny_points())
        shard = tmp_path / "snapshot.jsonl"
        _snapshot(tmp_path / "a", shard)
        docs = [json.loads(line) for line in shard.read_text().splitlines()]
        docs[0]["record"]["wall_time"] = docs[0]["record"]["wall_time"] + 1.0
        shard.write_text("\n".join(json.dumps(d) for d in docs) + "\n")

        dest = ResultStore(tmp_path / "b")
        dest.merge(ResultStore(tmp_path / "a"))  # the honest copies first
        with pytest.raises(StoreConflictError, match="different record"):
            dest.import_shard(shard)
        # nothing from the conflicting entry leaked in
        assert record_to_dict(dest.get(docs[0]["key"])) != docs[0]["record"]

    def test_conflicting_meta_alone_is_a_duplicate_not_a_conflict(self, tmp_path):
        # two hosts legitimately produce different provenance metadata for
        # the same deterministic record; that must merge cleanly
        _run_into(tmp_path / "a", tiny_points(ranks=(1,)))
        src = ResultStore(tmp_path / "a")
        entry = next(src.entries())
        dest = ResultStore(tmp_path / "b")
        dest.put(entry.key, entry.record, {"host": "elsewhere", "label": "same point"})
        stats = dest.merge(src)
        assert stats == {"imported": 0, "duplicates": 1, "conflicts": 0}


class TestTwoHostCampaign:
    def test_split_campaign_merges_bit_identical_to_single_host(self, tmp_path):
        """The acceptance scenario: two 'hosts' split a factorial design.

        Each half runs in its own store; merging both halves yields a
        store with the same keys and the same record hashes as one host
        running the whole design, and a second merge changes nothing.
        """
        points = tiny_points(ranks=(1, 2, 4))
        _run_into(tmp_path / "host-a", points[:2])
        _run_into(tmp_path / "host-b", points[2:])
        _run_into(tmp_path / "single", points)

        merged = ResultStore(tmp_path / "merged")
        stats = merge_into_store(
            merged, [tmp_path / "host-a", tmp_path / "host-b"]
        )
        assert stats["imported"] == 3
        assert stats["entries"] == 3

        single = ResultStore(tmp_path / "single")
        assert verify_stores_match(merged, single) == []
        for entry in single.entries():
            assert record_digest(merged.entry(entry.key).record) == record_digest(
                entry.record
            )

        merged.close()
        before = _store_bytes(tmp_path / "merged")
        again = merge_into_store(
            ResultStore(tmp_path / "merged"), [tmp_path / "host-a", tmp_path / "host-b"]
        )
        assert again["imported"] == 0
        assert again["duplicates"] == 3
        assert _store_bytes(tmp_path / "merged") == before

    def test_merge_manifest_records_which_host_ran_which_point(self, tmp_path):
        points = tiny_points(ranks=(1, 2))
        _run_into(tmp_path / "host-a", points[:1])
        _run_into(tmp_path / "host-b", points[1:])
        # forge distinct host provenance (both "hosts" are this machine)
        for name in ("host-a", "host-b"):
            store = ResultStore(tmp_path / name)
            for entry in list(store.entries()):
                entry.meta["host"] = name
                store.put(entry.key, entry.record, entry.meta)

        merged = ResultStore(tmp_path / "merged")
        stats = merge_into_store(merged, [tmp_path / "host-a", tmp_path / "host-b"])
        manifest = stats["manifest"]
        hosts = {p.label: p.host for p in manifest.points}
        assert set(hosts.values()) == {"host-a", "host-b"}
        assert len(manifest.points) == 2
        # and the manifest landed on disk, loadable, with provenance intact
        path = tmp_path / "merged" / "manifests" / f"{manifest.campaign_id}.json"
        assert path.exists()
        from repro.campaign import CampaignManifest

        reread = CampaignManifest.read(path)
        assert {p.label: p.host for p in reread.points} == hosts

    def test_crashed_workers_partial_shard_merges_cleanly(self, tmp_path):
        """A worker killed mid-write leaves a torn tail; merge survives it."""
        points = tiny_points(ranks=(1, 2))
        _run_into(tmp_path / "host-a", points)
        # simulate the crash: chop the live shard mid-line
        (shard,) = sorted((tmp_path / "host-a").glob("shard-*.jsonl"))
        raw = shard.read_bytes()
        shard.write_bytes(raw[: len(raw) - len(raw.splitlines(True)[-1]) // 2])

        merged = ResultStore(tmp_path / "merged")
        with pytest.warns(UserWarning, match="corrupt store line skipped"):
            stats = merge_into_store(merged, [tmp_path / "host-a"])
        assert stats["imported"] == 1  # the intact record survived
        assert len(merged) == 1


class TestVerifyAcrossHosts:
    def test_engine_verify_audits_merged_foreign_records(self, tmp_path):
        """``campaign verify`` on a merged store re-runs any host's points."""
        points = tiny_points(ranks=(1, 2))
        _run_into(tmp_path / "host-a", points)
        merged_root = tmp_path / "merged"
        merge_into_store(ResultStore(merged_root), [tmp_path / "host-a"])

        auditor = tiny_engine(merged_root)
        assert auditor.verify(sample=2) == []

    def test_verify_stores_match_reports_all_discrepancy_kinds(self, tmp_path):
        points = tiny_points(ranks=(1, 2))
        _run_into(tmp_path / "a", points)
        _run_into(tmp_path / "b", points[:1])
        a, b = ResultStore(tmp_path / "a"), ResultStore(tmp_path / "b")
        problems = verify_stores_match(a, b)
        assert len(problems) == 1
        assert "only in first store" in problems[0]
