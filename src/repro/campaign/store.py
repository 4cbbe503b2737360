"""Persistent content-addressed result store.

Layout under the store root (``.repro-cache/`` by default)::

    .repro-cache/
        shard-<pid>.jsonl       one append-only shard per writing process
        shard-compact.jsonl     product of ``gc()``
        manifests/<id>.json     campaign manifests (see campaign.manifest)

Each shard line is one JSON document::

    {"key": "<sha256>", "schema": 1, "record": {...}, "meta": {...}}

Durability model: a writer appends whole lines and flushes them to the
OS after every put, so a killed campaign loses at most the line being
written.  The loader tolerates exactly that failure: a line that does
not parse (truncated tail of a crashed shard) is skipped with a warning
and every earlier line survives.  ``gc()`` rewrites the surviving
entries into one compact shard via an atomic rename, dropping corrupt
tails, stale schema versions and superseded duplicates.

Federation: stores merge.  ``export_shard()`` snapshots a store into one
portable shard file, ``import_shard()`` / ``merge()`` absorb another
store's entries with content-hash deduplication — an entry whose key is
already present with an identical record is skipped without writing a
byte, so replaying the same shard is bit-for-bit idempotent; the same
key arriving with a *different* record raises :class:`StoreConflictError`
(content addresses are deterministic, so a collision means corruption or
a non-reproducible producer, never a legitimate update).
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator

from ..core.responses import ResponseRecord
from .keys import SCHEMA_VERSION

__all__ = [
    "ResultStore",
    "StoreConflictError",
    "StoreEntry",
    "record_digest",
    "shared_memory_store",
]

_RECORD_FIELDS = [f.name for f in fields(ResponseRecord)]


def record_to_dict(record: ResponseRecord) -> dict:
    return {name: getattr(record, name) for name in _RECORD_FIELDS}


def record_from_dict(doc: dict) -> ResponseRecord:
    # fields absent from older records (e.g. ``strategy``) fall back to
    # their dataclass defaults; missing required fields still raise
    return ResponseRecord(**{name: doc[name] for name in _RECORD_FIELDS if name in doc})


def record_digest(record: ResponseRecord) -> str:
    """Content hash of one response record (canonical JSON, stable).

    Two hosts that executed the same design point deterministically
    produce the same digest — the federation layer compares these, never
    floats, when auditing that a merged store matches a single-host run.
    """
    doc = record_to_dict(record)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class StoreConflictError(Exception):
    """Same key, different record: the content address lied.

    Keys hash everything that determines a run's output, so two stores
    can only disagree about a key if one of them is corrupt or one
    producer was not reproducible.  Merging refuses to pick a winner.
    """


@dataclass(frozen=True)
class StoreEntry:
    """One cached result: its address, the record, and run metadata."""

    key: str
    record: ResponseRecord
    meta: dict
    schema: int = SCHEMA_VERSION


class ResultStore:
    """Content-addressed store of design-point responses.

    ``root=None`` gives a memory-only store (same interface, nothing
    persisted) — the default backing of in-process runner sharing.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else None
        self._index: dict[str, StoreEntry] = {}
        self._shard_file = None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
            self._load()

    # ------------------------------------------------------------------
    @staticmethod
    def _parse_shard(path: Path, stats: dict | None = None) -> Iterator[StoreEntry]:
        """Yield the readable entries of one shard file, skipping damage.

        A line that does not parse (the truncated tail of a crashed
        writer) is skipped with a warning; entries written under another
        schema version are dropped silently.  ``stats`` (if given)
        accumulates ``corrupt`` and ``stale_schema`` counts.
        """
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
                entry = StoreEntry(
                    key=doc["key"],
                    record=record_from_dict(doc["record"]),
                    meta=doc.get("meta", {}),
                    schema=doc.get("schema", -1),
                )
            except (ValueError, KeyError, TypeError):
                warnings.warn(
                    f"{path.name}:{lineno}: corrupt store line skipped "
                    "(truncated write from an interrupted campaign?)",
                    stacklevel=2,
                )
                if stats is not None:
                    stats["corrupt"] = stats.get("corrupt", 0) + 1
                continue
            if entry.schema != SCHEMA_VERSION:
                if stats is not None:
                    stats["stale_schema"] = stats.get("stale_schema", 0) + 1
                continue
            yield entry

    def _load(self) -> None:
        assert self.root is not None
        for shard in sorted(self.root.glob("*.jsonl")):
            for entry in self._parse_shard(shard):
                self._index[entry.key] = entry

    def _shard(self):
        assert self.root is not None
        if self._shard_file is None or self._shard_file.closed:
            path = self.root / f"shard-{os.getpid()}.jsonl"
            self._shard_file = open(path, "a", encoding="utf-8")
        return self._shard_file

    # ------------------------------------------------------------------
    def get(self, key: str) -> ResponseRecord | None:
        entry = self._index.get(key)
        return entry.record if entry is not None else None

    def entry(self, key: str) -> StoreEntry | None:
        return self._index.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._index)

    def entries(self) -> Iterator[StoreEntry]:
        yield from self._index.values()

    def put(self, key: str, record: ResponseRecord, meta: dict | None = None) -> None:
        """Insert (or supersede) one result; persists immediately."""
        entry = StoreEntry(key=key, record=record, meta=dict(meta or {}))
        self._index[key] = entry
        if self.root is not None:
            line = self._entry_line(entry)
            f = self._shard()
            f.write(line + "\n")
            f.flush()
            os.fsync(f.fileno())

    # ------------------------------------------------------------------
    def gc(self) -> tuple[int, int]:
        """Compact shards into one; returns ``(kept, dropped)`` line counts.

        Drops corrupt tails, entries written under another schema
        version, and duplicate lines superseded by a later put.
        """
        if self.root is None:
            return (len(self._index), 0)
        shards = sorted(self.root.glob("*.jsonl"))
        total_lines = 0
        for shard in shards:
            total_lines += sum(1 for line in shard.read_text().splitlines() if line.strip())
        if self._shard_file is not None and not self._shard_file.closed:
            self._shard_file.close()
            self._shard_file = None

        tmp = self.root / "shard-compact.jsonl.tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            for entry in self._index.values():
                f.write(self._entry_line(entry) + "\n")
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self.root / "shard-compact.jsonl")
        for shard in shards:
            if shard.name != "shard-compact.jsonl":
                shard.unlink(missing_ok=True)
        kept = len(self._index)
        return (kept, total_lines - kept)

    # ------------------------------------------------------------------
    # federation: stores merge
    @staticmethod
    def _entry_line(entry: StoreEntry) -> str:
        return json.dumps(
            {
                "key": entry.key,
                "schema": entry.schema,
                "record": record_to_dict(entry.record),
                "meta": entry.meta,
            }
        )

    def export_shard(self, path: str | Path) -> int:
        """Snapshot every entry into one portable shard file.

        The write is atomic (temp file + rename), so a reader — or a
        concurrent ``import_shard`` on another host — never sees a half
        shard.  Returns the number of entries exported.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "w", encoding="utf-8") as f:
            for entry in self._index.values():
                f.write(self._entry_line(entry) + "\n")
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
        return len(self._index)

    def _absorb(self, entries: Iterable[StoreEntry]) -> dict:
        """Fold foreign entries in; the core of every merge path.

        * unknown key — adopted (and persisted, for a disk-backed store);
        * known key, identical record — deduplicated: nothing is written,
          which is what makes replaying a shard bit-for-bit idempotent
          (the destination's files do not change);
        * known key, different record — :class:`StoreConflictError`.
          Nothing is adopted from the offending entry; everything
          absorbed before it remains (each adoption was already durable).
        """
        stats = {"imported": 0, "duplicates": 0, "conflicts": 0}
        for entry in entries:
            mine = self._index.get(entry.key)
            if mine is None:
                self.put(entry.key, entry.record, entry.meta)
                stats["imported"] += 1
            elif record_to_dict(mine.record) == record_to_dict(entry.record):
                stats["duplicates"] += 1
            else:
                stats["conflicts"] += 1
                raise StoreConflictError(
                    f"key {entry.key[:12]}… carries a different record than "
                    "this store's copy (same content address, different "
                    "content) — refusing to merge"
                )
        return stats

    def import_shard(self, path: str | Path) -> dict:
        """Absorb one shard file; returns merge statistics.

        Tolerates the same damage ``_load`` does — a truncated tail or a
        corrupt line is skipped (counted under ``corrupt``), every
        readable entry merges.  Importing the same shard twice changes
        nothing: the second pass is all duplicates and writes no bytes.
        """
        path = Path(path)
        stats: dict = {}
        absorbed = self._absorb(self._parse_shard(path, stats))
        return {**absorbed, **{k: stats.get(k, 0) for k in ("corrupt", "stale_schema")}}

    def merge(self, other: "ResultStore") -> dict:
        """Absorb every entry of another (already loaded) store."""
        return self._absorb(other.entries())

    def close(self) -> None:
        if self._shard_file is not None and not self._shard_file.closed:
            self._shard_file.close()
        self._shard_file = None

    def describe(self) -> dict:
        """Store statistics for ``repro campaign status``."""
        n_shards = nbytes = 0
        if self.root is not None:
            for shard in self.root.glob("*.jsonl"):
                n_shards += 1
                nbytes += shard.stat().st_size
        return {
            "root": str(self.root) if self.root is not None else None,
            "entries": len(self._index),
            "shards": n_shards,
            "bytes": nbytes,
            "schema": SCHEMA_VERSION,
        }


_PROCESS_STORE: ResultStore | None = None


def shared_memory_store() -> ResultStore:
    """The process-wide in-memory store runners share by default.

    Two :class:`~repro.campaign.runner.CharacterizationRunner` instances
    over the same workload resolve to the same keys here, so neither
    repeats the other's work.
    """
    global _PROCESS_STORE
    if _PROCESS_STORE is None:
        _PROCESS_STORE = ResultStore(None)
    return _PROCESS_STORE
