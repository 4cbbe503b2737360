"""Completeness and coverage audit over a campaign store.

Answers two questions no single manifest can:

* **factorial completeness** — per (workload, strategy), which cells of
  the observed factorial grid (network x middleware x cpus_per_node x
  p x replicate) are missing?  A half-run nightly or a crashed worker
  leaves holes this report names explicitly.
* **shard health** — how many corrupt lines and stale-schema entries
  does each shard carry, and which shards are fully *orphaned* (every
  entry superseded by a later shard — safe to garbage-collect)?

``ok`` reflects *damage* only (corrupt lines, stale schema, orphans);
missing factorial cells are reported but do not fail the audit — a
deliberately sparse campaign is not an error.
"""

from __future__ import annotations

__all__ = ["COVERAGE_SCHEMA", "coverage_report"]

COVERAGE_SCHEMA = 2

#: Cap on the missing-cell listing so a near-empty grid cannot bloat
#: the report; the total is always reported exactly.
_MISSING_CAP = 50

_GRID_AXES = ("network", "middleware", "cpus_per_node", "n_ranks", "replicate")


def _shard_docs(partials: list[dict], rows: list[dict]) -> list[dict]:
    """Per-shard health, including how many entries survive the merge."""
    live_keys = {row["key"] for row in rows}
    winner: dict[str, str] = {}
    per_shard_keys: dict[str, set] = {}
    for partial in partials:  # sorted-shard order: later shard wins
        keys = {row["key"] for row in partial["rows"]}
        per_shard_keys[partial["shard"]] = keys
        for key in keys:
            winner[key] = partial["shard"]
    docs = []
    for partial in partials:
        shard = partial["shard"]
        live = sum(
            1
            for key in per_shard_keys[shard]
            if winner[key] == shard and key in live_keys
        )
        docs.append(
            {
                "shard": shard,
                "entries": len(partial["rows"]),
                "live": live,
                "corrupt": partial["corrupt"],
                "stale_schema": partial["stale_schema"],
            }
        )
    return docs


def _grid_docs(rows: list[dict]) -> list[dict]:
    """Expected-vs-observed factorial grid per (workload, strategy)."""
    by_group: dict[tuple, list[dict]] = {}
    for row in rows:
        by_group.setdefault((row["workload"], row["strategy"]), []).append(row)

    docs = []
    for gkey in sorted(by_group):
        members = by_group[gkey]
        levels = {
            axis: sorted({row[axis] for row in members}, key=str)
            for axis in _GRID_AXES
        }
        observed = {tuple(row[axis] for axis in _GRID_AXES) for row in members}
        expected = 1
        for axis_levels in levels.values():
            expected *= len(axis_levels)

        missing = []
        n_missing = 0

        def _walk(prefix: tuple, remaining: tuple) -> None:
            nonlocal n_missing
            if not remaining:
                if prefix not in observed:
                    n_missing += 1
                    if len(missing) < _MISSING_CAP:
                        missing.append(dict(zip(_GRID_AXES, prefix)))
                return
            for level in levels[remaining[0]]:
                _walk(prefix + (level,), remaining[1:])

        _walk((), _GRID_AXES)
        docs.append(
            {
                "workload": gkey[0],
                "strategy": gkey[1],
                "levels": {
                    "p" if axis == "n_ranks" else axis: vals
                    for axis, vals in levels.items()
                },
                "expected_cells": expected,
                "observed_cells": len(observed),
                "missing_cells": n_missing,
                "missing": missing,
                "missing_truncated": n_missing - len(missing),
            }
        )
    return docs


def coverage_report(partials: list[dict], rows: list[dict]) -> dict:
    """Reduce map partials + merged rows into the coverage audit."""
    shard_docs = _shard_docs(partials, rows)
    orphaned = [doc["shard"] for doc in shard_docs if doc["live"] == 0]
    corrupt = sum(doc["corrupt"] for doc in shard_docs)
    stale = sum(doc["stale_schema"] for doc in shard_docs)
    grids = _grid_docs(rows)
    return {
        "analyzer": "coverage",
        "schema": COVERAGE_SCHEMA,
        "n_records": len(rows),
        "shards": shard_docs,
        "orphaned_shards": orphaned,
        "corrupt_lines": corrupt,
        "stale_schema_entries": stale,
        "grids": grids,
        "missing_cells": sum(g["missing_cells"] for g in grids),
        "ok": not (corrupt or stale or orphaned),
    }
