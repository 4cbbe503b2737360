"""Deterministic map-reduce over content-addressed store shards.

The map unit is one shard file: :func:`map_shard` parses it with the
store's own corruption-tolerant reader and projects every surviving
entry into a flat *row* (the record fields plus the axes and provenance
the reducers group on).  The reduce side then merges partials under
exactly the semantics ``ResultStore._load`` uses — shards in
sorted-filename order, the later shard winning on a key collision — and
hands every analyzer one list of rows **sorted by cache key**.

That pipeline is what makes every report independent of how the same
entries are laid out across shard files:

* shards are mapped and merged in sorted-filename order, so the same
  duplicate always wins;
* rows reach the reducers sorted by key, so iteration order (and
  therefore floating-point summation order) is fixed;
* reducers never read the wall clock or host identity into the report
  document.

The map runs inline, in this process: parsing a shard costs less than
handing it to a worker process, so a pool made every report slower at
the store sizes campaigns produce (DESIGN.md §14).
"""

from __future__ import annotations

import warnings
from pathlib import Path

from ..store import ResultStore, record_to_dict

__all__ = [
    "AnalysisError",
    "discover_shards",
    "map_shard",
    "map_shards",
    "merge_rows",
]


class AnalysisError(Exception):
    """A post-hoc analysis cannot run (no shards, bad arguments, ...)."""


def discover_shards(store_root: str | Path) -> list[Path]:
    """The store's shard files in canonical (sorted-filename) order."""
    root = Path(store_root)
    if not root.is_dir():
        raise AnalysisError(f"store directory {root} does not exist")
    shards = sorted(root.glob("*.jsonl"))
    if not shards:
        raise AnalysisError(f"store {root} has no shards (nothing to analyze)")
    return shards


def _row_from_entry(entry) -> dict:
    """Flatten one store entry into the row shape reducers consume."""
    row = dict(record_to_dict(entry.record))
    meta = entry.meta or {}
    row["key"] = entry.key
    row["workload"] = meta.get("workload", "?")
    row["label"] = meta.get("label", "")
    row["producer"] = meta.get("worker") or meta.get("host") or "local"
    return row


def map_shard(path: str | Path) -> dict:
    """Map one shard file to its partial document (pure).

    Within a shard the last occurrence of a key wins, mirroring the
    append-then-supersede write model.  Damage is counted, not raised:
    corrupt lines and stale-schema entries land in the partial's stats
    for the coverage analyzer (the store reader's per-line warnings are
    suppressed here — damage *is* the data being reported).
    """
    path = Path(path)
    stats: dict = {}
    rows: dict[str, dict] = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for entry in ResultStore._parse_shard(path, stats):
            rows[entry.key] = _row_from_entry(entry)
    return {
        "shard": path.name,
        "rows": list(rows.values()),
        "corrupt": stats.get("corrupt", 0),
        "stale_schema": stats.get("stale_schema", 0),
    }


def map_shards(store_root: str | Path) -> list[dict]:
    """Map every shard of a store, in sorted-shard order.

    A mapper that raises an ``Exception`` fails the map stage as an
    :class:`AnalysisError` naming the shard; an interrupt propagates.
    """
    partials = []
    for path in discover_shards(store_root):
        try:
            partials.append(map_shard(path))
        except Exception as exc:
            raise AnalysisError(
                f"map stage failed on {path.name}: {type(exc).__name__}: {exc}"
            ) from exc
    return partials


def merge_rows(partials: list[dict]) -> list[dict]:
    """Fold partials into one row list, sorted by cache key.

    Later shards (in the sorted-filename order ``map_shards`` already
    established) win on key collisions — the exact supersede rule the
    store's loader applies.
    """
    by_key: dict[str, dict] = {}
    for partial in partials:
        for row in partial["rows"]:
            by_key[row["key"]] = row
    return [by_key[key] for key in sorted(by_key)]
