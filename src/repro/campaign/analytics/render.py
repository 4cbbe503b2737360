"""Render analysis report documents as canonical JSON, Markdown, or HTML.

``to_json_bytes`` is the byte-identity surface the determinism contract
is stated against: sorted keys, two-space indent, one trailing newline.
The Markdown and HTML renderers are projections of the same document —
a shared section model keeps them in lockstep — and inherit determinism
from the document itself.
"""

from __future__ import annotations

import html
import json

__all__ = ["FORMATS", "render", "to_json_bytes"]

FORMATS = ("json", "md", "html")


def to_json_bytes(doc: dict) -> bytes:
    """Canonical report encoding: the bytes saved, served, and compared."""
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if value is None:
        return "—"
    return str(value)


def _phase_cells(phases: dict, name: str) -> list[str]:
    phase = phases[name]
    cells = [_fmt(phase["total"])]
    pct = phase.get("pct")
    if pct:
        cells.append(
            f"{pct['comp']:.1f}/{pct['comm']:.1f}/{pct['sync']:.1f}"
        )
    else:
        cells.append("—")
    return cells


def _report_sections(doc: dict) -> list[dict]:
    sections = []
    for group in doc["groups"]:
        axes = ", ".join(f"{k}={v}" for k, v in sorted(group["group"].items()))
        headers = [
            doc["series"], "reps", "wall", "speedup", "eff",
            "classic", "c%/m/s", "pme", "c%/m/s", "overhead",
        ]
        table_rows = []
        for point in group["points"]:
            table_rows.append(
                [
                    _fmt(point["series"]),
                    _fmt(point["replicates"]),
                    _fmt(point["wall_time"]),
                    _fmt(point.get("speedup")),
                    _fmt(point.get("efficiency")),
                    *_phase_cells(point["phases"], "classic"),
                    *_phase_cells(point["phases"], "pme"),
                    _fmt(point["phases"]["total"].get("overhead_fraction")),
                ]
            )
        lines = []
        crossover = group.get("crossover")
        if crossover:
            lines.append(
                "crossover (comm+sync > comp): "
                + ", ".join(
                    f"{phase} at p={_fmt(crossover[phase])}"
                    for phase in ("classic", "pme", "total")
                )
            )
        sections.append(
            {"title": axes or "all records", "lines": lines,
             "table": (headers, table_rows)}
        )
    return sections


def _drift_sections(doc: dict) -> list[dict]:
    rows = [
        [g["workload"], g["strategy"], _fmt(g["n_records"]),
         _fmt(g["consensus_energy"]), _fmt(len(g["clusters"]))]
        for g in doc["workloads"]
    ]
    sections = [
        {
            "title": f"energy consensus (rtol {doc['rtol']:g})",
            "lines": [],
            "table": (
                ["workload", "strategy", "records", "consensus", "clusters"],
                rows,
            ),
        }
    ]
    if doc["findings"]:
        sections.append(
            {
                "title": f"findings ({len(doc['findings'])})",
                "lines": [],
                "table": (
                    ["check", "key", "detail"],
                    [[f["check"], f["key"][:12], f["detail"]]
                     for f in doc["findings"]],
                ),
            }
        )
    else:
        sections.append(
            {"title": "findings", "lines": ["none — store is clean"],
             "table": None}
        )
    return sections


def _trend_sections(doc: dict) -> list[dict]:
    lines = [
        f"baseline: {doc['baseline']['name']} ({doc['baseline']['kind']})",
        f"candidate: {doc['candidate']['name']} ({doc['candidate']['kind']})",
        f"{doc['compared']} metrics compared over {doc['common_series']} "
        f"shared series at factor {doc['factor']:g}",
    ]
    for side in ("only_in_baseline", "only_in_candidate"):
        if doc[side]:
            lines.append(f"{side.replace('_', ' ')}: {len(doc[side])} series")
    sections = [{"title": "comparison", "lines": lines, "table": None}]
    for label, entries in (
        ("regressions", doc["regressions"]),
        ("improvements", doc["improvements"]),
    ):
        if not entries:
            continue
        rows = []
        for entry in entries:
            phase = entry.get("attribution", {}).get("dominant_phase", "")
            rows.append(
                [entry["name"], entry["metric"], _fmt(entry["baseline"]),
                 _fmt(entry["candidate"]), _fmt(entry["ratio"]), phase]
            )
        sections.append(
            {
                "title": f"{label} ({len(entries)})",
                "lines": [],
                "table": (
                    ["series", "metric", "baseline", "candidate", "ratio",
                     "attribution"],
                    rows,
                ),
            }
        )
    if not doc["regressions"]:
        sections.append(
            {"title": "verdict", "lines": ["no regressions beyond the gate"],
             "table": None}
        )
    return sections


def _coverage_sections(doc: dict) -> list[dict]:
    sections = [
        {
            "title": "shards",
            "lines": [
                f"corrupt lines: {doc['corrupt_lines']}, stale schema: "
                f"{doc['stale_schema_entries']}, orphaned shards: "
                f"{len(doc['orphaned_shards'])}"
            ],
            "table": (
                ["shard", "entries", "live", "corrupt", "stale"],
                [[s["shard"], _fmt(s["entries"]), _fmt(s["live"]),
                  _fmt(s["corrupt"]), _fmt(s["stale_schema"])]
                 for s in doc["shards"]],
            ),
        }
    ]
    rows = [
        [g["workload"], g["strategy"], _fmt(g["expected_cells"]),
         _fmt(g["observed_cells"]), _fmt(g["missing_cells"])]
        for g in doc["grids"]
    ]
    sections.append(
        {
            "title": f"factorial coverage ({doc['missing_cells']} missing)",
            "lines": [],
            "table": (
                ["workload", "strategy", "expected", "observed", "missing"],
                rows,
            ),
        }
    )
    return sections


_SECTIONS = {
    "report": _report_sections,
    "drift": _drift_sections,
    "trend": _trend_sections,
    "coverage": _coverage_sections,
}


def _sections(doc: dict) -> list[dict]:
    builder = _SECTIONS.get(doc.get("analyzer"))
    if builder is None:
        return [{"title": "document", "lines": [json.dumps(doc, sort_keys=True)],
                 "table": None}]
    return builder(doc)


def _title(doc: dict) -> str:
    name = doc.get("analyzer", "analysis")
    ok = doc.get("ok")
    suffix = "" if ok is None else (" — ok" if ok else " — FAIL")
    return f"campaign {name}{suffix}"


def _render_md(doc: dict) -> str:
    out = [f"# {_title(doc)}", ""]
    for section in _sections(doc):
        out.append(f"## {section['title']}")
        out.append("")
        for line in section["lines"]:
            out.append(line)
            out.append("")
        if section["table"]:
            headers, rows = section["table"]
            out.append("| " + " | ".join(headers) + " |")
            out.append("|" + "---|" * len(headers))
            for row in rows:
                out.append("| " + " | ".join(str(c) for c in row) + " |")
            out.append("")
    return "\n".join(out).rstrip() + "\n"


def _render_html(doc: dict) -> str:
    esc = html.escape
    out = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>{esc(_title(doc))}</title>",
        "<style>body{font-family:sans-serif;margin:2em}"
        "table{border-collapse:collapse;margin:0.5em 0}"
        "td,th{border:1px solid #999;padding:0.25em 0.6em;text-align:right}"
        "th{background:#eee}td:first-child,th:first-child{text-align:left}"
        ".fail{color:#b00}</style></head><body>",
        f"<h1>{esc(_title(doc))}</h1>",
    ]
    for section in _sections(doc):
        out.append(f"<h2>{esc(section['title'])}</h2>")
        for line in section["lines"]:
            out.append(f"<p>{esc(line)}</p>")
        if section["table"]:
            headers, rows = section["table"]
            out.append("<table><tr>" +
                       "".join(f"<th>{esc(h)}</th>" for h in headers) + "</tr>")
            for row in rows:
                out.append(
                    "<tr>" + "".join(f"<td>{esc(str(c))}</td>" for c in row)
                    + "</tr>"
                )
            out.append("</table>")
    out.append("</body></html>")
    return "\n".join(out) + "\n"


def render(doc: dict, fmt: str = "json") -> str:
    """Render a report document in one of :data:`FORMATS`."""
    if fmt == "json":
        return to_json_bytes(doc).decode("utf-8")
    if fmt == "md":
        return _render_md(doc)
    if fmt == "html":
        return _render_html(doc)
    raise ValueError(f"unknown format {fmt!r} (one of {', '.join(FORMATS)})")
