"""Plain-text rendering of response tables and breakdown charts.

``python -m repro figures`` prints the same rows/series the paper's
figures plot; these helpers keep the formatting in one place.
"""

from __future__ import annotations

from typing import Sequence

from .responses import ResponseRecord

__all__ = ["format_table", "time_series_table", "breakdown_table", "speed_table", "text_bar"]


def format_table(headers: Sequence[str], rows: Sequence[Sequence], precision: int = 3) -> str:
    """A fixed-width text table."""

    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.{precision}f}"
        return str(value)

    cells = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in cells)) if cells else len(headers[c])
        for c in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def text_bar(fraction: float, width: int = 30, fill: str = "#") -> str:
    """A proportional text bar for breakdown charts."""
    fraction = min(max(fraction, 0.0), 1.0)
    n = round(fraction * width)
    return fill * n + "." * (width - n)


def time_series_table(records: Sequence[ResponseRecord], label: str = "") -> str:
    """Wall-time rows (classic / PME / total) per processor count."""
    headers = ["platform", "p", "classic (s)", "pme (s)", "total (s)"]
    rows = [
        [
            f"{r.network}/{r.middleware}/{'uni' if r.cpus_per_node == 1 else 'dual'}",
            r.n_ranks,
            r.classic_time,
            r.pme_time,
            r.total_time,
        ]
        for r in records
    ]
    title = f"== {label} ==\n" if label else ""
    return title + format_table(headers, rows)


def breakdown_table(
    records: Sequence[ResponseRecord], component: str = "classic", label: str = ""
) -> str:
    """Percentage comp/comm/sync rows per processor count.

    ``component`` is ``"classic"``, ``"pme"`` or ``"total"``.
    """
    headers = ["platform", "p", "comp %", "comm %", "sync %", "bar (comp#comm+sync-)"]
    rows = []
    for r in records:
        if component == "classic":
            comp, comm, sync = r.classic_comp, r.classic_comm, r.classic_sync
        elif component == "pme":
            comp, comm, sync = r.pme_comp, r.pme_comm, r.pme_sync
        elif component == "total":
            comp, comm, sync = r.total_comp, r.total_comm, r.total_sync
        else:
            raise ValueError(f"unknown component {component!r}")
        total = comp + comm + sync
        fc = comp / total if total else 0.0
        fm = comm / total if total else 0.0
        fs = sync / total if total else 0.0
        bar = (
            text_bar(fc, 20, "#")[: round(fc * 20)]
            + text_bar(fm, 20, "+")[: round(fm * 20)]
            + text_bar(fs, 20, "-")[: round(fs * 20)]
        )
        rows.append(
            [
                f"{r.network}/{r.middleware}/{'uni' if r.cpus_per_node == 1 else 'dual'}",
                r.n_ranks,
                100 * fc,
                100 * fm,
                100 * fs,
                bar,
            ]
        )
    title = f"== {label} ({component}) ==\n" if label else ""
    return title + format_table(headers, rows, precision=1)


def speed_table(records: Sequence[ResponseRecord], label: str = "") -> str:
    """Per-node communication speed rows (mean, min, max in MB/s)."""
    headers = ["platform", "p", "mean MB/s", "min MB/s", "max MB/s"]
    rows = [
        [
            f"{r.network}/{r.middleware}/{'uni' if r.cpus_per_node == 1 else 'dual'}",
            r.n_ranks,
            r.comm_mean_mbs,
            r.comm_min_mbs,
            r.comm_max_mbs,
        ]
        for r in records
        if r.n_ranks > 1
    ]
    title = f"== {label} ==\n" if label else ""
    return title + format_table(headers, rows, precision=1)
