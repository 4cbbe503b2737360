"""Shared figure runner: the full 3552-atom workload, 10-step runs.

One :class:`CharacterizationRunner` is shared by every experiment test so
each design point is simulated exactly once per session, and every
driver of ``ALL_FIGURES`` runs on it at most once (the ablations bypass
the record store, so a second call would pay for its runs again).
"""

import functools
import re
from pathlib import Path

import pytest

from repro.experiments import ALL_FIGURES, default_runner

#: the committed stdout of ``python -m repro figures --all``
TABLES = Path(__file__).resolve().parents[2] / "EXPERIMENTS.tables.txt"


@pytest.fixture(scope="session")
def figure_runner():
    return default_runner(n_steps=10)


@pytest.fixture(scope="session")
def figure_result(figure_runner):
    """``figure_result(figure_id)``: that driver's result on the full workload."""
    return functools.cache(lambda figure_id: ALL_FIGURES[figure_id](figure_runner))


@pytest.fixture(scope="session")
def pinned_tables() -> dict[str, str]:
    """Every ``== title ==`` table of ``EXPERIMENTS.tables.txt``, by title line."""
    tables = TABLES.read_text().strip("\n").split("\n\n")
    return {table.partition("\n")[0]: table for table in tables}


@pytest.fixture(scope="session")
def pinned_rows(pinned_tables):
    """``pinned_rows(title)``: one pinned table as dicts keyed by column
    header (numbers as floats) — for claims on the tables tier-1 does not
    regenerate, which the nightly ``cmp`` holds equal to the code."""

    def number(cell: str):
        try:
            return float(cell)
        except ValueError:
            return cell

    def rows(title: str) -> list[dict]:
        _, header, _, *body = pinned_tables[title].splitlines()
        columns = re.split(r" {2,}", header.strip())
        return [
            dict(zip(columns, map(number, re.split(r" {2,}", line.strip()))))
            for line in body
        ]

    return rows
