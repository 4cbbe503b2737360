"""EXPERIMENTS.md quotes EXPERIMENTS.tables.txt, and nothing else.

Every decimal in a "measured" table cell, and in a sentence from
"Measured" to the end of its paragraph, must be a number of the pinned
tables (rounded to the digits quoted) or the ratio of two other decimals
of the same cell or sentence that are — so a ratio names its operands.
A factor (``2.1x``) is always a ratio, so it always names its operands.
Integers (percent shares, processor counts) are not checked.
"""

import re

import pytest

from .conftest import TABLES

DOC = TABLES.with_name("EXPERIMENTS.md")
DECIMAL = re.compile(r"(?<![\w.])(\d+\.\d+)(x?)(?![\w.])")


def _decimals(text: str) -> list[str]:
    return [m.group(1) for m in DECIMAL.finditer(text)]


def _near(value: float, quoted: str) -> bool:
    """``value`` rounds to ``quoted`` at its number of digits."""
    digits = len(quoted.partition(".")[2])
    return abs(value - float(quoted)) <= 0.5 * 10.0**-digits * (1 + 1e-9)


def measured_passages(doc: str) -> list[str]:
    """The "measured" cells and "Measured ..." sentences of the document."""
    passages = []
    column = None
    for line in doc.splitlines():
        if line.startswith("|"):
            cells = [c.strip() for c in line.strip("|").split("|")]
            if "measured" in cells:
                column = cells.index("measured")
            elif column is not None and not set(cells[0]) <= set("-"):
                passages.append(cells[column])
        else:
            column = None
    for paragraph in re.split(r"\n\s*\n", doc):
        text = " ".join(paragraph.split())
        passages += re.findall(r"Measured\b.*", text)
    return passages


def unsupported(passage: str, pinned: list[float]) -> list[str]:
    """The decimals of ``passage`` that are neither pinned nor a stated ratio."""
    quoted = [(m.group(1), bool(m.group(2))) for m in DECIMAL.finditer(passage)]
    occurs = {
        q for q, factor in quoted if not factor and any(_near(v, q) for v in pinned)
    }
    operands = [float(q) for q in occurs]
    return [
        q for q, _ in quoted
        if q not in occurs
        and not any(_near(a / b, q) for a in operands for b in operands if b and a != b)
    ]


def test_the_document_has_measured_passages():
    passages = measured_passages(DOC.read_text())
    assert len(passages) >= 20
    assert any(p.startswith("Measured series") for p in passages)


@pytest.fixture(scope="module")
def pinned() -> list[float]:
    return [float(v) for v in _decimals(TABLES.read_text())]


def test_every_measured_decimal_is_pinned_or_a_stated_ratio(pinned):
    problems = [
        f"{bad} in {passage!r}"
        for passage in measured_passages(DOC.read_text())
        for bad in unsupported(passage, pinned)
    ]
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize(
    "passage, ok",
    [
        ("6.17 s", True),
        ("3.37 / 1.88", True),  # 3.372, 1.883 rounded
        ("6.18 s", False),
        ("speedup 2.0x (6.17 → 3.03 s)", True),
        ("speedup 2.0x", False),  # a ratio must name its operands
        ("speedup 2.2x (6.17 → 3.03 s)", False),
        ("sync 2.2x", False),  # 2.2 is in the tables, but as a percentage
    ],
)
def test_checker(passage, ok, pinned):
    assert (not unsupported(passage, pinned)) is ok
