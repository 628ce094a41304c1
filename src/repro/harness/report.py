"""Plain-text table rendering for the experiment harness.

``repro paper`` prints the same rows the paper reports; this module keeps
the formatting in one place so experiment output stays uniform and
testable.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

Cell = Union[str, int, float]


def format_cell(value: Cell) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def render_table(headers: Sequence[str], rows: Iterable[Sequence[Cell]],
                 title: str = "") -> str:
    """Render an aligned ASCII table."""
    str_rows = [[format_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(sep.replace("-+-", "---")))
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
