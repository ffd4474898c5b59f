"""Plain-text table rendering for benchmark output.

Every benchmark harness prints the rows it reproduces (Table I, Table II and
the figure series) as aligned plain-text tables so the paper-vs-measured
comparison in EXPERIMENTS.md can be regenerated by simply re-running the
benchmarks.  No plotting dependency is required.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str] | None = None,
    float_format: str = "{:.3f}",
    title: str | None = None,
) -> str:
    """Render a list of dict rows as an aligned plain-text table."""
    if not rows:
        return "(empty table)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered_rows: list[list[str]] = []
    for row in rows:
        rendered: list[str] = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                rendered.append(float_format.format(value))
            else:
                rendered.append(str(value))
        rendered_rows.append(rendered)
    widths = [
        max(len(str(column)), max(len(r[i]) for r in rendered_rows))
        for i, column in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(column).ljust(widths[i]) for i, column in enumerate(columns))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for rendered in rendered_rows:
        lines.append(" | ".join(rendered[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


def print_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str] | None = None,
    title: str | None = None,
) -> None:
    """Print a table (convenience wrapper used by benchmarks and examples)."""
    print(format_table(rows, columns=columns, title=title))
