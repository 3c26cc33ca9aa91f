"""Plain-text table and series formatting for experiment output.

The paper's artifact prints "the final results ... in tabular form on the
terminal"; these helpers do the same, dependency-free.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 1e-3:
            return f"{value:.3g}"
        return f"{value:.4g}"
    return str(value)


def format_table(
    rows: Sequence[dict], title: str | None = None, columns: Sequence[str] | None = None
) -> str:
    """Render dict rows as an aligned ASCII table.

    Column order follows the first row's key order unless ``columns`` is
    given; missing cells render empty.
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    cols = list(columns) if columns else list(rows[0].keys())
    table = [[_fmt(row.get(c, "")) for c in cols] for row in rows]
    widths = [
        max(len(c), *(len(r[i]) for r in table)) for i, c in enumerate(cols)
    ]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(c.ljust(w) for c, w in zip(cols, widths))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for r in table:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(r, widths)))
    return "\n".join(lines)


def format_series(
    name: str, values: Iterable[float], width: int = 50, as_percent: bool = False
) -> str:
    """One-line text sparkline for an iteration series."""
    values = list(values)
    if not values:
        return f"{name}: (empty)"
    blocks = " ▁▂▃▄▅▆▇█"
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    spark = "".join(
        blocks[int((v - lo) / span * (len(blocks) - 1))] for v in values[:width]
    )
    if as_percent:
        return f"{name:16s} [{spark}] last={100 * values[-1]:.1f}% peak={100 * hi:.1f}%"
    return f"{name:16s} [{spark}] last={values[-1]:.4g} peak={hi:.4g}"


#: IterationTrace columns every runtime populates, in display order
_TRACE_BASE_COLUMNS = ("iteration", "num_active", "num_moved", "modularity")
#: optional IterationTrace columns, shown only when some record carries a
#: non-default value (kernel accounting on every runtime, sync/comm
#: accounting on the multi-GPU and multiprocess ones)
_TRACE_OPTIONAL_COLUMNS = (
    "kernel_backend",
    "comm_bytes",
    "comm_messages",
    "sim_cycles",
)


def trace_rows(history: Sequence) -> list[dict]:
    """Render a unified :class:`~repro.core.engine.IterationTrace` history
    as table rows.

    Works on any engine-driven runtime's history (local, multi-GPU,
    multiprocess): the shared movement/modularity columns always appear,
    and a runtime's cost/comm columns appear exactly when it populated
    them. Pair with :func:`format_table`.
    """
    optional = [
        c
        for c in _TRACE_OPTIONAL_COLUMNS
        if any(getattr(h, c, None) for h in history)
    ]
    rows = []
    for h in history:
        row = {c: getattr(h, c) for c in _TRACE_BASE_COLUMNS}
        sp = getattr(h, "sync_plan", None)
        if sp is not None:
            row["sync"] = sp.mode.value
        for c in optional:
            row[c] = getattr(h, c)
        rows.append(row)
    return rows
