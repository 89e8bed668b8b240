"""ASCII line charts for the figure experiments.

The paper's Figures 2, 3, 5 and 6 are curve families.  This module
renders an :class:`~repro.experiments.registry.ExperimentResult` whose
rows are curves as a fixed-width ASCII chart, so ``python -m
repro.experiments figure5 --chart`` shows the figure's shape directly in
the terminal.

:func:`render_percentile_chart` is the latency-distribution
counterpart: it draws the p50/p90/p99 total-latency columns that
``scenario <name> --metrics latency`` already emits on its unit lines
as three curves over the executed units, so the shape of the tail is
visible without leaving the terminal (``scenario <name> --metrics
latency --chart``).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.errors import ExperimentError
from repro.experiments.registry import ExperimentResult

_GLYPHS = "ox+*#@%&sd"


def render_chart(
    result: ExperimentResult,
    height: int = 18,
    width_per_column: int = 6,
) -> str:
    """Render the result's curves as an ASCII chart.

    Each row of the result becomes one curve, marked with its own glyph;
    the columns provide the x axis in their listed order.
    """
    if height < 4:
        raise ExperimentError(f"chart height must be >= 4, got {height}")
    if not result.rows or not result.columns:
        raise ExperimentError("nothing to chart")
    values = [
        value for value in result.measured.values() if value is not None
    ]
    if not values:
        raise ExperimentError("no measured values to chart")
    low = min(values)
    high = max(values)
    if high == low:
        high = low + 1.0
    span = high - low

    def row_of(value: float) -> int:
        scaled = (value - low) / span
        return int(round(scaled * (height - 1)))

    grid = [
        [" "] * (len(result.columns) * width_per_column) for _ in range(height)
    ]
    for curve_index, row_name in enumerate(result.rows):
        glyph = _GLYPHS[curve_index % len(_GLYPHS)]
        for column_index, column in enumerate(result.columns):
            value = result.measured.get((row_name, column))
            if value is None:
                continue
            y = height - 1 - row_of(value)
            x = column_index * width_per_column + width_per_column // 2
            grid[y][x] = glyph

    lines = [result.title, "=" * len(result.title)]
    for i, cells in enumerate(grid):
        level = high - span * i / (height - 1)
        lines.append(f"{level:7.2f} |" + "".join(cells))
    axis_cells = []
    for column in result.columns:
        label = column.split("=", 1)[-1]
        axis_cells.append(label.center(width_per_column))
    lines.append(" " * 8 + "+" + "-" * (len(result.columns) * width_per_column))
    lines.append(" " * 9 + "".join(axis_cells))
    lines.append("")
    legend = [
        f"{_GLYPHS[i % len(_GLYPHS)]} = {row}" for i, row in enumerate(result.rows)
    ]
    lines.append("legend: " + "   ".join(legend))
    return "\n".join(lines)


PERCENTILE_ROWS = ("lat_p50", "lat_p90", "lat_p99")
"""The latency percentile curves the chart draws - exactly the
``lat_p50``/``lat_p90``/``lat_p99`` columns a latency-metric unit line
carries (see :func:`repro.scenarios.execute.unit_line`)."""


def render_percentile_chart(
    results: Sequence,
    height: int = 18,
    width_per_column: int = 7,
    title: str = "total latency percentiles (bus cycles) per unit",
) -> str:
    """Chart the p50/p90/p99 total-latency percentiles across units.

    ``results`` are the :class:`~repro.scenarios.execute.UnitResult`
    items of one scenario run executed with the ``latency`` metric;
    units without a latency report (e.g. analytic units) are skipped.
    Each percentile becomes one curve, the executed units (labelled by
    their global index) the x axis - the chart is a terminal rendering
    of columns the unit lines already print, so it adds no new
    randomness and is byte-deterministic for a given run.
    """
    charted = [
        result for result in results if getattr(result, "latency", None)
    ]
    if not charted:
        raise ExperimentError(
            "no latency-metric units to chart; run the scenario with "
            "--metrics latency (simulation method)"
        )
    columns = tuple(f"u{result.unit.index}" for result in charted)
    measured = {}
    for result in charted:
        summary = result.latency.total
        column = f"u{result.unit.index}"
        measured[(PERCENTILE_ROWS[0], column)] = summary.p50_value
        measured[(PERCENTILE_ROWS[1], column)] = summary.p90_value
        measured[(PERCENTILE_ROWS[2], column)] = summary.p99_value
    chart_result = ExperimentResult(
        experiment_id="latency-percentiles",
        title=title,
        row_label="percentile",
        column_label="unit",
        rows=PERCENTILE_ROWS,
        columns=columns,
        measured=measured,
    )
    return render_chart(
        chart_result, height=height, width_per_column=width_per_column
    )
