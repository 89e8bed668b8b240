"""Markdown report generation from experiment runs.

``python -m repro.experiments all --markdown report.md`` produces a
self-contained paper-vs-measured report.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

from repro.experiments.registry import ExperimentResult


def result_to_markdown(result: ExperimentResult) -> str:
    """One experiment as a markdown section with a comparison table."""
    lines = [f"### {result.title}", ""]
    has_reference = bool(result.reference)
    header = [result.row_label + "\\" + result.column_label] + list(result.columns)
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + " --- |" * len(header))
    for row in result.rows:
        cells = [row]
        for column in result.columns:
            measured = result.measured.get((row, column))
            reference = result.reference.get((row, column))
            if measured is None:
                cells.append("-")
            elif has_reference and reference is not None:
                cells.append(f"{measured:.3f} ({reference:.3f})")
            else:
                cells.append(f"{measured:.3f}")
        lines.append("| " + " | ".join(cells) + " |")
    lines.append("")
    if has_reference:
        mean_rel = result.mean_relative_error()
        mean_text = "n/a" if math.isnan(mean_rel) else f"{100 * mean_rel:.1f}%"
        lines.append(
            f"*measured (paper)* — worst |err| "
            f"{result.worst_absolute_error():.3f}, worst rel "
            f"{100 * result.worst_relative_error():.1f}%, mean rel {mean_text}."
        )
        lines.append("")
    if result.notes:
        lines.append(f"> {result.notes}")
        lines.append("")
    return "\n".join(lines)


def results_to_markdown(
    results: Sequence[ExperimentResult], title: str = "Experiment report"
) -> str:
    """A full markdown document for several experiment results."""
    parts = [f"# {title}", ""]
    for result in results:
        parts.append(result_to_markdown(result))
    return "\n".join(parts)


def write_markdown_report(
    results: Sequence[ExperimentResult],
    path: str | Path,
    title: str = "Experiment report",
) -> Path:
    """Write the document to ``path`` and return it."""
    target = Path(path)
    target.write_text(results_to_markdown(results, title), encoding="utf-8")
    return target
