"""Experiment registry: every reproducible table and figure.

An *experiment* declares the scenario specs one artefact of the paper's
evaluation needs and renders their unit results into an
:class:`ExperimentResult` - a grid of measured values plus, when the
paper printed numbers, the reference values for side-by-side comparison.

The registry gives the command-line runner and the markdown report
(:mod:`repro.experiments.report`) a single source of truth.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.core.errors import ExperimentError

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.scenarios.execute import UnitResult
    from repro.scenarios.spec import ScenarioSpec


@dataclasses.dataclass(frozen=True)
class ExperimentResult:
    """The outcome of one experiment run."""

    experiment_id: str
    title: str
    row_label: str
    column_label: str
    rows: tuple[str, ...]
    columns: tuple[str, ...]
    measured: Mapping[tuple[str, str], float]
    reference: Mapping[tuple[str, str], float] = dataclasses.field(
        default_factory=dict
    )
    notes: str = ""

    def measured_value(self, row: str, column: str) -> float:
        """The measured cell value."""
        try:
            return self.measured[(row, column)]
        except KeyError:
            raise ExperimentError(
                f"{self.experiment_id}: no measured cell ({row}, {column})"
            ) from None

    def reference_value(self, row: str, column: str) -> float | None:
        """The paper's value for the cell, if it printed one."""
        return self.reference.get((row, column))

    def worst_absolute_error(self) -> float:
        """Largest |measured - reference| over cells with references."""
        worst = 0.0
        for key, reference in self.reference.items():
            if key in self.measured:
                worst = max(worst, abs(self.measured[key] - reference))
        return worst

    def worst_relative_error(self) -> float:
        """Largest relative deviation over cells with nonzero references."""
        worst = 0.0
        for key, reference in self.reference.items():
            if key in self.measured and reference != 0.0:
                worst = max(
                    worst, abs(self.measured[key] - reference) / abs(reference)
                )
        return worst

    def mean_relative_error(self) -> float:
        """Mean relative deviation over cells with nonzero references."""
        errors = [
            abs(self.measured[key] - reference) / abs(reference)
            for key, reference in self.reference.items()
            if key in self.measured and reference != 0.0
        ]
        if not errors:
            return math.nan
        return sum(errors) / len(errors)


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """Registry entry: metadata, the specs it needs and how it renders.

    ``scenarios(cycles, seed)`` declares the scenario specs, the
    simulated ones at ``cycles`` per unit under the one replication
    seed ``seed``; analytic specs ignore both.  ``render`` is pure: it
    maps the specs' unit results - one list per declared spec, in
    declared order - to the experiment's table.  ``cycles`` is the
    default simulated length (``None`` for an all-analytic experiment).
    """

    experiment_id: str
    title: str
    paper_artifact: str
    scenarios: Callable[[int | None, int], Sequence["ScenarioSpec"]]
    render: Callable[[Sequence[Sequence["UnitResult"]]], ExperimentResult]
    cycles: int | None = None


_REGISTRY: dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add a spec to the registry (module import side effect)."""
    if spec.experiment_id in _REGISTRY:
        raise ExperimentError(f"duplicate experiment id {spec.experiment_id!r}")
    _REGISTRY[spec.experiment_id] = spec
    return spec


def get(experiment_id: str) -> ExperimentSpec:
    """Look up one experiment; raises on unknown ids."""
    _ensure_loaded()
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None


def all_experiments() -> Sequence[ExperimentSpec]:
    """All registered experiments, sorted by id."""
    _ensure_loaded()
    return sorted(_REGISTRY.values(), key=lambda spec: spec.experiment_id)


def _ensure_loaded() -> None:
    """Import the experiment modules so their specs register."""
    from repro.experiments import (  # noqa: F401
        figure2,
        figure3,
        figure5,
        figure6,
        hot_spot,
        product_form,
        table1,
        table2,
        table3,
        table4,
    )
