"""Parameter-sweep helpers shared by experiments, examples and benches.

Every figure of the paper is a sweep over one axis (``r`` or ``p``) with
the other parameters fixed; these helpers centralise the loop so all
callers simulate with identical settings and seeds.  Each sweep is
expressed as a one-axis :class:`~repro.scenarios.spec.ScenarioSpec` and
lowered through the scenario compiler
(:mod:`repro.scenarios.compiler`) and run serially by
:func:`~repro.scenarios.execute.run_scenario`.  To spread a grid over
sweep workers, build the :class:`~repro.scenarios.spec.ScenarioSpec`
and call ``run_scenario(spec, workers=N)``; the points are independent
seeded runs, so the curve is the same either way.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence

from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One simulated point of a sweep."""

    config: SystemConfig
    ebw: float
    processor_utilization: float
    bus_utilization: float


@dataclasses.dataclass(frozen=True)
class Sweep:
    """A labelled series of sweep points (one curve of a figure)."""

    label: str
    axis: str
    points: tuple[SweepPoint, ...]

    def axis_values(self) -> tuple[float, ...]:
        """The x-coordinates of the curve."""
        return tuple(_axis_value(point.config, self.axis) for point in self.points)

    def ebw_values(self) -> tuple[float, ...]:
        """The EBW y-coordinates of the curve."""
        return tuple(point.ebw for point in self.points)

    def processor_utilization_values(self) -> tuple[float, ...]:
        """The ``EBW/(n p)`` y-coordinates (Figures 3 and 6)."""
        return tuple(point.processor_utilization for point in self.points)


def _axis_value(config: SystemConfig, axis: str) -> float:
    if axis == "r":
        return float(config.memory_cycle_ratio)
    if axis == "p":
        return config.request_probability
    if axis == "m":
        return float(config.memories)
    raise ConfigurationError(f"unknown sweep axis {axis!r}")


_AXIS_FIELDS = {
    "r": "memory_cycle_ratio",
    "p": "request_probability",
    "m": "memories",
}


def _run_sweep(
    base: SystemConfig,
    field: str,
    values: Sequence,
    label: str,
    axis: str,
    cycles: int,
    seed: int,
) -> Sweep:
    """Compile the one-axis scenario for this sweep and execute it."""
    from repro.scenarios.execute import run_scenario
    from repro.scenarios.spec import GridAxis, ReplicationPlan, ScenarioSpec

    spec = ScenarioSpec(
        name=f"sweep-{axis}",
        base=dataclasses.asdict(base),
        grid=(GridAxis(field, tuple(values)),),
        cycles=cycles,
        plan=ReplicationPlan(1, seed),
        description=f"one-axis {axis} sweep ({label})",
    )
    results = run_scenario(spec)
    points = tuple(
        SweepPoint(
            config=result.unit.config,
            ebw=result.ebw,
            processor_utilization=result.processor_utilization,
            bus_utilization=result.bus_utilization,
        )
        for result in results
    )
    return Sweep(label=label, axis=axis, points=points)


def sweep_r(
    base: SystemConfig,
    r_values: Iterable[int],
    label: str,
    cycles: int = 50_000,
    seed: int = 0,
) -> Sweep:
    """Simulate ``base`` for each memory-cycle ratio in ``r_values``."""
    return _run_sweep(
        base, _AXIS_FIELDS["r"], tuple(r_values), label, "r", cycles, seed
    )


def sweep_p(
    base: SystemConfig,
    p_values: Iterable[float],
    label: str,
    cycles: int = 50_000,
    seed: int = 0,
) -> Sweep:
    """Simulate ``base`` for each request probability in ``p_values``."""
    return _run_sweep(
        base, _AXIS_FIELDS["p"], tuple(p_values), label, "p", cycles, seed
    )


def sweep_m(
    base: SystemConfig,
    m_values: Iterable[int],
    label: str,
    cycles: int = 50_000,
    seed: int = 0,
) -> Sweep:
    """Simulate ``base`` for each module count in ``m_values``."""
    return _run_sweep(
        base, _AXIS_FIELDS["m"], tuple(m_values), label, "m", cycles, seed
    )


def crossbar_reference(
    processors: int, memories: Sequence[int]
) -> dict[int, float]:
    """Exact crossbar EBW for each module count (figure reference lines)."""
    from repro.models.crossbar import crossbar_exact_ebw

    result = {}
    for m in memories:
        config = SystemConfig(processors, m, 1)
        result[m] = crossbar_exact_ebw(config).ebw
    return result
