"""One-factor-at-a-time sensitivity of EBW around a design point.

Section 7 of the paper is a designer's argument: which knob (memory
count ``m``, speed ratio ``r``, buffers, load ``p``) buys the most
bandwidth?  This module quantifies the argument: for one base
configuration it perturbs each factor and reports absolute effects and
(for the continuous-ish factors) local elasticities

    ``elasticity = (dEBW / EBW) / (dx / x)``

so "doubling the memory banks" and "doubling the memory speed ratio"
become directly comparable.
"""

from __future__ import annotations

import dataclasses

from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError
from repro.engine.base import EvalRequest
from repro.parallel.workers import run_case


@dataclasses.dataclass(frozen=True)
class FactorEffect:
    """Effect of perturbing one design factor."""

    factor: str
    base_value: float
    perturbed_value: float
    base_ebw: float
    perturbed_ebw: float

    @property
    def absolute_effect(self) -> float:
        """EBW change caused by the perturbation."""
        return self.perturbed_ebw - self.base_ebw

    @property
    def elasticity(self) -> float:
        """Relative EBW change per relative factor change."""
        factor_change = (self.perturbed_value - self.base_value) / self.base_value
        if factor_change == 0.0:
            raise ConfigurationError(f"factor {self.factor} was not perturbed")
        ebw_change = self.absolute_effect / self.base_ebw
        return ebw_change / factor_change


@dataclasses.dataclass(frozen=True)
class SensitivityReport:
    """All factor effects around one design point."""

    base: SystemConfig
    base_ebw: float
    effects: tuple[FactorEffect, ...]

    def effect(self, factor: str) -> FactorEffect:
        """The effect record for one factor name."""
        for record in self.effects:
            if record.factor == factor:
                return record
        raise ConfigurationError(f"unknown factor {factor!r}")

    def ranked(self) -> list[FactorEffect]:
        """Effects sorted by descending absolute EBW impact."""
        return sorted(
            self.effects, key=lambda e: abs(e.absolute_effect), reverse=True
        )

    def summary(self) -> str:
        """Readable multi-line report."""
        lines = [
            f"base: {self.base.describe()}  EBW {self.base_ebw:.3f}",
            f"{'factor':<18}{'base':>8}{'new':>8}{'EBW':>9}{'effect':>9}",
        ]
        for record in self.ranked():
            lines.append(
                f"{record.factor:<18}{record.base_value:>8g}"
                f"{record.perturbed_value:>8g}{record.perturbed_ebw:>9.3f}"
                f"{record.absolute_effect:>+9.3f}"
            )
        return "\n".join(lines)


def sensitivity_analysis(
    base: SystemConfig,
    memory_step: int = 2,
    ratio_step: int = 2,
    load_step: float = -0.2,
    cycles: int = 30_000,
    seed: int = 0,
) -> SensitivityReport:
    """Perturb each design factor of ``base`` once and measure EBW.

    Factors: ``memories`` (+memory_step), ``memory_cycle_ratio``
    (+ratio_step), ``request_probability`` (+load_step, clipped to
    (0, 1]), and ``buffering`` (toggled).  The base point and every
    perturbation are independent runs under the same ``seed``.
    """
    if memory_step == 0 or ratio_step == 0 or load_step == 0.0:
        raise ConfigurationError("perturbation steps must be non-zero")

    # (factor name, base value, perturbed value, perturbed config)
    perturbations: list[tuple[str, float, float, SystemConfig]] = []

    more_memories = dataclasses.replace(
        base, memories=max(1, base.memories + memory_step)
    )
    perturbations.append(
        ("memories", base.memories, more_memories.memories, more_memories)
    )

    slower_memory = dataclasses.replace(
        base, memory_cycle_ratio=max(1, base.memory_cycle_ratio + ratio_step)
    )
    perturbations.append(
        (
            "memory_cycle_ratio",
            base.memory_cycle_ratio,
            slower_memory.memory_cycle_ratio,
            slower_memory,
        )
    )

    new_p = min(1.0, max(0.05, base.request_probability + load_step))
    if new_p != base.request_probability:
        lighter = dataclasses.replace(base, request_probability=new_p)
        perturbations.append(
            ("request_probability", base.request_probability, new_p, lighter)
        )

    toggled = (
        base.without_buffers() if base.buffered else base.with_buffers()
    )
    perturbations.append(
        ("buffering", float(base.buffered), float(toggled.buffered), toggled)
    )

    configs = [base] + [config for _, _, _, config in perturbations]
    results = [
        run_case(EvalRequest(config, cycles=cycles, seed=seed))
        for config in configs
    ]
    base_ebw = results[0].ebw
    effects = tuple(
        FactorEffect(
            factor=factor,
            base_value=base_value,
            perturbed_value=perturbed_value,
            base_ebw=base_ebw,
            perturbed_ebw=result.ebw,
        )
        for (factor, base_value, perturbed_value, _), result in zip(
            perturbations, results[1:]
        )
    )

    return SensitivityReport(
        base=base, base_ebw=base_ebw, effects=effects
    )
