"""The measurement protocol every bus simulator shares.

The reference machine (:mod:`repro.bus.system`), the flattened kernel
(:mod:`repro.bus.kernel`) and the batch kernel (:mod:`repro.bus.batch`)
import these from here, not from one another, so the three can never
drift apart and a kernel run never loads the reference machine.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError

_DEFAULT_WARMUP_FRACTION = 0.25
"""Share of the measurement window simulated first and discarded."""

_DEFAULT_BATCHES = 20
"""Batches of the measurement window behind the batch-means EBW."""


def _resolve_request_probabilities(
    config: SystemConfig, request_probabilities: Sequence[float] | None
) -> list[float]:
    """Validate the optional heterogeneous-p vector (one p per processor)."""
    if request_probabilities is None:
        return [config.request_probability] * config.processors
    values = list(request_probabilities)
    if len(values) != config.processors:
        raise ConfigurationError(
            f"request_probabilities lists {len(values)} values but the "
            f"system has {config.processors} processors"
        )
    for index, p in enumerate(values):
        if not isinstance(p, (int, float)) or isinstance(p, bool) or not (
            0.0 < p <= 1.0
        ):
            raise ConfigurationError(
                f"request probability for processor {index} must satisfy "
                f"0 < p <= 1, got {p!r}"
            )
    return values
