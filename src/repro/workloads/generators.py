"""Request-target generators (workload models).

Hypothesis (e) of the paper makes requests independent and uniform over
the ``m`` memory modules; :class:`UniformTargets` implements it and is
the default everywhere.  Two extensions support studies *around* the
paper's assumptions:

* :class:`HotSpotTargets` concentrates a fraction of the traffic on one
  module, quantifying how sensitive the results are to hypothesis (e);
* :class:`TraceTargets` replays a recorded target sequence, enabling
  deterministic regression tests and trace-driven experiments.
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro.core.errors import ConfigurationError
from repro.des.rng import RandomStream


class TargetSampler(Protocol):
    """Anything that can produce the next request's target module."""

    def next_target(self, processor: int) -> int:
        """Module index targeted by ``processor``'s next request."""


class UniformTargets:
    """Hypothesis (e): independent, uniform over ``modules``."""

    def __init__(self, modules: int, stream: RandomStream) -> None:
        if modules < 1:
            raise ConfigurationError(f"modules must be >= 1, got {modules}")
        self._modules = modules
        self._stream = stream

    def next_target(self, processor: int) -> int:
        return self._stream.uniform_index(self._modules)


class HotSpotTargets:
    """A fraction ``hot_fraction`` of requests hit ``hot_module``.

    The remaining traffic is uniform over all modules (including the hot
    one), matching the classic hot-spot model of interconnection-network
    studies.  ``hot_fraction = 0`` reduces to :class:`UniformTargets`.
    """

    def __init__(
        self,
        modules: int,
        stream: RandomStream,
        hot_fraction: float,
        hot_module: int = 0,
    ) -> None:
        if modules < 1:
            raise ConfigurationError(f"modules must be >= 1, got {modules}")
        if not 0.0 <= hot_fraction <= 1.0:
            raise ConfigurationError(
                f"hot_fraction must lie in [0, 1], got {hot_fraction}"
            )
        if not 0 <= hot_module < modules:
            raise ConfigurationError(
                f"hot_module must name one of the {modules} modules, got {hot_module}"
            )
        self._modules = modules
        self._stream = stream
        self._hot_fraction = hot_fraction
        self._hot_module = hot_module

    def next_target(self, processor: int) -> int:
        if self._stream.bernoulli(self._hot_fraction):
            return self._hot_module
        return self._stream.uniform_index(self._modules)


class TraceTargets:
    """Replays a fixed per-processor target sequence, cycling at the end.

    Useful for byte-for-byte deterministic tests: the same trace always
    produces the same simulation, independent of RNG evolution.
    """

    def __init__(self, traces: Sequence[Sequence[int]], modules: int) -> None:
        if not traces:
            raise ConfigurationError("at least one per-processor trace is required")
        for processor, trace in enumerate(traces):
            if not trace:
                raise ConfigurationError(f"trace for processor {processor} is empty")
            bad = [t for t in trace if not 0 <= t < modules]
            if bad:
                raise ConfigurationError(
                    f"trace for processor {processor} targets missing modules: {bad}"
                )
        self._traces = [list(trace) for trace in traces]
        self._positions = [0] * len(traces)

    def next_target(self, processor: int) -> int:
        if not 0 <= processor < len(self._traces):
            raise ConfigurationError(
                f"no trace recorded for processor {processor}"
            )
        trace = self._traces[processor]
        position = self._positions[processor]
        self._positions[processor] = (position + 1) % len(trace)
        return trace[position]


def is_library_sampler(targets: TargetSampler | None) -> bool:
    """Whether the fast and batch kernels can run ``targets``.

    The one rule that picks a simulation loop: no sampler, or *exactly*
    a :class:`UniformTargets`, :class:`HotSpotTargets` or
    :class:`TraceTargets`, whose algorithms the kernels inline.  They
    never call ``next_target``, so any other sampler - a subclass that
    overrides it included - runs only on
    :class:`~repro.bus.system.MultiplexedBusSystem`.
    """
    return targets is None or type(targets) in (
        UniformTargets,
        HotSpotTargets,
        TraceTargets,
    )


def require_library_sampler(targets: TargetSampler | None, kernel: str) -> None:
    """Reject what :func:`is_library_sampler` rejects, naming ``kernel``."""
    if not is_library_sampler(targets):
        raise ConfigurationError(
            f"the {kernel} kernel supports the library's uniform, hot-spot "
            f"and trace target samplers; got {type(targets).__name__} - "
            "custom samplers run on MultiplexedBusSystem, which "
            "repro.bus.simulate picks for them"
        )
