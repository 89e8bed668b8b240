"""System configuration for the multiplexed single-bus multiprocessor.

:class:`SystemConfig` captures hypotheses (a)-(h) of Section 2 of the paper
plus the Section 6 buffering extension in one immutable, validated object.
All simulators and analytical models consume this type, so a configuration
built once can be handed to every evaluation method for cross-validation.
"""

from __future__ import annotations

import dataclasses
import math

from repro.core.errors import ConfigurationError
from repro.core.policy import Priority, TieBreak


@dataclasses.dataclass(frozen=True)
class SystemConfig:
    """A complete description of one system instance.

    Parameters
    ----------
    processors:
        Number of processors ``n`` (hypothesis (a)).
    memories:
        Number of memory modules ``m`` (hypothesis (a)).
    memory_cycle_ratio:
        The integer ``r``: memory cycle time expressed in bus cycles
        (hypothesis (c)).  The processor cycle is then ``r + 2`` bus
        cycles (hypothesis (d)).
    request_probability:
        The probability ``p`` that a processor issues a new request at the
        start of the processor cycle following a completed service
        (hypothesis (f)).  ``p = 1`` means no internal processing.
    priority:
        Bus-granting policy on processor/memory conflicts (hypothesis (g)).
    buffered:
        If true, every memory module has a one-deep input buffer and a
        one-deep output buffer (Section 6).  The Section 6 experiments all
        use :attr:`Priority.PROCESSORS`, but the simulator supports any
        combination.
    buffer_depth:
        Depth of each input/output buffer when ``buffered`` is true.  The
        paper fixes this to 1; other depths are a library extension used
        by the ablation benchmarks.
    tie_break:
        Arbitration rule inside a priority class (hypothesis (h): random).
    """

    processors: int
    memories: int
    memory_cycle_ratio: int
    request_probability: float = 1.0
    priority: Priority = Priority.PROCESSORS
    buffered: bool = False
    buffer_depth: int = 1
    tie_break: TieBreak = TieBreak.RANDOM

    def __post_init__(self) -> None:
        if not isinstance(self.processors, int) or self.processors < 1:
            raise ConfigurationError(
                f"processors must be a positive integer, got {self.processors!r}"
            )
        if not isinstance(self.memories, int) or self.memories < 1:
            raise ConfigurationError(
                f"memories must be a positive integer, got {self.memories!r}"
            )
        if not isinstance(self.memory_cycle_ratio, int) or self.memory_cycle_ratio < 1:
            raise ConfigurationError(
                "memory_cycle_ratio (r) must be a positive integer, got "
                f"{self.memory_cycle_ratio!r}"
            )
        if not isinstance(self.request_probability, (int, float)) or isinstance(
            self.request_probability, bool
        ):
            raise ConfigurationError(
                "request_probability (p) must be a number, got "
                f"{self.request_probability!r}"
            )
        if math.isnan(self.request_probability) or not (
            0.0 < self.request_probability <= 1.0
        ):
            raise ConfigurationError(
                "request_probability (p) must satisfy 0 < p <= 1, got "
                f"{self.request_probability!r}"
            )
        if not isinstance(self.priority, Priority):
            raise ConfigurationError(
                f"priority must be a Priority enum member, got {self.priority!r}"
            )
        if not isinstance(self.tie_break, TieBreak):
            raise ConfigurationError(
                f"tie_break must be a TieBreak enum member, got {self.tie_break!r}"
            )
        if not isinstance(self.buffer_depth, int) or self.buffer_depth < 1:
            raise ConfigurationError(
                f"buffer_depth must be a positive integer, got {self.buffer_depth!r}"
            )
        if self.buffer_depth != 1 and not self.buffered:
            raise ConfigurationError(
                "buffer_depth is meaningful only when buffered=True"
            )

    # ------------------------------------------------------------------
    # Derived quantities used throughout the paper.
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Alias for :attr:`processors`, matching the paper's notation."""
        return self.processors

    @property
    def m(self) -> int:
        """Alias for :attr:`memories`, matching the paper's notation."""
        return self.memories

    @property
    def r(self) -> int:
        """Alias for :attr:`memory_cycle_ratio`, the paper's ``r``."""
        return self.memory_cycle_ratio

    @property
    def p(self) -> float:
        """Alias for :attr:`request_probability`, the paper's ``p``."""
        return self.request_probability

    @property
    def processor_cycle(self) -> int:
        """Processor cycle length in bus cycles: ``r + 2`` (hypothesis (d))."""
        return self.memory_cycle_ratio + 2

    @property
    def max_ebw(self) -> float:
        """Upper bound ``(r+2)/2`` on the effective bandwidth (Section 2)."""
        return self.processor_cycle / 2.0

    @property
    def offered_load(self) -> float:
        """The memory-subsystem load ``n * p`` discussed in Section 3."""
        return self.processors * self.request_probability

    # ------------------------------------------------------------------
    # Convenience constructors for the paper's canonical scenarios.
    # ------------------------------------------------------------------
    def with_buffers(self, depth: int = 1) -> "SystemConfig":
        """Return a copy of this configuration with buffered memories."""
        return dataclasses.replace(self, buffered=True, buffer_depth=depth)

    def without_buffers(self) -> "SystemConfig":
        """Return a copy of this configuration without memory buffers."""
        return dataclasses.replace(self, buffered=False, buffer_depth=1)

    def describe(self) -> str:
        """One-line human-readable summary, used by reports and examples.

        The tie-break shows only when it is not the paper's random one,
        so every random-tie summary reads as it always has.
        """
        buffering = (
            f"buffered(depth={self.buffer_depth})" if self.buffered else "unbuffered"
        )
        tie = "" if self.tie_break is TieBreak.RANDOM else f" tie={self.tie_break}"
        return (
            f"n={self.processors} m={self.memories} r={self.memory_cycle_ratio} "
            f"p={self.request_probability:g} priority={self.priority} {buffering}"
            f"{tie}"
        )
