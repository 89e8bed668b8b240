"""Unit tests for the geometric access-time extension (Section 6)."""

from __future__ import annotations

import pytest

from repro.bus import MultiplexedBusSystem
from repro.bus.memory import MemoryModule, PendingRequest
from repro.core.config import SystemConfig
from repro.core.errors import SimulationError
from repro.core.policy import Priority


class TestAccessSampler:
    def test_constant_by_default(self):
        module = MemoryModule(0, access_cycles=4)
        module.deliver_request(PendingRequest(0, 0))
        assert module._remaining == 4

    def test_sampler_used_per_request(self):
        durations = iter([2, 5])
        module = MemoryModule(
            0,
            access_cycles=4,
            input_depth=1,
            output_depth=1,
            access_sampler=lambda: next(durations),
        )
        module.deliver_request(PendingRequest(0, 0))
        assert module._remaining == 2
        module.deliver_request(PendingRequest(1, 0))
        module.tick(1)
        module.tick(2)  # first done, second starts with duration 5
        assert module._remaining == 5

    def test_invalid_duration_rejected(self):
        module = MemoryModule(
            0, access_cycles=4, access_sampler=lambda: 0
        )
        with pytest.raises(SimulationError, match="invalid duration"):
            module.deliver_request(PendingRequest(0, 0))


class TestGeometricMachine:
    def test_mean_access_time_close_to_r(self):
        config = SystemConfig(
            8, 8, 8, priority=Priority.PROCESSORS, buffered=True
        )
        system = MultiplexedBusSystem(config, seed=3, geometric_access_times=True)
        result = system.run(30_000)
        busy = sum(module.busy_cycles for module in system.modules)
        started = sum(module.services_started for module in system.modules)
        # Mean sampled duration must approximate r = 8.
        assert busy / started == pytest.approx(8.0, rel=0.1)
        assert result.completions > 0

    def test_geometric_reduces_ebw(self):
        config = SystemConfig(
            8, 8, 10, priority=Priority.PROCESSORS, buffered=True
        )
        constant = MultiplexedBusSystem(config, seed=3).run(30_000).ebw
        geometric = (
            MultiplexedBusSystem(config, seed=3, geometric_access_times=True)
            .run(30_000)
            .ebw
        )
        assert geometric < constant

    def test_deterministic_under_seed(self):
        config = SystemConfig(4, 4, 4, buffered=True)
        runs = [
            MultiplexedBusSystem(config, seed=9, geometric_access_times=True)
            .run(5_000)
            .completions
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_conservation_holds(self):
        config = SystemConfig(
            6, 4, 5, priority=Priority.MEMORIES, buffered=True
        )
        system = MultiplexedBusSystem(config, seed=11, geometric_access_times=True)
        for _ in range(500):
            system.step()
            system.audit()


class TestFastKernelGeometric:
    """The fast kernel serves geometric access times bit-identically.

    The deep fleet lives in
    ``tests/properties/test_kernel_equivalence.py``; this is the quick
    smoke pin plus the product_form use case (buffered, seed 1985).
    """

    def test_run_fast_matches_reference(self):
        from repro.bus.kernel import run_fast
        from repro.bus.system import MultiplexedBusSystem

        config = SystemConfig(
            8, 6, 8, priority=Priority.PROCESSORS, buffered=True
        )
        reference = MultiplexedBusSystem(
            config, seed=1985, geometric_access_times=True
        ).run(2_000)
        fast = run_fast(
            config, cycles=2_000, seed=1985, geometric_access_times=True
        )
        assert reference == fast

    def test_geometric_differs_from_constant(self):
        from repro.bus.kernel import run_fast

        config = SystemConfig(4, 4, 6, buffered=True)
        constant = run_fast(config, cycles=2_000, seed=3)
        geometric = run_fast(
            config, cycles=2_000, seed=3, geometric_access_times=True
        )
        assert constant.completions != geometric.completions
