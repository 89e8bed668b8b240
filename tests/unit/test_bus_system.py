"""Unit tests for :mod:`repro.bus.system` - the machine as a whole."""

from __future__ import annotations

import pytest

from repro.bus import MultiplexedBusSystem
from repro.bus.trace import TraceEventKind, TraceRecorder
from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError
from repro.core.policy import Priority, TieBreak
from repro.workloads.generators import TraceTargets


def run_machine(config: SystemConfig, cycles: int, seed: int):
    """One measured run of the machine under test, built directly."""
    return MultiplexedBusSystem(config, seed=seed).run(cycles)


def single_processor_config(r: int = 2) -> SystemConfig:
    return SystemConfig(1, 1, r, priority=Priority.PROCESSORS)


class TestExactTiming:
    def test_single_processor_round_trip_is_r_plus_2(self):
        # Request cycle 0, access 1..r, response r+1: the paper's
        # processor cycle of r+2 bus cycles, repeated forever.
        config = single_processor_config(r=2)
        recorder = TraceRecorder()
        system = MultiplexedBusSystem(config, seed=0, trace=recorder)
        for _ in range(12):
            system.step()
        kinds = [event.kind for event in recorder.bus_events()]
        expected = [
            TraceEventKind.REQUEST_TRANSFER,
            TraceEventKind.BUS_IDLE,
            TraceEventKind.BUS_IDLE,
            TraceEventKind.RESPONSE_TRANSFER,
        ] * 3
        assert kinds == expected

    def test_single_processor_ebw_is_one(self):
        result = run_machine(single_processor_config(r=4), cycles=6_000, seed=1)
        assert result.ebw == pytest.approx(1.0, abs=0.01)

    def test_latency_equals_processor_cycle_without_contention(self):
        result = run_machine(single_processor_config(r=6), cycles=8_000, seed=1)
        assert result.mean_latency == pytest.approx(8.0, abs=0.05)

    def test_two_processors_one_module_serialise(self):
        # Both processors share one module; it serves one request per
        # r+2 cycles, so EBW -> 1 and each processor completes every
        # other round.
        config = SystemConfig(2, 1, 2, priority=Priority.PROCESSORS)
        result = run_machine(config, cycles=8_000, seed=1)
        assert result.ebw == pytest.approx(1.0, abs=0.02)

    def test_deterministic_trace_workload(self):
        # Ping-pong targets on two modules never conflict: the bus
        # pipeline sustains one transfer per cycle region.
        config = SystemConfig(2, 2, 1, priority=Priority.PROCESSORS)
        targets = TraceTargets([[0], [1]], modules=2)
        system = MultiplexedBusSystem(config, seed=0, targets=targets)
        result = system.run(4_000, warmup=100)
        assert result.ebw > 1.2  # max is 1.5


class TestConservation:
    @pytest.mark.parametrize(
        "config",
        [
            SystemConfig(4, 4, 3, priority=Priority.PROCESSORS),
            SystemConfig(8, 4, 2, priority=Priority.MEMORIES),
            SystemConfig(3, 5, 4, priority=Priority.PROCESSORS, buffered=True),
            SystemConfig(
                6, 2, 3, request_probability=0.5, priority=Priority.MEMORIES
            ),
        ],
    )
    def test_audit_after_every_cycle(self, config):
        system = MultiplexedBusSystem(config, seed=3)
        for _ in range(400):
            system.step()
            system.audit()

    def test_counters_consistent(self):
        config = SystemConfig(4, 4, 4, priority=Priority.PROCESSORS)
        system = MultiplexedBusSystem(config, seed=5)
        for _ in range(2_000):
            system.step()
        # Each completion used exactly one request + one response
        # transfer; transfers in flight may differ by at most n.
        assert system.response_transfers == system.completions
        assert 0 <= system.request_transfers - system.completions <= config.n

    def test_result_window_excludes_warmup(self):
        config = SystemConfig(2, 2, 2)
        system = MultiplexedBusSystem(config, seed=2)
        result = system.run(1_000, warmup=500)
        assert result.cycles == 1_000
        assert result.warmup_cycles == 500
        assert system.cycle == 1_500


class TestDeterminism:
    def test_same_seed_same_result(self):
        config = SystemConfig(8, 8, 4, priority=Priority.PROCESSORS)
        a = run_machine(config, cycles=3_000, seed=11)
        b = run_machine(config, cycles=3_000, seed=11)
        assert a.completions == b.completions
        assert a.request_transfers == b.request_transfers
        assert a.total_latency == b.total_latency

    def test_different_seeds_differ(self):
        config = SystemConfig(8, 8, 4, priority=Priority.PROCESSORS)
        a = run_machine(config, cycles=3_000, seed=11)
        b = run_machine(config, cycles=3_000, seed=12)
        assert (a.completions, a.total_latency) != (b.completions, b.total_latency)

    def test_identical_traces(self):
        config = SystemConfig(4, 4, 3, priority=Priority.MEMORIES)
        recorders = []
        for _ in range(2):
            recorder = TraceRecorder()
            system = MultiplexedBusSystem(config, seed=7, trace=recorder)
            for _ in range(500):
                system.step()
            recorders.append(recorder.events)
        assert recorders[0] == recorders[1]


class TestBounds:
    @pytest.mark.parametrize(
        "config",
        [
            SystemConfig(8, 4, 2, priority=Priority.PROCESSORS),
            SystemConfig(8, 16, 12, priority=Priority.MEMORIES),
            SystemConfig(8, 8, 8, priority=Priority.PROCESSORS, buffered=True),
        ],
    )
    def test_ebw_within_ceiling(self, config):
        result = run_machine(config, cycles=5_000, seed=1)
        assert 0.0 < result.ebw <= config.max_ebw + 1e-9

    def test_bus_utilisation_in_unit_interval(self):
        result = run_machine(SystemConfig(4, 4, 4), cycles=5_000, seed=1)
        assert 0.0 < result.bus_utilization <= 1.0

    def test_memory_utilisation_in_unit_interval(self):
        result = run_machine(SystemConfig(4, 4, 4), cycles=5_000, seed=1)
        assert 0.0 < result.memory_utilization <= 1.0

    def test_ebw_from_completions_matches_bus_utilisation(self):
        result = run_machine(SystemConfig(8, 8, 6), cycles=20_000, seed=3)
        from repro.core.metrics import ebw_from_bus_utilization

        implied = ebw_from_bus_utilization(
            result.bus_utilization, result.config.memory_cycle_ratio
        )
        assert result.ebw == pytest.approx(implied, rel=0.02)


class TestRunValidation:
    def test_rejects_bad_cycles(self):
        system = MultiplexedBusSystem(SystemConfig(2, 2, 2), seed=0)
        with pytest.raises(ConfigurationError):
            system.run(0)

    def test_rejects_negative_warmup(self):
        system = MultiplexedBusSystem(SystemConfig(2, 2, 2), seed=0)
        with pytest.raises(ConfigurationError):
            system.run(100, warmup=-1)

    def test_rejects_negative_batches(self):
        system = MultiplexedBusSystem(SystemConfig(2, 2, 2), seed=0)
        with pytest.raises(ConfigurationError):
            system.run(100, batches=-2)

    def test_batch_ebws_recorded(self):
        result = run_machine(SystemConfig(4, 4, 4), cycles=2_000, seed=1)
        assert len(result.batch_ebws) == 20
        low, high = result.ebw_confidence_interval()
        assert low <= result.ebw * 1.05
        assert high >= result.ebw * 0.95

    def test_fcfs_tie_break_runs(self):
        config = SystemConfig(4, 4, 4, tie_break=TieBreak.FCFS)
        result = run_machine(config, cycles=3_000, seed=1)
        assert result.ebw > 0
