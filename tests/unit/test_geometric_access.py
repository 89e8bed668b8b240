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


class TestDeclarativeField:
    """``geometric_access_times`` on a scenario spec: one unit field
    that enters cache payloads and report lines only when set."""

    @staticmethod
    def spec(**overrides):
        from repro.scenarios.spec import GridAxis, ReplicationPlan, ScenarioSpec

        kwargs = dict(
            name="geometric-field",
            base={"processors": 4, "memories": 4, "buffered": True},
            grid=(GridAxis("memory_cycle_ratio", (1, 6)),),
            cycles=1_500,
            plan=ReplicationPlan(1, 1985),
            geometric_access_times=True,
        )
        kwargs.update(overrides)
        return ScenarioSpec(**kwargs)

    def test_units_simulate_geometric_access(self):
        from repro.bus import simulate
        from repro.scenarios.execute import run_scenario

        for result in run_scenario(self.spec()):
            direct = simulate(
                result.unit.config,
                cycles=1_500,
                seed=1985,
                geometric_access_times=True,
            )
            assert result.ebw == direct.ebw

    @pytest.mark.parametrize("kernel", ["fast", "batch"])
    def test_payload_and_line_carry_the_field_only_when_set(self, kernel):
        import dataclasses

        from repro.scenarios.compiler import compile_scenario
        from repro.scenarios.execute import UnitResult, unit_line

        geometric = compile_scenario(self.spec(), kernel=kernel)[1]
        constant = dataclasses.replace(geometric, geometric_access_times=False)
        assert geometric.payload() == {
            **constant.payload(),
            "geometric_access_times": True,
        }
        assert "geometric_access_times" not in constant.payload()

        def line(unit):
            return unit_line(UnitResult(unit, 1.0, 0.5, 0.25))

        assert line(geometric) == line(constant).replace(
            "workload=uniform ", "workload=uniform access=geometric "
        )
        assert "access=" not in line(constant)

    def test_batch_units_pack_apart_from_constant_ones(self):
        from repro.parallel.fleet import pack_key
        from repro.scenarios.compiler import compile_scenario

        geometric = compile_scenario(self.spec(), kernel="batch")[1]
        constant = compile_scenario(
            self.spec(geometric_access_times=False), kernel="batch"
        )[1]
        assert pack_key(geometric.request()) != pack_key(constant.request())

    def test_mapping_round_trip(self):
        from repro.scenarios.spec import spec_from_mapping
        from repro.service.protocol import spec_to_mapping

        mapping = spec_to_mapping(self.spec())
        assert mapping["geometric_access_times"] is True
        assert spec_from_mapping(mapping) == self.spec()
        assert "geometric_access_times" not in spec_to_mapping(
            self.spec(geometric_access_times=False)
        )

    def test_analytic_methods_reject_the_field(self):
        from repro.core.errors import ConfigurationError
        from repro.engine.base import EvaluationMethod

        with pytest.raises(ConfigurationError, match="analytic"):
            self.spec(method=EvaluationMethod.MVA)

    def test_non_boolean_is_rejected(self):
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="true or false"):
            self.spec(geometric_access_times="yes")
