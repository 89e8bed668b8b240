"""Property tests: the fast kernel is bit-identical to the reference loop.

A randomized fleet of configurations, workloads, seeds and measurement
windows runs through both :class:`repro.bus.system.MultiplexedBusSystem`
and :class:`repro.bus.kernel.FastBusKernel`; every comparison is exact
equality - counters, batch EBWs, streaming latency summaries and the
final states of every consumed random stream.  This contract is what
lets the kernel choice stay out of cache keys and report bytes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus import simulate
from repro.bus.kernel import FastBusKernel
from repro.bus.system import MultiplexedBusSystem
from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError
from repro.core.policy import Priority, TieBreak
from repro.engine.base import EvalRequest
from repro.des.rng import StreamFactory
from repro.parallel.workers import run_case
from repro.scenarios.compiler import compile_scenario
from repro.scenarios.execute import run_scenario
from repro.scenarios.spec import GridAxis, ReplicationPlan, ScenarioSpec
from repro.workloads.generators import HotSpotTargets
from repro.workloads.spec import (
    HotSpotWorkload,
    RequestMixWorkload,
    TraceWorkload,
)


@st.composite
def fleet_configs(draw):
    buffered = draw(st.booleans())
    return SystemConfig(
        processors=draw(st.integers(min_value=1, max_value=6)),
        memories=draw(st.integers(min_value=1, max_value=6)),
        memory_cycle_ratio=draw(st.integers(min_value=1, max_value=6)),
        request_probability=draw(st.sampled_from([0.2, 0.5, 0.9, 1.0])),
        priority=draw(st.sampled_from(list(Priority))),
        buffered=buffered,
        buffer_depth=draw(st.sampled_from([1, 2, 3])) if buffered else 1,
        tie_break=draw(st.sampled_from(list(TieBreak))),
    )


@st.composite
def measurement_windows(draw):
    return (
        draw(st.integers(min_value=1, max_value=400)),      # cycles
        draw(st.sampled_from([None, 0, 13, 80])),           # warmup
        draw(st.sampled_from([0, 1, 7, 20])),               # batches
    )


@st.composite
def workloads_for(draw, config):
    kind = draw(st.sampled_from(["uniform", "hot_spot", "trace", "mix"]))
    if kind == "hot_spot":
        return HotSpotWorkload(
            hot_fraction=draw(st.sampled_from([0.0, 0.3, 1.0])),
            hot_module=draw(
                st.integers(min_value=0, max_value=config.memories - 1)
            ),
        )
    if kind == "trace":
        length = draw(st.integers(min_value=1, max_value=5))
        traces = tuple(
            tuple(
                draw(st.integers(min_value=0, max_value=config.memories - 1))
                for _ in range(length)
            )
            for _ in range(config.processors)
        )
        return TraceWorkload(traces)
    if kind == "mix":
        return RequestMixWorkload(
            tuple(
                draw(st.sampled_from([0.3, 0.8, 1.0]))
                for _ in range(config.processors)
            )
        )
    return None


def result_key(result):
    """Every value of a SimulationResult that must match exactly."""
    latency = result.latency.payload() if result.latency is not None else None
    return (
        result.cycles,
        result.completions,
        result.request_transfers,
        result.response_transfers,
        result.memory_busy_cycles,
        result.total_latency,
        result.batch_ebws,
        result.warmup_cycles,
        latency,
    )


def reference_rng_states(system: MultiplexedBusSystem) -> dict[str, object]:
    """Final stream states of a reference run, kernel-comparable."""
    return {
        "think": system.processors[0]._think_stream._random.getstate(),
        "arbitration": system.arbiter._stream._random.getstate(),
    }


class TestBitIdentical:
    @given(
        fleet_configs(),
        st.integers(min_value=0, max_value=2**31),
        measurement_windows(),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_uniform_fleet(self, config, seed, window, collect):
        cycles, warmup, batches = window
        reference_system = MultiplexedBusSystem(
            config, seed=seed, collect_latency=collect
        )
        reference = reference_system.run(cycles, warmup=warmup, batches=batches)
        kernel = FastBusKernel(config, seed=seed, collect_latency=collect)
        fast = kernel.run(cycles, warmup=warmup, batches=batches)
        assert result_key(reference) == result_key(fast)
        # RNG consumption: identical draw counts leave identical states.
        states = kernel.rng_states()
        expected = reference_rng_states(reference_system)
        assert states["think"] == expected["think"]
        assert states["arbitration"] == expected["arbitration"]
        targets = reference_system.processors[0]._targets
        assert states["targets"] == targets._stream._random.getstate()

    @given(
        st.data(),
        fleet_configs(),
        st.integers(min_value=0, max_value=2**31),
        measurement_windows(),
    )
    @settings(max_examples=60, deadline=None)
    def test_workload_fleet(
        self, run_on_reference_machine, data, config, seed, window
    ):
        workload = data.draw(workloads_for(config))
        cycles, warmup, batches = window
        request = EvalRequest(
            config,
            workload,
            cycles=cycles,
            warmup=warmup,
            seed=seed,
            metrics=("latency",),
        )
        reference = run_on_reference_machine(request)
        fast = run_case(request)
        assert result_key(reference) == result_key(fast)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_simulate_entry_point(self, seed):
        config = SystemConfig(4, 4, 3, priority=Priority.PROCESSORS)
        reference = MultiplexedBusSystem(config, seed=seed).run(300)
        fast = simulate(config, cycles=300, seed=seed, kernel="fast")
        assert result_key(reference) == result_key(fast)

    @given(
        fleet_configs(),
        st.integers(min_value=0, max_value=2**31),
        measurement_windows(),
    )
    @settings(max_examples=60, deadline=None)
    def test_geometric_access_fleet(self, config, seed, window):
        """Geometric access times: same draws, same "access-times"
        stream, same event ordering - bit-identical end to end."""
        cycles, warmup, batches = window
        reference_system = MultiplexedBusSystem(
            config, seed=seed, geometric_access_times=True
        )
        reference = reference_system.run(cycles, warmup=warmup, batches=batches)
        kernel = FastBusKernel(config, seed=seed, geometric_access_times=True)
        fast = kernel.run(cycles, warmup=warmup, batches=batches)
        assert result_key(reference) == result_key(fast)
        states = kernel.rng_states()
        streams = reference_system._streams
        assert (
            states["access-times"]
            == streams.get("access-times")._random.getstate()
        )
        assert states["think"] == streams.get("think")._random.getstate()
        assert (
            states["arbitration"]
            == streams.get("arbitration")._random.getstate()
        )

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_simulate_entry_point_geometric(self, seed):
        config = SystemConfig(8, 6, 5, priority=Priority.PROCESSORS,
                              buffered=True)
        reference = MultiplexedBusSystem(
            config, seed=seed, geometric_access_times=True
        ).run(300)
        fast = simulate(
            config,
            cycles=300,
            seed=seed,
            kernel="fast",
            geometric_access_times=True,
        )
        assert result_key(reference) == result_key(fast)


class Custom:
    """A sampler the kernels know nothing about."""

    def next_target(self, processor):
        return 0


class ZeroHotSpot(HotSpotTargets):
    """A library sampler subclass: its override must not be skipped."""

    def next_target(self, processor):
        return 0


def custom_sampler(kind: str, seed: int):
    if kind == "custom":
        return Custom()
    return ZeroHotSpot(4, StreamFactory(seed).get("hot-spot"), 0.3)


TINY_SPEC = ScenarioSpec(
    name="kernel-names",
    description="",
    base={"processors": 2, "memories": 2},
    grid=(GridAxis("memory_cycle_ratio", (2,)),),
    cycles=10,
    plan=ReplicationPlan(1, 0),
)


class TestCoverageBoundaries:
    @pytest.mark.parametrize("kernel", ["fast", "batch"])
    @pytest.mark.parametrize("kind", ["custom", "subclass"])
    def test_custom_samplers_are_rejected(self, kind, kernel):
        config = SystemConfig(4, 4, 3)
        targets = custom_sampler(kind, 3)
        with pytest.raises(ConfigurationError, match="custom samplers"):
            if kernel == "fast":
                FastBusKernel(config, targets=targets)
            else:
                simulate(config, cycles=10, targets=targets, kernel="batch")

    @pytest.mark.parametrize(
        "kernel", [{}, {"kernel": "fast"}], ids=["default", "fast"]
    )
    @pytest.mark.parametrize("kind", ["custom", "subclass"])
    def test_simulate_runs_custom_samplers_on_the_reference_machine(
        self, kind, kernel
    ):
        """Every request of either sampler hits module 0: EBW 1.0, which
        the fast loop (it ignores the override) would miss."""
        config = SystemConfig(4, 4, 3)
        reference = MultiplexedBusSystem(
            config, seed=3, targets=custom_sampler(kind, 3)
        ).run(5_000)
        result = simulate(
            config, cycles=5_000, seed=3, targets=custom_sampler(kind, 3),
            **kernel,
        )
        assert result == reference
        assert result.ebw == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("kernel", ["warp", "reference"])
    @pytest.mark.parametrize(
        "entry", ["simulate", "compile_scenario", "run_scenario"]
    )
    def test_unknown_kernel_name_is_rejected(self, entry, kernel):
        """No entry point takes a kernel outside ``fast``/``batch``; the
        message names the class to construct for the reference machine."""
        call = {
            "simulate": lambda: simulate(
                SystemConfig(2, 2, 2), cycles=10, kernel=kernel
            ),
            "compile_scenario": lambda: compile_scenario(
                TINY_SPEC, kernel=kernel
            ),
            "run_scenario": lambda: run_scenario(TINY_SPEC, kernel=kernel),
        }[entry]
        with pytest.raises(
            ConfigurationError,
            match="unknown simulation kernel .*MultiplexedBusSystem",
        ):
            call()

    def test_run_validation_matches_reference(self):
        config = SystemConfig(2, 2, 2)
        for kwargs in ({"cycles": 0}, {"cycles": 10, "warmup": -1},
                       {"cycles": 10, "batches": -2}):
            for runner in (
                lambda kw: MultiplexedBusSystem(config).run(**kw),
                lambda kw: FastBusKernel(config).run(**kw),
            ):
                try:
                    runner(kwargs)
                except ConfigurationError:
                    continue
                raise AssertionError(f"{kwargs} should be rejected")
