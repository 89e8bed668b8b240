"""Unit tests for the batch kernel's surface and guard rails.

The numerical contracts (composition invariance, statistical
equivalence) live in ``tests/properties/test_batch_invariance.py`` and
``tests/integration/test_batch_statistics.py``; this module covers the
API edges: capability rejections, fleet shape validation, the run
protocol, and the ``simulate`` entry point.
"""

from __future__ import annotations

import pytest

from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError
from repro.core.policy import Priority


def test_check_batch_metrics_accepts_latency_rejects_unknown():
    from repro.bus import check_batch_metrics

    check_batch_metrics(())
    check_batch_metrics(("latency",))
    with pytest.raises(ConfigurationError, match="telemetry"):
        check_batch_metrics(("latency", "telemetry"))


def test_check_batch_features_names_each_unsupported_feature():
    from repro.bus import check_batch_features

    check_batch_features(metrics=("latency",))
    check_batch_features(geometric_access_times=True)
    # geometric + latency is supported now: per-access service spans
    # feed the service sketch.
    check_batch_features(metrics=("latency",), geometric_access_times=True)

    class CustomSampler:
        def sample(self, processor):  # pragma: no cover - never called
            return 0

    with pytest.raises(ConfigurationError, match="CustomSampler"):
        check_batch_features(targets=CustomSampler())


def test_pack_key_separates_latency_collection():
    from repro.engine.base import EvalRequest
    from repro.parallel.fleet import pack_fleets

    config = SystemConfig(2, 2, 2)
    plain = EvalRequest(config, cycles=500, kernel="batch")
    latency = EvalRequest(
        config, cycles=500, metrics=("latency",), kernel="batch"
    )
    assert pack_fleets([plain, latency, plain]) == [[0, 2], [1]]


def test_compile_scenario_accepts_batch_latency_metrics():
    from repro.scenarios.compiler import compile_scenario
    from repro.scenarios.spec import GridAxis, ReplicationPlan, ScenarioSpec

    spec = ScenarioSpec(
        name="batch-latency-accept",
        description="",
        base={"processors": 2, "memories": 2},
        grid=(GridAxis("memory_cycle_ratio", (2,)),),
        cycles=200,
        plan=ReplicationPlan(2, 0),
        metrics=("latency",),
    )
    units = compile_scenario(spec, kernel="batch")
    assert all(unit.collects_latency for unit in units)
    # The exact kernels keep compiling it too.
    assert compile_scenario(spec, kernel="fast")


def test_compile_scenario_rejects_unknown_kernel():
    from repro.scenarios.compiler import compile_scenario
    from repro.scenarios.spec import GridAxis, ReplicationPlan, ScenarioSpec

    spec = ScenarioSpec(
        name="kernel-typo",
        description="",
        base={"processors": 2, "memories": 2},
        grid=(GridAxis("memory_cycle_ratio", (2,)),),
        cycles=200,
        plan=ReplicationPlan(1, 0),
    )
    with pytest.raises(ConfigurationError, match="known kernels: fast, batch"):
        compile_scenario(spec, kernel="bacth")


def test_simulate_batch_collects_latency_and_geometric_combined():
    from repro.bus import simulate

    config = SystemConfig(2, 2, 2)
    result = simulate(config, cycles=400, kernel="batch", collect_latency=True)
    assert result.latency is not None
    assert result.latency.total.count == result.completions
    geo = simulate(
        config, cycles=400, kernel="batch", geometric_access_times=True
    )
    assert geo.completions > 0
    both = simulate(
        config,
        cycles=400,
        kernel="batch",
        geometric_access_times=True,
        collect_latency=True,
    )
    assert both.latency is not None
    assert both.latency.total.count == both.completions
    # Geometric service times are at least 1 cycle and unbounded above,
    # so the sampled service summary must stay within the total span.
    assert both.latency.service.max_value >= 1
    assert both.latency.service.max_value <= both.latency.total.max_value


def test_batch_geometric_matches_exact_kernels_on_degenerate_r1():
    """r = 1 collapses the geometric draw to the constant path: the
    access-time stream is never consulted, so counters match the
    constant-access batch run bit-for-bit."""
    from repro.bus.batch import run_batch

    config = SystemConfig(3, 3, 1)
    geo = run_batch(config, cycles=1_000, seed=5, geometric_access_times=True)
    const = run_batch(config, cycles=1_000, seed=5)
    assert geo == const


def test_unknown_kernel_error_lists_batch():
    from repro.bus import simulate

    with pytest.raises(ConfigurationError, match="known kernels: fast, batch"):
        simulate(SystemConfig(2, 2, 2), cycles=10, kernel="warp")


class TestFleetValidation:
    def test_mismatched_shapes_are_packed_not_rejected(self):
        """Shape heterogeneity packs into one padded program now; only
        the pack fields (priority, tie_break, buffered) must match."""
        from repro.bus.batch import BatchBusKernel

        results = BatchBusKernel(
            [SystemConfig(2, 2, 2), SystemConfig(2, 3, 2)], [0, 1]
        ).run(400)
        assert all(result.completions > 0 for result in results)

    def test_mismatched_pack_fields_are_rejected(self):
        from repro.bus.batch import BatchBusKernel

        with pytest.raises(ConfigurationError, match="pack fields"):
            BatchBusKernel(
                [
                    SystemConfig(2, 2, 2),
                    SystemConfig(2, 2, 2, priority=Priority.MEMORIES),
                ],
                [0, 1],
            )
        with pytest.raises(ConfigurationError, match="pack fields"):
            BatchBusKernel(
                [
                    SystemConfig(2, 2, 2),
                    SystemConfig(2, 2, 2, buffered=True, buffer_depth=2),
                ],
                [0, 1],
            )

    def test_request_probability_may_differ_per_row(self):
        from repro.bus.batch import BatchBusKernel

        results = BatchBusKernel(
            [
                SystemConfig(2, 2, 2, request_probability=1.0),
                SystemConfig(2, 2, 2, request_probability=0.5),
            ],
            [0, 0],
        ).run(800)
        assert results[0].completions > results[1].completions

    def test_seed_config_length_mismatch(self):
        from repro.bus.batch import BatchBusKernel

        with pytest.raises(ConfigurationError, match="seeds"):
            BatchBusKernel([SystemConfig(2, 2, 2)], [0, 1])

    def test_empty_fleet_rejected(self):
        from repro.bus.batch import BatchBusKernel

        with pytest.raises(ConfigurationError, match="at least one row"):
            BatchBusKernel([], [])

    def test_custom_sampler_rejected(self):
        from repro.bus.batch import run_batch

        class Custom:
            def next_target(self, processor):  # pragma: no cover
                return 0

        with pytest.raises(ConfigurationError, match="custom samplers"):
            run_batch(SystemConfig(2, 2, 2), cycles=50, targets=Custom())

    def test_run_validation_matches_reference_rules(self):
        from repro.bus.batch import BatchBusKernel

        config = SystemConfig(2, 2, 2)
        for kwargs in (
            {"cycles": 0},
            {"cycles": 10, "warmup": -1},
            {"cycles": 10, "batches": -2},
        ):
            with pytest.raises(ConfigurationError):
                BatchBusKernel([config], [0]).run(**kwargs)

    def test_cycle_cap_is_enforced(self):
        from repro.bus.batch import _NEVER, BatchBusKernel

        kernel = BatchBusKernel([SystemConfig(1, 1, 1)], [0])
        with pytest.raises(ConfigurationError, match="limited"):
            kernel.advance(_NEVER)


class TestRunProtocol:
    def test_result_counters_are_python_ints(self):
        from repro.bus.batch import run_batch

        result = run_batch(SystemConfig(3, 3, 3), cycles=600, seed=2)
        assert type(result.completions) is int
        assert type(result.memory_busy_cycles) is int
        assert type(result.total_latency) is int
        assert result.response_transfers == result.completions
        assert all(isinstance(b, float) for b in result.batch_ebws)

    def test_default_batches_and_warmup(self):
        from repro.bus.batch import run_batch

        result = run_batch(SystemConfig(3, 3, 3), cycles=2_000, seed=1)
        assert result.warmup_cycles == 500
        assert result.cycles == 2_000
        assert len(result.batch_ebws) == 20

    def test_counters_stay_in_sane_ranges(self):
        from repro.bus.batch import run_batch

        config = SystemConfig(4, 4, 4, priority=Priority.MEMORIES)
        result = run_batch(config, cycles=3_000, seed=7)
        assert 0.0 < result.ebw <= config.max_ebw
        assert 0.0 < result.bus_utilization <= 1.0
        assert 0.0 < result.memory_utilization <= 1.0
        assert result.mean_latency >= config.memory_cycle_ratio + 2

    def test_deterministic_across_instances(self):
        from repro.bus.batch import run_batch

        first = run_batch(SystemConfig(3, 5, 4), cycles=1_000, seed=13)
        second = run_batch(SystemConfig(3, 5, 4), cycles=1_000, seed=13)
        assert first == second
