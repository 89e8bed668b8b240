"""Unit tests for the evaluation-engine layer (repro.engine)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError, ExperimentError
from repro.core.policy import Priority
from repro.engine import (
    EVALUATORS,
    EvalRequest,
    EvalResult,
    EvaluationMethod,
    EvaluatorCapabilities,
    LittlesLawLatency,
    evaluate,
    evaluate_config,
    get_evaluator,
)
from repro.scenarios.compiler import compile_scenario
from repro.scenarios.execute import evaluate_unit, run_units, unit_line
from repro.scenarios.spec import GridAxis, ReplicationPlan, ScenarioSpec

BASE = {"processors": 2, "memories": 2, "memory_cycle_ratio": 2}


def small_config(**overrides) -> SystemConfig:
    return SystemConfig(**{**BASE, **overrides})


class TestMethodTable:
    def test_every_method_has_an_evaluator(self):
        for method in EvaluationMethod:
            evaluator = get_evaluator(method)
            assert evaluator.capabilities.method is method
            assert "@" in evaluator.capabilities.engine_token

    def test_engine_tokens_are_unique(self):
        tokens = [e.capabilities.engine_token for e in EVALUATORS.values()]
        assert len(tokens) == len(set(tokens))

    def test_unknown_method_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="no evaluator"):
            get_evaluator("quantum")

    def test_lookup_by_value_and_member_agree(self):
        for method, evaluator in EVALUATORS.items():
            assert get_evaluator(method.value) is evaluator
            assert get_evaluator(method) is evaluator


class TestCapabilities:
    def test_bandwidth_rejects_buffering(self):
        with pytest.raises(ConfigurationError, match="unbuffered"):
            evaluate_config(
                small_config(buffered=True), EvaluationMethod.BANDWIDTH
            )

    def test_markov_rejects_partial_load(self):
        with pytest.raises(ConfigurationError, match="p = 1"):
            evaluate_config(
                small_config(request_probability=0.5), EvaluationMethod.MARKOV
            )

    def test_analytic_methods_reject_non_uniform_workloads(self):
        from repro.workloads.spec import HotSpotWorkload

        request = EvalRequest(
            config=small_config(), workload=HotSpotWorkload(hot_fraction=0.5)
        )
        with pytest.raises(ConfigurationError, match="analytic"):
            evaluate(request, EvaluationMethod.CROSSBAR)

    def test_metrics_capability_names_the_method(self):
        capabilities = get_evaluator("markov").capabilities
        with pytest.raises(ConfigurationError, match="markov"):
            capabilities.check_metrics(("latency",))

    def test_buffered_only_capability_direction(self):
        # No built-in evaluator is buffered-only, but the declaration
        # supports it (e.g. a future buffered-queue model).
        capabilities = EvaluatorCapabilities(
            method=EvaluationMethod.MVA,
            engine_token="x@1",
            supports_unbuffered=False,
        )
        with pytest.raises(ConfigurationError, match="buffered system only"):
            capabilities.check_config(small_config())
        capabilities.check_config(small_config(buffered=True))

    def test_simulation_accepts_everything(self):
        capabilities = get_evaluator("simulation").capabilities
        capabilities.check(
            EvalRequest(
                config=small_config(buffered=True, request_probability=0.3),
                metrics=("latency",),
            )
        )

    def test_compiler_rejects_invalid_grid_points_at_load_time(self):
        spec = ScenarioSpec(
            name="bad-bandwidth",
            base={**BASE, "buffered": True},
            method=EvaluationMethod.BANDWIDTH,
        )
        with pytest.raises(ConfigurationError, match="bad-bandwidth"):
            compile_scenario(spec)

    def test_compiler_rejects_partial_load_markov(self):
        spec = ScenarioSpec(
            name="bad-markov",
            base=BASE,
            grid=(GridAxis("request_probability", (1.0, 0.5)),),
            method=EvaluationMethod.MARKOV,
        )
        with pytest.raises(ConfigurationError, match="p = 1"):
            compile_scenario(spec)


class TestEvaluators:
    def test_bounds_bracket_the_product_form_value(self):
        from repro.queueing.bounds import balanced_job_bounds
        from repro.queueing.mva import product_form_ebw
        from repro.queueing.network import buffered_bus_network

        config = small_config(
            processors=8, memories=8, memory_cycle_ratio=8, buffered=True
        )
        result = evaluate_config(config, EvaluationMethod.BOUNDS)
        bounds = balanced_job_bounds(buffered_bus_network(config))
        scale = config.processor_cycle
        assert bounds.lower * scale <= result.ebw <= bounds.upper * scale
        assert bounds.lower * scale <= product_form_ebw(config)
        assert product_form_ebw(config) <= bounds.upper * scale + 1e-9

    def test_approx_dispatches_on_priority(self):
        from repro.models.approx_memory_priority import (
            approximate_memory_priority_ebw,
        )
        from repro.models.processor_priority import processor_priority_ebw

        memories = small_config(
            processors=4, memories=4, memory_cycle_ratio=11,
            priority=Priority.MEMORIES,
        )
        processors = dataclasses.replace(memories, priority=Priority.PROCESSORS)
        assert (
            evaluate_config(memories, "approx").ebw
            == approximate_memory_priority_ebw(memories).ebw
        )
        assert (
            evaluate_config(processors, "approx").ebw
            == processor_priority_ebw(processors).ebw
        )

    def test_simulation_through_engine_equals_direct_simulate(self):
        from repro.bus import simulate

        config = small_config()
        via_engine = evaluate_config(
            config, "simulation", cycles=500, seed=3
        )
        direct = simulate(config, cycles=500, seed=3)
        assert via_engine.ebw == direct.ebw
        assert via_engine.bus_utilization == direct.bus_utilization

    def test_mva_littles_law_consistency(self):
        config = small_config(
            processors=8, memories=8, memory_cycle_ratio=8, buffered=True
        )
        result = evaluate_config(
            config, EvaluationMethod.MVA, metrics=("latency",)
        )
        littles = result.littles
        assert littles is not None
        # Little's law: N = X * (residence + think); p = 1 has no think.
        throughput = result.ebw / config.processor_cycle
        assert littles.total_mean == pytest.approx(
            config.processors / throughput
        )
        assert littles.wait_mean == pytest.approx(
            littles.total_mean - (config.memory_cycle_ratio + 2)
        )
        # Queue lengths: bus plus all modules plus in-thought equals N.
        assert (
            littles.queue_bus + littles.queue_memory * config.memories
        ) == pytest.approx(config.processors)

    def test_mva_littles_law_with_think_time(self):
        config = small_config(
            processors=4, memories=4, memory_cycle_ratio=4,
            request_probability=0.5, buffered=True,
        )
        littles = evaluate_config(
            config, EvaluationMethod.MVA, metrics=("latency",)
        ).littles
        assert littles.wait_mean >= 0.0
        assert littles.total_mean > config.memory_cycle_ratio + 2


class TestPayloads:
    def test_littles_payload_round_trips(self):
        littles = LittlesLawLatency(1.5, 9.5, 0.25, 0.75)
        assert LittlesLawLatency.from_payload(littles.payload()) == littles

    def test_malformed_littles_payload_raises(self):
        with pytest.raises(ConfigurationError, match="malformed"):
            LittlesLawLatency.from_payload({"wait_mean": 1.0})

    def test_eval_result_expectations_guard_stale_entries(self):
        payload = EvalResult(1.0, 0.5, 0.5).payload()
        EvalResult.from_payload(payload)
        with pytest.raises(ConfigurationError):
            EvalResult.from_payload(payload, expect_littles=True)
        with pytest.raises(ConfigurationError):
            EvalResult.from_payload(payload, expect_latency=True)

    def test_analytic_cache_payloads_ignore_seed_and_cycles(self):
        config = small_config(buffered=True)
        mva = get_evaluator("mva")
        one = mva.cache_payload(EvalRequest(config, cycles=10, seed=1))
        two = mva.cache_payload(EvalRequest(config, cycles=99, seed=7))
        assert one == two
        assert one["engine"] == "mva@1"

    def test_metric_bearing_mva_payload_differs(self):
        config = small_config(buffered=True)
        mva = get_evaluator("mva")
        plain = mva.cache_payload(EvalRequest(config))
        metric = mva.cache_payload(EvalRequest(config, metrics=("latency",)))
        assert plain != metric
        assert metric["metrics"] == ["littles@1"]


class TestScenarioIntegration:
    def mva_spec(self) -> ScenarioSpec:
        return ScenarioSpec(
            name="littles",
            base={**BASE, "buffered": True},
            method=EvaluationMethod.MVA,
            metrics=("latency",),
            plan=ReplicationPlan(1, 0),
        )

    def test_evaluate_unit_emits_littles_payload(self):
        unit = compile_scenario(self.mva_spec())[0]
        metrics = evaluate_unit(unit)
        assert set(metrics) >= {"ebw", "littles_law"}

    def test_unit_line_renders_littles_columns(self):
        results = run_units(compile_scenario(self.mva_spec()))
        line = unit_line(results[0])
        for column in ("wait_mean=", "total_mean=", "qlen_bus=", "qlen_mem="):
            assert column in line
        assert "lat_count=" not in line

    def test_cached_littles_units_render_identically(self, tmp_path):
        from repro.parallel.cache import ResultCache

        cache = ResultCache(cache_dir=tmp_path, version_tag="test")
        units = compile_scenario(self.mva_spec())
        fresh = run_units(units, cache=cache)
        cached = run_units(units, cache=cache)
        assert [unit_line(r) for r in fresh] == [unit_line(r) for r in cached]
        assert all(result.cached for result in cached)

    def test_stale_cache_entry_triggers_recompute(self, tmp_path):
        from repro.parallel.cache import ResultCache

        cache = ResultCache(cache_dir=tmp_path, version_tag="test")
        units = compile_scenario(self.mva_spec())
        key = cache.key(units[0].payload())
        # An entry in the pre-littles format (no littles_law) is
        # malformed for this unit and must be recomputed, not misread.
        cache.put(key, {"ebw": 1.0, "processor_utilization": 0.5,
                        "bus_utilization": 0.5})
        results = run_units(units, cache=cache)
        assert not results[0].cached
        assert results[0].littles is not None

    def test_malformed_payload_is_an_experiment_error(self):
        from repro.scenarios.execute import result_from_metrics

        unit = compile_scenario(self.mva_spec())[0]
        with pytest.raises(ExperimentError, match="malformed"):
            result_from_metrics(unit, {"ebw": "not-a-number"}, cached=False)

    def test_new_methods_compile_and_run(self):
        for method in (EvaluationMethod.BOUNDS, EvaluationMethod.APPROX):
            base = dict(BASE)
            if method is EvaluationMethod.BOUNDS:
                base["buffered"] = True
            spec = ScenarioSpec(name=f"new-{method}", base=base, method=method)
            results = run_units(compile_scenario(spec))
            assert results[0].ebw > 0.0
