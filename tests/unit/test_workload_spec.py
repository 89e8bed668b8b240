"""Unit tests for the declarative workload specs and their cache keys."""

from __future__ import annotations

import pickle

import pytest

from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError
from repro.engine.base import EvalRequest
from repro.parallel.cache import case_payload, fingerprint
from repro.parallel.workers import run_case
from repro.workloads.generators import HotSpotTargets, TraceTargets
from repro.workloads.spec import (
    HotSpotWorkload,
    RequestMixWorkload,
    TraceWorkload,
    UniformWorkload,
    workload_from_payload,
    workload_payload,
)


class TestValidation:
    def test_hot_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            HotSpotWorkload(hot_fraction=1.5)
        with pytest.raises(ConfigurationError):
            HotSpotWorkload(hot_fraction=-0.1)

    def test_hot_module_must_exist(self):
        workload = HotSpotWorkload(hot_fraction=0.2, hot_module=4)
        with pytest.raises(ConfigurationError):
            workload.validate(SystemConfig(2, 4, 2))
        workload.validate(SystemConfig(2, 5, 2))

    def test_trace_requires_nonempty_traces(self):
        with pytest.raises(ConfigurationError):
            TraceWorkload(traces=())
        with pytest.raises(ConfigurationError):
            TraceWorkload(traces=((),))

    def test_trace_covers_all_processors(self):
        workload = TraceWorkload(traces=((0, 1), (1, 0)))
        with pytest.raises(ConfigurationError):
            workload.validate(SystemConfig(3, 2, 2))
        workload.validate(SystemConfig(2, 2, 2))

    def test_trace_targets_must_exist(self):
        workload = TraceWorkload(traces=((0, 3),))
        with pytest.raises(ConfigurationError):
            workload.validate(SystemConfig(1, 2, 2))

    def test_request_mix_probability_range(self):
        with pytest.raises(ConfigurationError):
            RequestMixWorkload(probabilities=(0.5, 0.0))
        with pytest.raises(ConfigurationError):
            RequestMixWorkload(probabilities=(1.5,))

    def test_request_mix_length_must_match_processors(self):
        workload = RequestMixWorkload(probabilities=(0.5, 1.0))
        with pytest.raises(ConfigurationError):
            workload.validate(SystemConfig(3, 2, 2))
        workload.validate(SystemConfig(2, 2, 2))


class TestBuildTargets:
    def test_uniform_builds_nothing(self):
        assert UniformWorkload().build_targets(SystemConfig(2, 2, 2), 0) is None

    def test_hot_spot_builds_generator(self):
        targets = HotSpotWorkload(0.3).build_targets(SystemConfig(2, 4, 2), 1)
        assert isinstance(targets, HotSpotTargets)
        assert 0 <= targets.next_target(0) < 4

    def test_trace_builds_replaying_generator(self):
        workload = TraceWorkload(traces=((0, 1, 2),))
        targets = workload.build_targets(SystemConfig(1, 3, 2), 0)
        assert isinstance(targets, TraceTargets)
        assert [targets.next_target(0) for _ in range(4)] == [0, 1, 2, 0]

    def test_request_mix_overrides_per_processor_p(self):
        workload = RequestMixWorkload(probabilities=(0.5, 1.0))
        config = SystemConfig(2, 2, 2)
        assert workload.request_probabilities(config) == (0.5, 1.0)
        assert workload.build_targets(config, 0) is None


class TestPayloadRoundTrip:
    WORKLOADS = [
        UniformWorkload(),
        HotSpotWorkload(hot_fraction=0.25, hot_module=1),
        TraceWorkload(traces=((0, 1), (1, 0))),
        RequestMixWorkload(probabilities=(0.5, 1.0)),
    ]

    @pytest.mark.parametrize(
        "workload", WORKLOADS, ids=lambda w: w.kind
    )
    def test_round_trip(self, workload):
        assert workload_from_payload(workload_payload(workload)) == workload

    @pytest.mark.parametrize(
        "workload", WORKLOADS, ids=lambda w: w.kind
    )
    def test_picklable(self, workload):
        assert pickle.loads(pickle.dumps(workload)) == workload

    def test_none_encodes_as_uniform(self):
        assert workload_payload(None) == workload_payload(UniformWorkload())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            workload_from_payload({"kind": "bursty"})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            workload_from_payload({"kind": "uniform", "intensity": 2.0})


class TestCacheKeyCoverage:
    """The workload/cache gap: non-uniform runs get distinct keys."""

    def test_workloads_cannot_collide(self):
        config = SystemConfig(2, 4, 2)
        requests = [
            EvalRequest(config, cycles=1_000, seed=3),
            EvalRequest(config, cycles=1_000, seed=3, workload=HotSpotWorkload(0.5)),
            EvalRequest(
                config, cycles=1_000, seed=3, workload=TraceWorkload(((0, 1), (2, 3)))
            ),
            EvalRequest(
                config, cycles=1_000, seed=3, workload=RequestMixWorkload((0.5, 1.0))
            ),
        ]
        keys = {fingerprint(case_payload(request)) for request in requests}
        assert len(keys) == len(requests)

    def test_hot_spot_parameters_reach_the_key(self):
        config = SystemConfig(2, 4, 2)
        a = EvalRequest(config, cycles=1_000, seed=3, workload=HotSpotWorkload(0.2))
        b = EvalRequest(config, cycles=1_000, seed=3, workload=HotSpotWorkload(0.3))
        c = EvalRequest(
            config, cycles=1_000, seed=3, workload=HotSpotWorkload(0.2, hot_module=1)
        )
        keys = {fingerprint(case_payload(request)) for request in (a, b, c)}
        assert len(keys) == 3

    def test_explicit_uniform_equals_default(self):
        config = SystemConfig(2, 4, 2)
        implicit = EvalRequest(config, cycles=1_000, seed=3)
        explicit = EvalRequest(config, cycles=1_000, seed=3, workload=UniformWorkload())
        assert fingerprint(case_payload(implicit)) == fingerprint(
            case_payload(explicit)
        )


class TestRunCase:
    def test_uniform_workload_matches_plain_simulate(self):
        from repro.bus import simulate

        config = SystemConfig(2, 2, 2)
        plain = simulate(config, cycles=800, seed=5)
        spec_run = run_case(
            EvalRequest(config, cycles=800, seed=5, workload=UniformWorkload())
        )
        assert spec_run == plain

    def test_hot_spot_workload_changes_results(self):
        config = SystemConfig(4, 8, 4)
        uniform = run_case(EvalRequest(config, cycles=2_000, seed=5))
        hot = run_case(
            EvalRequest(config, cycles=2_000, seed=5, workload=HotSpotWorkload(0.8))
        )
        assert hot.ebw < uniform.ebw

    def test_request_mix_workload_runs(self):
        config = SystemConfig(2, 2, 2)
        result = run_case(
            EvalRequest(
                config, cycles=1_000, seed=5, workload=RequestMixWorkload((0.3, 1.0))
            )
        )
        assert 0.0 < result.ebw <= config.max_ebw

    def test_invalid_workload_rejected_at_run(self):
        config = SystemConfig(4, 2, 2)
        request = EvalRequest(
            config, cycles=500, seed=0, workload=RequestMixWorkload((1.0, 1.0))
        )
        with pytest.raises(ConfigurationError):
            run_case(request)
