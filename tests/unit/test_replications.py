"""Unit tests for :mod:`repro.des.replications`."""

from __future__ import annotations

import pytest

from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError
from repro.des.replications import (
    ReplicationResult,
    ebw_estimator,
    replicate,
    replicate_latency,
    replicate_until,
    replication_seeds,
)
from repro.engine.base import EvalRequest
from repro.parallel import EbwTask, LatencyTask, run_case


def noisy_estimator(seed: int) -> float:
    """A deterministic pseudo-noisy estimator around 10."""
    return 10.0 + ((seed * 2654435761) % 7 - 3) * 0.05


class TestReplicate:
    def test_fixed_count(self):
        result = replicate(noisy_estimator, replications=5, base_seed=1)
        assert result.replications == 5
        assert result.seeds == (1, 2, 3, 4, 5)
        assert result.mean == pytest.approx(10.0, abs=0.2)

    def test_interval_brackets_mean(self):
        result = replicate(noisy_estimator, replications=8)
        low, high = result.interval()
        assert low <= result.mean <= high
        assert result.half_width >= 0.0

    def test_constant_estimator_zero_width(self):
        result = replicate(lambda seed: 4.2, replications=4)
        assert result.half_width == 0.0
        assert result.relative_half_width == 0.0

    def test_summary_readable(self):
        text = replicate(lambda seed: 2.0, replications=3).summary()
        assert "2.0000" in text
        assert "3 replications" in text

    def test_requires_two_replications(self):
        with pytest.raises(ConfigurationError):
            replicate(noisy_estimator, replications=1)

    def test_calls_the_estimator_once_per_seed_in_order(self):
        calls = []

        def estimator(seed: int) -> float:
            calls.append(seed)
            return float(seed)

        result = replicate(estimator, replications=3, base_seed=40)
        assert calls == [40, 41, 42]
        assert result.seeds == replication_seeds(40, 3)
        assert result.estimates == (40.0, 41.0, 42.0)

    def test_confidence_recorded(self):
        result = replicate(noisy_estimator, replications=2, confidence=0.99)
        assert result.confidence == 0.99

    def test_unsupported_confidence_rejected(self):
        result = replicate(noisy_estimator, replications=3, confidence=0.8)
        with pytest.raises(ConfigurationError):
            _ = result.half_width

    def test_zero_mean_relative_width_infinite(self):
        result = ReplicationResult(
            estimates=(1.0, -1.0), seeds=(0, 1), confidence=0.95
        )
        assert result.relative_half_width == float("inf")


class TestReplicateUntil:
    def test_stops_when_precise(self):
        result = replicate_until(
            lambda seed: 5.0, relative_precision=0.01, min_replications=3
        )
        assert result.replications == 3  # constant: precise immediately

    def test_adds_replications_for_noisy_estimator(self):
        calls = []

        def estimator(seed: int) -> float:
            calls.append(seed)
            return noisy_estimator(seed)

        result = replicate_until(
            estimator,
            relative_precision=0.002,
            min_replications=3,
            max_replications=12,
        )
        assert 3 <= result.replications <= 12
        assert len(calls) == result.replications

    def test_respects_max_replications(self):
        # Irreducibly noisy estimator with impossible precision target.
        result = replicate_until(
            lambda seed: float(seed % 2) * 100.0,
            relative_precision=0.001,
            max_replications=6,
        )
        assert result.replications == 6

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            replicate_until(noisy_estimator, relative_precision=0.0)
        with pytest.raises(ConfigurationError):
            replicate_until(noisy_estimator, 0.1, min_replications=1)
        with pytest.raises(ConfigurationError):
            replicate_until(
                noisy_estimator, 0.1, min_replications=5, max_replications=4
            )


class TestReplicateLatency:
    def test_requires_two_replications(self):
        with pytest.raises(ConfigurationError):
            replicate_latency(lambda seed: seed, replications=1)

    def test_reports_follow_the_canonical_seeds(self):
        result = replicate_latency(
            lambda seed: ("report", seed), replications=3, base_seed=7
        )
        assert result.seeds == (7, 8, 9)
        assert result.reports == (("report", 7), ("report", 8), ("report", 9))
        assert result.replications == 3

    def test_merged_is_cached_outside_equality(self):
        from repro.metrics import merge_latency_reports

        task = LatencyTask(SystemConfig(2, 2, 2), cycles=300)
        first = replicate_latency(task, replications=2, base_seed=3)
        merged = first.merged
        assert first.merged is merged
        assert merged == merge_latency_reports(first.reports)
        assert first == replicate_latency(task, replications=2, base_seed=3)


class TestEbwEstimator:
    def test_matches_direct_simulation(self):
        from repro.bus import simulate

        config = SystemConfig(2, 2, 2)
        estimator = ebw_estimator(config, cycles=2_000)
        assert estimator(7) == simulate(config, cycles=2_000, seed=7).ebw

    def test_replicated_ebw_tight_for_stable_system(self):
        config = SystemConfig(4, 4, 2)  # saturated, very low variance
        estimator = ebw_estimator(config, cycles=3_000)
        result = replicate(estimator, replications=3, base_seed=1)
        assert result.relative_half_width < 0.05
        assert result.mean == pytest.approx(2.0, rel=0.02)


class TestSimulationTasks:
    def test_run_case_matches_simulate(self):
        from repro.bus import simulate

        config = SystemConfig(2, 2, 2)
        request = EvalRequest(config, cycles=1_500, seed=7)
        assert run_case(request) == simulate(config, cycles=1_500, seed=7)

    def test_run_case_collects_latency_when_requested(self):
        from repro.bus import simulate

        config = SystemConfig(2, 2, 2, buffered=True)
        request = EvalRequest(
            config, cycles=1_500, seed=7, metrics=("latency",)
        )
        result = run_case(request)
        assert result.latency is not None
        assert result == simulate(
            config, cycles=1_500, seed=7, collect_latency=True
        )
        assert run_case(EvalRequest(config, cycles=1_500, seed=7)).latency is None

    def test_ebw_task_is_picklable_and_correct(self):
        import pickle

        task = EbwTask(SystemConfig(2, 2, 2), cycles=1_500)
        clone = pickle.loads(pickle.dumps(task))
        assert clone(3) == task(3)

    def test_ebw_estimator_returns_picklable_task(self):
        import pickle

        estimator = ebw_estimator(SystemConfig(2, 2, 2), cycles=1_500)
        pickle.dumps(estimator)
        assert isinstance(estimator, EbwTask)
