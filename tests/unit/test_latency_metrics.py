"""Unit tests for :mod:`repro.metrics` and the simulator plumbing."""

from __future__ import annotations

import dataclasses
import json
import math
from fractions import Fraction

import pytest

from repro.bus import simulate
from repro.bus.system import MultiplexedBusSystem
from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError
from repro.metrics import (
    LATENCY_METRICS_TOKEN,
    LATENCY_METRICS_VERSION,
    LatencyReport,
    LatencySummary,
    LatencyTracker,
    P2Quantile,
    StreamingQuantiles,
    exact_quantile,
    merge_latency_reports,
)
from repro.metrics.tracker import CHUNK
from repro.queueing.exponential_sim import (
    ServiceDistribution,
    simulate_central_server,
)


class TestP2Quantile:
    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ConfigurationError):
            P2Quantile(0.0)
        with pytest.raises(ConfigurationError):
            P2Quantile(1.0)
        with pytest.raises(ConfigurationError):
            P2Quantile(0.5, exact_limit=4)

    def test_estimate_requires_observations(self):
        with pytest.raises(ConfigurationError):
            P2Quantile(0.5).estimate()

    def test_constant_stream_is_exact_forever(self):
        estimator = P2Quantile(0.9, exact_limit=5)
        for _ in range(500):
            estimator.add(7.0)
        assert estimator.estimate() == 7.0

    def test_monotone_stream_estimate_is_reasonable(self):
        estimator = P2Quantile(0.5, exact_limit=5)
        for value in range(1, 1001):
            estimator.add(float(value))
        assert 400.0 <= estimator.estimate() <= 600.0


class TestExactQuantile:
    def test_validates_inputs(self):
        with pytest.raises(ConfigurationError):
            exact_quantile([], 0.5)
        with pytest.raises(ConfigurationError):
            exact_quantile([1.0], 1.5)

    def test_endpoints(self):
        assert exact_quantile([1.0, 2.0, 3.0], 0.0) == 1.0
        assert exact_quantile([1.0, 2.0, 3.0], 1.0) == 3.0
        assert exact_quantile([5.0], 0.5) == 5.0


class TestStreamingQuantiles:
    def test_rejects_bad_observations(self):
        collector = StreamingQuantiles()
        with pytest.raises(ConfigurationError):
            collector.add(-1)
        with pytest.raises(ConfigurationError):
            collector.add("fast")  # type: ignore[arg-type]
        with pytest.raises(ConfigurationError):
            collector.add(True)  # type: ignore[arg-type]
        # Ints too large for a float; 10**5000 has no printable repr.
        for huge in (10**400, -(10**400), 10**5000):
            with pytest.raises(ConfigurationError, match="finite"):
                collector.add(huge)
        assert collector.count == 0
        assert collector.summary() == LatencySummary()

    def test_rejects_non_finite_observations(self):
        collector = StreamingQuantiles()
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigurationError, match="finite"):
                collector.add(bad)
        # The guard fires before any counter moves: state stays clean.
        assert collector.count == 0

    def test_rejects_too_small_exact_limit_at_construction(self):
        # P2Quantile needs >= 5 seed observations; the wrapper must fail
        # here, not at the mid-run exact-to-streaming transition.
        with pytest.raises(ConfigurationError, match="exact_limit"):
            StreamingQuantiles(exact_limit=3)
        with pytest.raises(ConfigurationError, match="exact_limit"):
            StreamingQuantiles(exact_limit=4)

    def test_exact_limit_boundary_at_minimum(self):
        # exact_limit=5 is the smallest legal value.  The collector must
        # stay in exact mode through the fifth observation and hand the
        # buffered values to the P^2 estimators only on the sixth.
        collector = StreamingQuantiles(exact_limit=5)
        values = [9, 1, 7, 3, 5]
        for value in values:
            collector.add(value)
        assert collector.exact
        ordered = sorted(values)
        for q in (0.5, 0.9, 0.99):
            assert collector.quantile(q) == exact_quantile(ordered, q)
        collector.add(11)
        assert not collector.exact
        assert collector.count == 6
        # Estimates remain inside the observed range after the handoff.
        for q in (0.5, 0.9, 0.99):
            assert 1 <= collector.quantile(q) <= 11

    def test_rejected_observation_mid_stream_leaves_state_intact(self):
        # A NaN arriving after real observations must not corrupt the
        # already-accumulated state - totals and quantiles are unchanged.
        collector = StreamingQuantiles()
        for value in (2, 4, 6):
            collector.add(value)
        before = (collector.count, collector.quantile(0.5))
        with pytest.raises(ConfigurationError, match="finite"):
            collector.add(float("nan"))
        assert (collector.count, collector.quantile(0.5)) == before
        assert collector.summary().total == Fraction(12)

    def test_untracked_quantile_rejected(self):
        collector = StreamingQuantiles()
        collector.add(1)
        with pytest.raises(ConfigurationError):
            collector.quantile(0.75)

    def test_integer_totals_stay_exact(self):
        collector = StreamingQuantiles()
        for value in (3, 5, 7):
            collector.add(value)
        summary = collector.summary()
        assert summary.total == Fraction(15)
        assert summary.mean == 5.0

    def test_mixed_int_float_totals_are_exact(self):
        collector = StreamingQuantiles()
        collector.add(1)
        collector.add(0.5)
        assert collector.summary().total == Fraction(3, 2)

    def test_empty_summary(self):
        summary = StreamingQuantiles().summary()
        assert summary.count == 0
        assert math.isnan(summary.mean)
        assert math.isnan(summary.p99_value)


class TestLatencySummary:
    def test_empty_must_be_empty(self):
        with pytest.raises(ConfigurationError):
            LatencySummary(count=0, total=Fraction(3))
        with pytest.raises(ConfigurationError):
            LatencySummary(count=2, total=Fraction(3))  # missing quantiles

    def test_merge_type_checked(self):
        with pytest.raises(ConfigurationError):
            LatencySummary().merge("nope")  # type: ignore[arg-type]

    def test_payload_round_trips_through_json_exactly(self):
        summary = LatencySummary.from_values([1, 2, 0.3, 10])
        encoded = json.dumps(summary.payload())
        assert LatencySummary.from_payload(json.loads(encoded)) == summary

    def test_from_payload_rejects_damage(self):
        good = LatencySummary.from_values([1.0, 2.0]).payload()
        with pytest.raises(ConfigurationError):
            LatencySummary.from_payload("nope")  # type: ignore[arg-type]
        with pytest.raises(ConfigurationError):
            LatencySummary.from_payload({})
        bad = dict(good)
        bad["p50"] = [1, 0]  # zero denominator
        with pytest.raises(ConfigurationError):
            LatencySummary.from_payload(bad)
        bad = dict(good)
        bad["count"] = -3
        with pytest.raises(ConfigurationError):
            LatencySummary.from_payload(bad)
        # A non-empty summary without its total is a damaged entry, not
        # a summary with mean zero.
        bad = dict(good)
        del bad["total"]
        with pytest.raises(ConfigurationError):
            LatencySummary.from_payload(bad)
        # A numeric string must not unpack character-by-character into a
        # plausible fraction.
        bad = dict(good)
        bad["total"] = "12"
        with pytest.raises(ConfigurationError):
            LatencySummary.from_payload(bad)


class TestLatencyReport:
    def test_version_token_shape(self):
        assert LATENCY_METRICS_TOKEN == f"latency@{LATENCY_METRICS_VERSION}"

    def test_round_trip_and_version_rejection(self):
        tracker = LatencyTracker()
        for i in range(10):
            tracker.record(i, 4, i + 6)
        report = tracker.report()
        payload = json.loads(json.dumps(report.payload()))
        assert LatencyReport.from_payload(payload) == report
        payload["version"] = LATENCY_METRICS_VERSION + 1
        with pytest.raises(ConfigurationError):
            LatencyReport.from_payload(payload)

    def test_merge_latency_reports_folds_componentwise(self):
        a = LatencyTracker()
        b = LatencyTracker()
        a.record(1, 2, 5)
        b.record(3, 2, 7)
        merged = merge_latency_reports([a.report(), b.report()])
        assert merged.total.count == 2
        assert merged.wait.minimum == Fraction(1)
        assert merged.wait.maximum == Fraction(3)


class TestBusLatencyCollection:
    CONFIG = SystemConfig(4, 4, 4, request_probability=0.7, buffered=True)

    def test_off_by_default(self):
        result = simulate(self.CONFIG, cycles=500, seed=1)
        assert result.latency is None

    def test_collection_never_changes_counters(self):
        base = simulate(self.CONFIG, cycles=1_500, seed=3)
        tracked = simulate(self.CONFIG, cycles=1_500, seed=3, collect_latency=True)
        assert dataclasses.replace(tracked, latency=None) == base

    def test_decomposition_invariants(self):
        result = simulate(self.CONFIG, cycles=2_000, seed=5, collect_latency=True)
        report = result.latency
        assert report is not None
        assert report.total.count == result.completions
        assert report.wait.count == report.service.count == report.total.count
        # Constant access times (hypothesis (c)): service is exactly r.
        r = self.CONFIG.memory_cycle_ratio
        assert report.service.min_value == report.service.max_value == float(r)
        # Every request needs >= r + 2 cycles; wait + service + the two
        # transfers can never exceed the total.
        assert report.total.min_value >= r + 2
        assert report.total.mean >= report.wait.mean + report.service.mean + 2 - 1e-9
        # The streaming total must agree with the simulator's own
        # aggregate latency counter exactly.
        assert report.total.total == Fraction(result.total_latency)

    def test_unbuffered_wait_tracks_module_contention(self):
        result = simulate(
            SystemConfig(2, 2, 2), cycles=2_000, seed=1, collect_latency=True
        )
        report = result.latency
        assert report is not None
        assert report.total.min_value >= 4.0
        assert report.wait.min_value >= 0.0

    def test_warmup_excluded_from_summaries(self):
        result = simulate(
            self.CONFIG, cycles=400, warmup=400, seed=9, collect_latency=True
        )
        assert result.latency is not None
        # Counts cover only the measurement window's completions.
        assert result.latency.total.count == result.completions


class TestSingleProcessorOracle:
    """n = 1, p = 1: every latency is known without another simulator.

    The lone processor never meets contention: each request spends the
    request transfer, ``r`` access cycles and the response transfer,
    then the next one issues.  So wait is 0, service is ``r`` and total
    is ``r + 2`` for every request, buffered or unbuffered.
    """

    @pytest.mark.parametrize("kernel", ["reference", "fast", "batch"])
    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("memories, r", [(1, 1), (4, 3), (2, 8)])
    def test_every_summary_field_is_exact(self, kernel, buffered, memories, r):
        config = SystemConfig(1, memories, r, buffered=buffered)
        if kernel == "reference":
            result = MultiplexedBusSystem(
                config, seed=11, collect_latency=True
            ).run(3_000)
        else:
            result = simulate(
                config,
                cycles=3_000,
                seed=11,
                collect_latency=True,
                kernel=kernel,
            )
        count = result.completions
        # Past the exact prefix and a full chunk: P² seeding and a chunk
        # flush both ran.
        assert count > CHUNK
        report = result.latency
        assert report is not None
        for summary, value in (
            (report.wait, 0),
            (report.service, r),
            (report.total, r + 2),
        ):
            exact = Fraction(value)
            assert summary == LatencySummary(
                count=count,
                total=count * exact,
                minimum=exact,
                maximum=exact,
                p50=exact,
                p90=exact,
                p99=exact,
            )


class TestCentralServerLatencyCollection:
    CONFIG = SystemConfig(3, 3, 2)

    def test_collection_never_changes_counters(self):
        base = simulate_central_server(
            self.CONFIG, ServiceDistribution.EXPONENTIAL, duration=1_000, seed=5
        )
        tracked = simulate_central_server(
            self.CONFIG,
            ServiceDistribution.EXPONENTIAL,
            duration=1_000,
            seed=5,
            collect_latency=True,
        )
        assert tracked.completions == base.completions
        assert tracked.ebw == base.ebw
        assert base.latency is None
        assert tracked.latency is not None
        assert tracked.latency.total.count == tracked.completions

    def test_deterministic_service_times_are_constant(self):
        result = simulate_central_server(
            self.CONFIG,
            ServiceDistribution.DETERMINISTIC,
            duration=1_000,
            seed=2,
            collect_latency=True,
        )
        report = result.latency
        assert report is not None
        r = float(self.CONFIG.memory_cycle_ratio)
        assert report.service.min_value == report.service.max_value == r
        # total >= wait + service + two unit bus transfers
        assert report.total.mean >= report.wait.mean + r + 2.0 - 1e-9
