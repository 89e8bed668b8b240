"""Statistical equivalence gate for batch-kernel latency percentiles.

The batch kernel's latency distributions come from the vectorized
:class:`~repro.metrics.FleetQuantileSketch`, driven by a different (but
equally valid) RNG stream layout than the exact kernels' scalar
:class:`~repro.metrics.StreamingQuantiles` pipeline.  The numbers are
therefore *statistically* - not bit- - equivalent: over seeded
replication fleets, batch and fast replication means of every latency
statistic (wait/service/total mean, p50, p90, p99) must agree within a
Welch-style confidence bound.  Seeded runs make the gate deterministic;
the bound documents equivalence quality rather than absorbing flakiness.

CI runs this module as its own job (see ``.github/workflows/ci.yml``)
because it is the acceptance gate for ``--kernel batch --metrics
latency``; locally it rides along with the integration suite.

The cache half pins that batch latency payloads live under the
``simulation-batch@1`` engine token *and* the ``latency@1`` metrics
token, so they can never be served from fast-kernel or plain-batch
entries.
"""

from __future__ import annotations

import math
import statistics

import pytest

from repro.engine.evaluators import BATCH_ENGINE_TOKEN
from repro.core.config import SystemConfig
from repro.core.policy import Priority, TieBreak
from repro.engine.base import EvalRequest
from repro.metrics import LATENCY_METRICS_TOKEN
from repro.parallel.cache import ResultCache, fingerprint
from repro.parallel.fleet import run_fleet
from repro.parallel.workers import run_case
from repro.scenarios.compiler import compile_scenario
from repro.scenarios.execute import run_units
from repro.scenarios.spec import (
    GridAxis,
    ReplicationPlan,
    ScenarioSpec,
)

REPLICATIONS = 8
CYCLES = 4_000
Z = 4.0
"""Welch-bound multiplier, as in ``test_batch_statistics.py``."""

LATENCY_FLEET = [
    SystemConfig(8, 8, 8),
    SystemConfig(8, 16, 8, priority=Priority.MEMORIES),
    SystemConfig(8, 4, 6, tie_break=TieBreak.FCFS),
    SystemConfig(8, 16, 8, request_probability=0.5),
    SystemConfig(8, 8, 8, buffered=True),
    SystemConfig(4, 8, 4, buffered=True, buffer_depth=2),
    SystemConfig(
        8, 8, 12, buffered=True, priority=Priority.MEMORIES,
        tie_break=TieBreak.FCFS,
    ),
]
"""Unbuffered and buffered points across priorities and tie-breaks."""

STATISTICS = [
    ("wait", "mean"),
    ("wait", "p50_value"),
    ("wait", "p90_value"),
    ("wait", "p99_value"),
    ("service", "mean"),
    ("total", "mean"),
    ("total", "p50_value"),
    ("total", "p90_value"),
    ("total", "p99_value"),
]


def _welch_bound(a, b) -> float:
    return Z * math.sqrt(
        statistics.variance(a) / len(a) + statistics.variance(b) / len(b)
    )


def _samples(results, component, field):
    return [getattr(getattr(r.latency, component), field) for r in results]


@pytest.mark.parametrize("config", LATENCY_FLEET, ids=lambda c: c.describe())
def test_batch_latency_statistics_match_fast_within_bounds(config):
    fast = [
        run_case(
            EvalRequest(
                config, cycles=CYCLES, seed=seed, metrics=("latency",)
            )
        )
        for seed in range(REPLICATIONS)
    ]
    batch = run_fleet(
        [
            EvalRequest(
                config,
                cycles=CYCLES,
                seed=seed,
                metrics=("latency",),
                kernel="batch",
            )
            for seed in range(REPLICATIONS)
        ]
    )
    assert all(r.latency is not None for r in fast + list(batch))
    for component, field in STATISTICS:
        fast_samples = _samples(fast, component, field)
        batch_samples = _samples(batch, component, field)
        fast_mean = statistics.fmean(fast_samples)
        batch_mean = statistics.fmean(batch_samples)
        bound = _welch_bound(fast_samples, batch_samples)
        bound += 1e-9 * max(abs(fast_mean), 1.0)
        assert abs(fast_mean - batch_mean) <= bound, (
            f"{component}.{field} diverges: fast {fast_mean:.4f} vs "
            f"batch {batch_mean:.4f} (bound {bound:.4f})"
        )


GEOMETRIC_LATENCY_FLEET = [
    SystemConfig(4, 4, 4),
    SystemConfig(8, 8, 8, buffered=True),
    SystemConfig(
        8, 16, 8, request_probability=0.5, priority=Priority.MEMORIES
    ),
    SystemConfig(4, 8, 6, tie_break=TieBreak.FCFS),
]
"""Geometric-access latency fleet: the combination the batch kernel
used to reject outright."""


@pytest.mark.parametrize(
    "config", GEOMETRIC_LATENCY_FLEET, ids=lambda c: c.describe()
)
def test_batch_geometric_latency_statistics_match_fast(config):
    """Geometric access times with latency collection: the per-access
    service spans fed into the fleet sketch must reproduce the fast
    kernel's wait/service/total statistics, not just populate a
    report."""
    from repro.bus import simulate

    fast = [
        simulate(
            config, cycles=CYCLES, seed=seed, kernel="fast",
            collect_latency=True, geometric_access_times=True,
        )
        for seed in range(REPLICATIONS)
    ]
    batch = [
        simulate(
            config, cycles=CYCLES, seed=seed, kernel="batch",
            collect_latency=True, geometric_access_times=True,
        )
        for seed in range(REPLICATIONS)
    ]
    assert all(r.latency is not None for r in fast + batch)
    # Geometric service spans really vary (the sketch saw the draws,
    # not the constant r).
    assert any(
        r.latency.service.p99_value > r.latency.service.p50_value
        for r in batch
    )
    for component, field in STATISTICS:
        fast_samples = _samples(fast, component, field)
        batch_samples = _samples(batch, component, field)
        fast_mean = statistics.fmean(fast_samples)
        batch_mean = statistics.fmean(batch_samples)
        bound = _welch_bound(fast_samples, batch_samples)
        bound += 1e-9 * max(abs(fast_mean), 1.0)
        assert abs(fast_mean - batch_mean) <= bound, (
            f"geometric {component}.{field} diverges: fast "
            f"{fast_mean:.4f} vs batch {batch_mean:.4f} "
            f"(bound {bound:.4f})"
        )


def test_batch_latency_counts_are_internally_consistent():
    config = SystemConfig(4, 8, 4, buffered=True, buffer_depth=2)
    results = run_fleet(
        [
            EvalRequest(
                config,
                cycles=2_000,
                seed=seed,
                metrics=("latency",),
                kernel="batch",
            )
            for seed in range(4)
        ]
    )
    for result in results:
        report = result.latency
        assert report is not None
        assert report.total.count == result.completions
        assert report.wait.count == report.total.count
        assert report.service.count == report.total.count
        # total = wait + service + response delay + 2 transfer cycles,
        # so the total mean dominates the component means.
        assert report.total.mean >= report.wait.mean + report.service.mean


def test_latency_collection_never_changes_batch_counters():
    config = SystemConfig(8, 8, 8, buffered=True)
    plain = run_fleet(
        [
            EvalRequest(config, cycles=1_500, seed=seed, kernel="batch")
            for seed in range(3)
        ]
    )
    collected = run_fleet(
        [
            EvalRequest(
                config,
                cycles=1_500,
                seed=seed,
                metrics=("latency",),
                kernel="batch",
            )
            for seed in range(3)
        ]
    )
    for a, b in zip(plain, collected):
        assert a.completions == b.completions
        assert a.total_latency == b.total_latency
        assert a.memory_busy_cycles == b.memory_busy_cycles
        assert a.ebw == b.ebw


# ----------------------------------------------------------------------
# Cache namespace: batch latency entries are doubly tokenized.
# ----------------------------------------------------------------------
def _scenario(metrics=()) -> ScenarioSpec:
    return ScenarioSpec(
        name="batch-latency-cache",
        description="latency cache separation fixture",
        base={"processors": 3, "memories": 3, "buffered": True},
        grid=(GridAxis("memory_cycle_ratio", (2, 3)),),
        cycles=500,
        plan=ReplicationPlan(2, 5),
        metrics=metrics,
    )


def test_batch_latency_payloads_carry_both_tokens():
    latency_units = compile_scenario(_scenario(("latency",)), kernel="batch")
    plain_units = compile_scenario(_scenario(), kernel="batch")
    fast_units = compile_scenario(_scenario(("latency",)), kernel="fast")
    for latency, plain, fast in zip(latency_units, plain_units, fast_units):
        latency_payload = latency.payload()
        assert latency_payload["engine"] == BATCH_ENGINE_TOKEN
        assert LATENCY_METRICS_TOKEN in latency_payload["metrics"]
        # Distinct from the same unit without latency, and from the fast
        # kernel collecting the same metrics.
        assert fingerprint(latency_payload) != fingerprint(plain.payload())
        assert fingerprint(latency_payload) != fingerprint(fast.payload())


def test_batch_latency_entries_round_trip_through_cache(tmp_path):
    cache = ResultCache(cache_dir=tmp_path, version_tag="test")
    units = compile_scenario(_scenario(("latency",)), kernel="batch")
    cold = run_units(units, cache=cache)
    assert not any(result.cached for result in cold)
    warm = run_units(units, cache=cache)
    assert all(result.cached for result in warm)
    for fresh, cached in zip(cold, warm):
        assert fresh.ebw == cached.ebw
        assert fresh.latency is not None and cached.latency is not None
        assert fresh.latency.payload() == cached.latency.payload()
