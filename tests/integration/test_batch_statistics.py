"""Statistical equivalence of the batch kernel, and its cache namespace.

The batch kernel is deliberately *not* bit-identical to the exact
kernels; its acceptance contract is statistical: over a fleet of
configurations, batch-kernel EBW and mean-latency replication means must
agree with fast-kernel means within declared confidence bounds.  The
runs are seeded, so the test is deterministic - the bounds document how
close the two samplers are, they do not absorb flakiness.

The second half pins the cache consequence of non-bit-identity: batch
results live under the ``simulation-batch@1`` engine token and can never
collide with - or be served from - ``simulation@1`` entries.
"""

from __future__ import annotations

import math
import statistics

import pytest

from repro.bus.system import MultiplexedBusSystem
from repro.core.config import SystemConfig
from repro.core.policy import Priority, TieBreak
from repro.engine.base import EvalRequest
from repro.engine.evaluators import BATCH_ENGINE_TOKEN
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
from repro.workloads.spec import HotSpotWorkload, TraceWorkload

REPLICATIONS = 8
CYCLES = 4_000
Z = 4.0
"""Welch-bound multiplier: the declared confidence bound (z = 4
corresponds to ~99.994% for a normal difference of means).  Seeded runs
make the test deterministic; the bound documents equivalence quality."""

EQUIVALENCE_FLEET = [
    SystemConfig(4, 4, 4),
    SystemConfig(8, 8, 8),
    SystemConfig(16, 16, 8),
    SystemConfig(8, 16, 8, priority=Priority.MEMORIES),
    SystemConfig(8, 4, 6, tie_break=TieBreak.FCFS),
    SystemConfig(8, 16, 8, request_probability=0.5),
    SystemConfig(6, 6, 2, request_probability=0.8, priority=Priority.MEMORIES),
    SystemConfig(8, 8, 8, buffered=True),
    SystemConfig(4, 8, 4, buffered=True, buffer_depth=2),
    SystemConfig(
        8, 8, 12, buffered=True, priority=Priority.MEMORIES,
        tie_break=TieBreak.FCFS,
    ),
    SystemConfig(2, 2, 3, request_probability=0.3),
]
"""The >= 10-configuration equivalence fleet (both priorities, both
tie-breaks, buffering, partial load)."""

_TRACES = (
    (0, 1, 2, 3, 0, 0, 2),
    (1, 1, 3, 0, 2),
    (2, 0, 0, 1, 3, 3, 1, 2),
    (3, 2, 1),
    (0, 2, 2, 1, 3, 1),
    (1, 3, 0, 0),
)
"""Per-processor target traces for up to six processors on four
modules, cycled by each processor at its own length."""

WORKLOAD_FLEET = [
    (SystemConfig(8, 8, 8), HotSpotWorkload(0.3)),
    (
        SystemConfig(6, 4, 4, buffered=True, priority=Priority.MEMORIES),
        HotSpotWorkload(0.5, hot_module=2),
    ),
    (
        SystemConfig(4, 8, 6, request_probability=0.6, tie_break=TieBreak.FCFS),
        HotSpotWorkload(0.2, hot_module=7),
    ),
    (SystemConfig(6, 4, 4), TraceWorkload(_TRACES)),
    (
        SystemConfig(6, 4, 3, buffered=True, buffer_depth=2),
        TraceWorkload(_TRACES),
    ),
    (
        SystemConfig(
            4, 4, 5, request_probability=0.5, priority=Priority.MEMORIES,
            tie_break=TieBreak.FCFS,
        ),
        TraceWorkload(_TRACES[:4]),
    ),
]
"""The workload families beyond uniform targets: hot-spot and trace
targets through both buffering modes, both priorities, both tie-breaks
and partial load.  Traces carry the only gate on batch trace rows
besides the bytes golden (the exact chain covers no traces)."""


def _welch_bound(a, b) -> float:
    return Z * math.sqrt(
        statistics.variance(a) / len(a) + statistics.variance(b) / len(b)
    )


def _means(results):
    ebw = statistics.fmean(r.ebw for r in results)
    latency = statistics.fmean(r.mean_latency for r in results)
    return ebw, latency


@pytest.mark.parametrize(
    "config, workload",
    [
        pytest.param(config, None, id=config.describe())
        for config in EQUIVALENCE_FLEET
    ]
    + [
        pytest.param(
            config, workload, id=f"{config.describe()}-{workload.describe()}"
        )
        for config, workload in WORKLOAD_FLEET
    ],
)
def test_batch_agrees_with_fast_within_confidence_bounds(config, workload):
    fast = [
        run_case(EvalRequest(config, workload, cycles=CYCLES, seed=seed))
        for seed in range(REPLICATIONS)
    ]
    batch = run_fleet(
        [
            EvalRequest(
                config, workload, cycles=CYCLES, seed=seed, kernel="batch"
            )
            for seed in range(REPLICATIONS)
        ]
    )
    fast_ebw, fast_latency = _means(fast)
    batch_ebw, batch_latency = _means(batch)
    ebw_bound = _welch_bound(
        [r.ebw for r in fast], [r.ebw for r in batch]
    ) + 1e-12
    latency_bound = _welch_bound(
        [r.mean_latency for r in fast], [r.mean_latency for r in batch]
    ) + 1e-9 * fast_latency
    assert abs(fast_ebw - batch_ebw) <= ebw_bound, (
        f"EBW means diverge: fast {fast_ebw:.6f} vs batch {batch_ebw:.6f} "
        f"(bound {ebw_bound:.6f})"
    )
    assert abs(fast_latency - batch_latency) <= latency_bound, (
        f"mean latency diverges: fast {fast_latency:.4f} vs batch "
        f"{batch_latency:.4f} (bound {latency_bound:.4f})"
    )


GEOMETRIC_FLEET = [
    SystemConfig(4, 4, 4),
    SystemConfig(8, 8, 8, buffered=True),
    SystemConfig(
        8, 16, 8, request_probability=0.5, priority=Priority.MEMORIES
    ),
    SystemConfig(4, 8, 6, tie_break=TieBreak.FCFS),
]
"""Geometric-access equivalence fleet: the Section 6 product-form lever
through both buffering modes, partial load and FCFS."""


@pytest.mark.parametrize(
    "config", GEOMETRIC_FLEET, ids=lambda c: c.describe()
)
def test_batch_geometric_access_agrees_with_fast(config):
    """Geometric access times through the batch kernel pass the same
    Welch gate as the constant-access path: per-row inverse-CDF draws
    from the dedicated ``access-times`` stream must reproduce the fast
    kernel's EBW and mean-latency statistics, not just run."""
    from repro.bus import simulate

    fast = [
        simulate(
            config, cycles=CYCLES, seed=seed, kernel="fast",
            geometric_access_times=True,
        )
        for seed in range(REPLICATIONS)
    ]
    batch = [
        simulate(
            config, cycles=CYCLES, seed=seed, kernel="batch",
            geometric_access_times=True,
        )
        for seed in range(REPLICATIONS)
    ]
    fast_ebw, fast_latency = _means(fast)
    batch_ebw, batch_latency = _means(batch)
    ebw_bound = _welch_bound(
        [r.ebw for r in fast], [r.ebw for r in batch]
    ) + 1e-12
    latency_bound = _welch_bound(
        [r.mean_latency for r in fast], [r.mean_latency for r in batch]
    ) + 1e-9 * fast_latency
    assert abs(fast_ebw - batch_ebw) <= ebw_bound, (
        f"geometric EBW means diverge: fast {fast_ebw:.6f} vs batch "
        f"{batch_ebw:.6f} (bound {ebw_bound:.6f})"
    )
    assert abs(fast_latency - batch_latency) <= latency_bound, (
        f"geometric mean latency diverges: fast {fast_latency:.4f} vs "
        f"batch {batch_latency:.4f} (bound {latency_bound:.4f})"
    )


# ----------------------------------------------------------------------
# Cache namespace separation.
# ----------------------------------------------------------------------
def _scenario() -> ScenarioSpec:
    return ScenarioSpec(
        name="batch-cache-namespace",
        description="cache separation fixture",
        base={"processors": 3, "memories": 3},
        grid=(GridAxis("memory_cycle_ratio", (2, 3)),),
        cycles=500,
        plan=ReplicationPlan(2, 5),
    )


def test_batch_payloads_use_their_own_engine_token():
    spec = _scenario()
    exact_units = compile_scenario(spec, kernel="fast")
    batch_units = compile_scenario(spec, kernel="batch")
    for exact, batch in zip(exact_units, batch_units):
        exact_payload = exact.payload()
        batch_payload = batch.payload()
        assert exact_payload["engine"] == "simulation@1"
        assert batch_payload["engine"] == BATCH_ENGINE_TOKEN
        assert fingerprint(exact_payload) != fingerprint(batch_payload)
    # simulation@1 holds the reference machine's numbers too: both exact
    # loops compute the same value for every exact payload.
    for exact, result in zip(exact_units, run_units(exact_units)):
        reference = MultiplexedBusSystem(exact.config, seed=exact.seed).run(
            exact.cycles, warmup=exact.warmup
        )
        assert result.ebw == reference.ebw


def test_batch_and_exact_entries_never_collide_in_cache(tmp_path):
    spec = _scenario()
    cache = ResultCache(cache_dir=tmp_path, version_tag="test")
    exact_units = compile_scenario(spec, kernel="fast")
    batch_units = compile_scenario(spec, kernel="batch")

    exact_first = run_units(exact_units, cache=cache)
    assert not any(result.cached for result in exact_first)
    # Batch sees a warm cache full of exact entries - and none match.
    batch_first = run_units(batch_units, cache=cache)
    assert not any(result.cached for result in batch_first)
    # Each kernel is served from its own namespace on the rerun.
    exact_again = run_units(exact_units, cache=cache)
    batch_again = run_units(batch_units, cache=cache)
    assert all(result.cached for result in exact_again)
    assert all(result.cached for result in batch_again)
    for fresh, cached in zip(exact_first, exact_again):
        assert fresh.ebw == cached.ebw
    for fresh, cached in zip(batch_first, batch_again):
        assert fresh.ebw == cached.ebw
    # The two kernels genuinely computed different numbers somewhere;
    # had they shared entries, the second run would have masked it.
    assert [r.ebw for r in exact_first] != [r.ebw for r in batch_first]
