"""Property tests: the replication tasks are the seeded simulator runs.

:class:`repro.parallel.EbwTask` and :class:`repro.parallel.LatencyTask`
turn a seed into one replication's estimate; :func:`replicate` and
:func:`replicate_latency` loop them over the canonical seed tuple.
These properties pin each task, for uniform, hot-spot and trace
workloads, to a direct :func:`repro.bus.simulate` call fed the live
target generator, and pin the replication aggregates to the per-seed
values they fold.  A :class:`~repro.scenarios.spec.ReplicationPlan` run
on forked sweep workers reproduces :func:`replicate` exactly.  The
one-axis sweeps and the sensitivity analysis are pinned the same way to
the single runs they are made of.
"""

from __future__ import annotations

import dataclasses
import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sweeps import sweep_p, sweep_r
from repro.bus import simulate
from repro.core.config import SystemConfig
from repro.core.policy import Priority
from repro.des.replications import (
    ebw_estimator,
    latency_estimator,
    replicate,
    replicate_latency,
    replication_seeds,
)
from repro.des.rng import StreamFactory
from repro.metrics import merge_latency_reports
from repro.parallel import EbwTask, LatencyTask
from repro.scenarios.execute import run_scenario
from repro.scenarios.spec import ReplicationPlan, ScenarioSpec
from repro.workloads.generators import HotSpotTargets, TraceTargets
from repro.workloads.spec import (
    HOT_SPOT_STREAM,
    HotSpotWorkload,
    TraceWorkload,
    UniformWorkload,
)

CYCLES = 400
"""Tiny runs: the identities are exact, so statistical strength is
irrelevant."""

configs = st.builds(
    SystemConfig,
    processors=st.integers(min_value=1, max_value=4),
    memories=st.integers(min_value=1, max_value=4),
    memory_cycle_ratio=st.integers(min_value=1, max_value=4),
    request_probability=st.sampled_from([0.3, 0.7, 1.0]),
    priority=st.sampled_from(list(Priority)),
    buffered=st.booleans(),
)


def _hot_spot_run(config, seed, hot_fraction, collect_latency=False):
    targets = HotSpotTargets(
        config.memories,
        StreamFactory(seed).get(HOT_SPOT_STREAM),
        hot_fraction=hot_fraction,
    )
    return simulate(
        config, cycles=CYCLES, seed=seed, targets=targets,
        collect_latency=collect_latency,
    )


class TestEbwReplication:
    @settings(max_examples=8, deadline=None)
    @given(
        config=configs,
        replications=st.integers(min_value=2, max_value=4),
        base_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_replicate_folds_the_seeded_runs(
        self, config, replications, base_seed
    ):
        result = replicate(
            ebw_estimator(config, cycles=CYCLES), replications,
            base_seed=base_seed,
        )
        seeds = replication_seeds(base_seed, replications)
        assert result.seeds == seeds
        assert result.estimates == tuple(
            simulate(config, cycles=CYCLES, seed=seed).ebw for seed in seeds
        )
        assert result.mean == sum(result.estimates) / replications

    @settings(max_examples=8, deadline=None)
    @given(
        config=configs,
        hot_fraction=st.sampled_from([0.0, 0.3, 0.8]),
        base_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_hot_spot_task_is_the_hot_spot_run(
        self, config, hot_fraction, base_seed
    ):
        task = EbwTask(
            config=config,
            cycles=CYCLES,
            workload=HotSpotWorkload(hot_fraction=hot_fraction),
        )
        result = replicate(task, 3, base_seed=base_seed)
        assert result.estimates == tuple(
            _hot_spot_run(config, seed, hot_fraction).ebw
            for seed in result.seeds
        )
        # A pickled copy is the same task: it computes the same bytes.
        assert replicate(pickle.loads(pickle.dumps(task)), 3,
                         base_seed=base_seed) == result

    @settings(max_examples=8, deadline=None)
    @given(
        config=configs,
        base_seed=st.integers(min_value=0, max_value=10_000),
        data=st.data(),
    )
    def test_trace_task_is_the_trace_run(self, config, base_seed, data):
        traces = tuple(
            tuple(
                data.draw(
                    st.lists(
                        st.integers(min_value=0, max_value=config.memories - 1),
                        min_size=1,
                        max_size=6,
                    ),
                    label=f"trace for processor {processor}",
                )
            )
            for processor in range(config.processors)
        )
        task = EbwTask(
            config=config, cycles=CYCLES, workload=TraceWorkload(traces)
        )
        result = replicate(task, 3, base_seed=base_seed)
        assert result.estimates == tuple(
            simulate(
                config, cycles=CYCLES, seed=seed,
                targets=TraceTargets(traces, config.memories),
            ).ebw
            for seed in result.seeds
        )


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forked workers need os.fork")
@pytest.mark.parametrize(
    "workload", [None, HotSpotWorkload(hot_fraction=0.4)],
    ids=["uniform", "hot-spot"],
)
def test_forked_replication_plan_is_replicate(workload):
    config = SystemConfig(3, 4, 2, priority=Priority.PROCESSORS)
    spec = ScenarioSpec(
        name="replications",
        base=dataclasses.asdict(config),
        workload=workload or UniformWorkload(),
        cycles=CYCLES,
        plan=ReplicationPlan(replications=4, base_seed=21),
    )
    serial = replicate(EbwTask(config, CYCLES, workload), 4, base_seed=21)
    forked = run_scenario(spec, workers=2)
    assert tuple(unit.unit.seed for unit in forked) == serial.seeds
    assert tuple(unit.ebw for unit in forked) == serial.estimates


class TestLatencyReplication:
    """The percentile pipeline's contract is stricter than "same means":
    each per-seed report, and the merged wait/service/total summaries -
    counts, exact totals, extrema and every quantile estimate - are
    exactly the seeded runs' values."""

    @settings(max_examples=6, deadline=None)
    @given(
        config=configs,
        replications=st.integers(min_value=2, max_value=4),
        base_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_replicate_latency_merges_the_seeded_reports(
        self, config, replications, base_seed
    ):
        result = replicate_latency(
            latency_estimator(config, cycles=CYCLES), replications,
            base_seed=base_seed,
        )
        assert result.seeds == replication_seeds(base_seed, replications)
        assert result.reports == tuple(
            simulate(config, cycles=CYCLES, seed=seed,
                     collect_latency=True).latency
            for seed in result.seeds
        )
        assert result.merged == merge_latency_reports(result.reports)
        assert result.merged.total.count == sum(
            report.total.count for report in result.reports
        )

    @settings(max_examples=6, deadline=None)
    @given(
        config=configs,
        hot_fraction=st.sampled_from([0.0, 0.4]),
        base_seed=st.integers(min_value=0, max_value=1_000),
    )
    def test_hot_spot_latency_task_is_the_hot_spot_run(
        self, config, hot_fraction, base_seed
    ):
        task = LatencyTask(
            config=config,
            cycles=CYCLES,
            workload=HotSpotWorkload(hot_fraction=hot_fraction),
        )
        result = replicate_latency(task, 3, base_seed=base_seed)
        assert result.reports == tuple(
            _hot_spot_run(config, seed, hot_fraction, True).latency
            for seed in result.seeds
        )
        assert result.merged == merge_latency_reports(result.reports)


class TestSeededGrids:
    """The one-axis sweeps and the sensitivity analysis are their single
    seeded runs, in grid order."""

    GRID = [
        SystemConfig(2, 2, 2),
        SystemConfig(3, 2, 4, request_probability=0.5),
        SystemConfig(2, 4, 3, priority=Priority.MEMORIES, buffered=True),
    ]

    @pytest.mark.parametrize("config", GRID, ids=lambda c: c.describe())
    def test_sweep_r_points_are_the_seeded_runs(self, config):
        values = (1, 2, 4)
        sweep = sweep_r(config, values, "serial", cycles=CYCLES, seed=9)
        assert sweep.axis_values() == values
        assert sweep.ebw_values() == tuple(
            simulate(
                dataclasses.replace(config, memory_cycle_ratio=r),
                cycles=CYCLES, seed=9,
            ).ebw
            for r in values
        )

    def test_sweep_p_points_are_the_seeded_runs(self):
        config = dataclasses.replace(self.GRID[0], request_probability=1.0)
        values = (0.2, 0.6, 1.0)
        sweep = sweep_p(config, values, "curve", cycles=CYCLES, seed=3)
        runs = [
            simulate(
                dataclasses.replace(config, request_probability=p),
                cycles=CYCLES, seed=3,
            )
            for p in values
        ]
        assert sweep.ebw_values() == tuple(run.ebw for run in runs)
        assert sweep.processor_utilization_values() == tuple(
            run.processor_utilization for run in runs
        )

    def test_sensitivity_effects_are_the_seeded_runs(self):
        from repro.analysis.sensitivity import sensitivity_analysis

        base = SystemConfig(2, 2, 2)
        report = sensitivity_analysis(base, cycles=CYCLES, seed=5)
        assert report.base_ebw == simulate(base, cycles=CYCLES, seed=5).ebw
        perturbed = {
            "memories": dataclasses.replace(base, memories=4),
            "memory_cycle_ratio": dataclasses.replace(
                base, memory_cycle_ratio=4
            ),
            "request_probability": dataclasses.replace(
                base, request_probability=0.8
            ),
            "buffering": base.with_buffers(),
        }
        assert [effect.factor for effect in report.effects] == list(perturbed)
        for effect in report.effects:
            assert effect.perturbed_ebw == simulate(
                perturbed[effect.factor], cycles=CYCLES, seed=5
            ).ebw
