"""Property tests: forked execution is invisible in the results.

``run_scenario(spec, workers=N)`` is the library's one parallel path:
it hands a scenario's work units to N sweep workers forked from the
coordinator.  These properties state that fanning the units out
changes wall-clock time and nothing else.  A
:class:`~repro.scenarios.spec.ReplicationPlan` run on any number of
workers returns exactly the estimates, seeds and latency summaries of
the serial :func:`replicate` and :func:`replicate_latency`, for
uniform, hot-spot and trace workloads; a grid run on workers traces
exactly the curves of :func:`sweep_r` and :func:`sweep_p` and the
runs of :func:`sensitivity_analysis`.
"""

from __future__ import annotations

import dataclasses
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sensitivity import sensitivity_analysis
from repro.analysis.sweeps import sweep_p, sweep_r
from repro.core.config import SystemConfig
from repro.core.policy import Priority
from repro.des.replications import (
    ebw_estimator,
    replicate,
    replicate_latency,
)
from repro.metrics import merge_latency_reports
from repro.parallel import EbwTask, LatencyTask
from repro.scenarios.execute import render_report, run_scenario
from repro.scenarios.spec import GridAxis, ReplicationPlan, ScenarioSpec
from repro.workloads.spec import HotSpotWorkload, TraceWorkload, UniformWorkload

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="forked workers need os.fork"
)

CYCLES = 400
"""Tiny runs: equivalence is exact, so statistical strength is irrelevant."""

configs = st.builds(
    SystemConfig,
    processors=st.integers(min_value=1, max_value=4),
    memories=st.integers(min_value=1, max_value=4),
    memory_cycle_ratio=st.integers(min_value=1, max_value=4),
    request_probability=st.sampled_from([0.3, 0.7, 1.0]),
    priority=st.sampled_from(list(Priority)),
    buffered=st.booleans(),
)


def _replications(
    config, replications, base_seed, workload=None, metrics=(), grid=()
):
    return ScenarioSpec(
        name="parallel-equivalence",
        base=dataclasses.asdict(config),
        grid=grid,
        workload=workload or UniformWorkload(),
        cycles=CYCLES,
        plan=ReplicationPlan(replications=replications, base_seed=base_seed),
        metrics=metrics,
    )


class TestReplicationEquivalence:
    @settings(max_examples=6, deadline=None)
    @given(
        config=configs,
        replications=st.integers(min_value=2, max_value=4),
        base_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_forked_replications_match_replicate(
        self, config, replications, base_seed
    ):
        serial = replicate(
            ebw_estimator(config, cycles=CYCLES), replications,
            base_seed=base_seed,
        )
        forked = run_scenario(
            _replications(config, replications, base_seed), workers=2
        )
        assert tuple(result.unit.seed for result in forked) == serial.seeds
        assert tuple(result.ebw for result in forked) == serial.estimates

    @settings(max_examples=4, deadline=None)
    @given(config=configs, base_seed=st.integers(min_value=0, max_value=100))
    def test_worker_count_is_invisible(self, config, base_seed):
        spec = _replications(config, 3, base_seed)
        serial = run_scenario(spec)
        for workers in (1, 2, 3):
            assert run_scenario(spec, workers=workers) == serial


class TestWorkloadReplicationEquivalence:
    """Hot-spot and trace workloads travel to the workers as specs and
    are rebuilt there from each unit's seed; the bytes must not move."""

    @settings(max_examples=6, deadline=None)
    @given(
        config=configs,
        hot_fraction=st.sampled_from([0.0, 0.3, 0.8]),
        base_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_hot_spot_parallel_matches_serial(
        self, config, hot_fraction, base_seed
    ):
        workload = HotSpotWorkload(hot_fraction=hot_fraction)
        serial = replicate(
            EbwTask(config, CYCLES, workload), 3, base_seed=base_seed
        )
        forked = run_scenario(
            _replications(config, 3, base_seed, workload), workers=2
        )
        assert tuple(result.unit.seed for result in forked) == serial.seeds
        assert tuple(result.ebw for result in forked) == serial.estimates

    @settings(max_examples=6, deadline=None)
    @given(
        config=configs,
        base_seed=st.integers(min_value=0, max_value=10_000),
        data=st.data(),
    )
    def test_trace_parallel_matches_serial(self, config, base_seed, data):
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
        workload = TraceWorkload(traces)
        serial = replicate(
            EbwTask(config, CYCLES, workload), 3, base_seed=base_seed
        )
        forked = run_scenario(
            _replications(config, 3, base_seed, workload), workers=3
        )
        assert tuple(result.ebw for result in forked) == serial.estimates

    def test_worker_count_is_invisible_for_hot_spot(self):
        spec = _replications(SystemConfig(3, 4, 2), 3, 17, HotSpotWorkload(0.4))
        serial = render_report(run_scenario(spec))
        for workers in (1, 2, 3):
            assert render_report(run_scenario(spec, workers=workers)) == serial


class TestLatencyReplicationEquivalence:
    """Latency summaries cross the worker pipe as exact payloads: each
    per-seed report - counts, exact totals, extrema and every quantile
    estimate - and their merge are the serial values bit for bit."""

    @settings(max_examples=5, deadline=None)
    @given(
        config=configs,
        replications=st.integers(min_value=2, max_value=4),
        base_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_parallel_latency_matches_serial(
        self, config, replications, base_seed
    ):
        serial = replicate_latency(
            LatencyTask(config, CYCLES), replications, base_seed=base_seed
        )
        forked = run_scenario(
            _replications(
                config, replications, base_seed, metrics=("latency",)
            ),
            workers=2,
        )
        reports = tuple(result.latency for result in forked)
        assert reports == serial.reports
        assert merge_latency_reports(reports) == serial.merged

    @settings(max_examples=4, deadline=None)
    @given(
        config=configs,
        hot_fraction=st.sampled_from([0.0, 0.4]),
        base_seed=st.integers(min_value=0, max_value=1_000),
    )
    def test_hot_spot_latency_worker_count_invisible(
        self, config, hot_fraction, base_seed
    ):
        spec = _replications(
            config, 3, base_seed, HotSpotWorkload(hot_fraction=hot_fraction),
            metrics=("latency",),
        )
        serial = run_scenario(spec)
        for workers in (1, 2, 3):
            assert run_scenario(spec, workers=workers) == serial


class TestSeededGridEquivalence:
    """The sweep helpers run serially; the same grid on workers traces
    the same curves."""

    GRID = [
        SystemConfig(2, 2, 2),
        SystemConfig(3, 2, 4, request_probability=0.5),
        SystemConfig(2, 4, 3, priority=Priority.MEMORIES, buffered=True),
    ]

    @pytest.mark.parametrize("config", GRID, ids=lambda c: c.describe())
    def test_sweep_r_identical_curves(self, config):
        values = (1, 2, 4)
        serial = sweep_r(config, values, "serial", cycles=CYCLES, seed=9)
        forked = run_scenario(
            _replications(
                config, 1, 9, grid=(GridAxis("memory_cycle_ratio", values),)
            ),
            workers=2,
        )
        assert tuple(result.ebw for result in forked) == serial.ebw_values()

    def test_sweep_p_identical_curves(self):
        config = dataclasses.replace(self.GRID[0], request_probability=1.0)
        values = (0.2, 0.6, 1.0)
        serial = sweep_p(config, values, "curve", cycles=CYCLES, seed=3)
        forked = run_scenario(
            _replications(
                config, 1, 3, grid=(GridAxis("request_probability", values),)
            ),
            workers=3,
        )
        assert tuple(result.ebw for result in forked) == serial.ebw_values()
        assert tuple(
            result.processor_utilization for result in forked
        ) == serial.processor_utilization_values()

    def test_sensitivity_identical_reports(self):
        base = SystemConfig(2, 2, 2)
        report = sensitivity_analysis(base, cycles=CYCLES, seed=5)
        # The base point, then one joint-axis point per perturbed factor
        # (memories, memory_cycle_ratio, request_probability, buffering).
        axis = GridAxis(
            ("memories", "memory_cycle_ratio", "request_probability",
             "buffered"),
            (
                (2, 2, 1.0, False),
                (4, 2, 1.0, False),
                (2, 4, 1.0, False),
                (2, 2, 0.8, False),
                (2, 2, 1.0, True),
            ),
        )
        forked = run_scenario(
            _replications(base, 1, 5, grid=(axis,)), workers=2
        )
        assert [effect.factor for effect in report.effects] == [
            "memories", "memory_cycle_ratio", "request_probability",
            "buffering",
        ]
        assert tuple(result.ebw for result in forked) == (
            report.base_ebw,
            *(effect.perturbed_ebw for effect in report.effects),
        )
