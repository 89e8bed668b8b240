"""Property test: sharded scenario runs merge byte-identically.

The scenario compiler's multi-machine contract: compiling a scenario,
splitting its work units into ``k`` shards, running each shard
independently, and merging the shard reports produces *exactly* the
bytes of the unsharded run - for every ``k`` and every assignment of
shards to (possibly repeated, possibly reordered) "machines".
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios.compiler import (
    compile_scenario,
    merge_units,
    shard_units,
)
from repro.scenarios.execute import (
    merge_reports,
    render_report,
    run_scenario,
    run_units,
)
from repro.scenarios.spec import GridAxis, ReplicationPlan, ScenarioSpec
from repro.workloads.spec import HotSpotWorkload

CYCLES = 200
"""Tiny runs: the property is exact equality, not statistical strength."""


def build_spec(
    r_count: int,
    replications: int,
    base_seed: int,
    hot: bool,
    metrics: tuple[str, ...] = (),
) -> ScenarioSpec:
    workload = HotSpotWorkload(hot_fraction=0.0) if hot else None
    grid = [
        GridAxis("memory_cycle_ratio", tuple(range(1, r_count + 1))),
        GridAxis("buffered", (False, True)),
    ]
    if hot:
        grid.append(GridAxis("workload.hot_fraction", (0.0, 0.5)))
    kwargs = {}
    if workload is not None:
        kwargs["workload"] = workload
    return ScenarioSpec(
        name="property",
        base={"processors": 2, "memories": 2},
        grid=tuple(grid),
        cycles=CYCLES,
        plan=ReplicationPlan(replications, base_seed),
        metrics=metrics,
        **kwargs,
    )


class TestShardUnionProperty:
    @settings(max_examples=12, deadline=None)
    @given(
        r_count=st.integers(min_value=1, max_value=3),
        replications=st.integers(min_value=1, max_value=3),
        base_seed=st.integers(min_value=0, max_value=1_000),
        hot=st.booleans(),
        with_latency=st.booleans(),
        shard_count=st.integers(min_value=1, max_value=5),
        data=st.data(),
    )
    def test_merged_shards_equal_unsharded_run(
        self, r_count, replications, base_seed, hot, with_latency, shard_count, data
    ):
        metrics = ("latency",) if with_latency else ()
        spec = build_spec(r_count, replications, base_seed, hot, metrics)
        units = compile_scenario(spec)
        unsharded = render_report(run_units(units))
        if with_latency:
            # The byte-identity contract must cover the percentile
            # columns, not just the mean-bandwidth ones.
            assert "lat_p99=" in unsharded and "wait_p50=" in unsharded
        else:
            assert "lat_" not in unsharded

        # Shards execute in an arbitrary machine order.
        order = data.draw(
            st.permutations(list(range(1, shard_count + 1))),
            label="shard execution order",
        )
        reports = [
            render_report(run_units(shard_units(units, index, shard_count)))
            for index in order
        ]
        assert merge_reports(reports) == unsharded

    @settings(max_examples=4, deadline=None)
    @given(
        r_count=st.integers(min_value=1, max_value=2),
        base_seed=st.integers(min_value=0, max_value=1_000),
    )
    def test_worker_count_invisible_in_latency_columns(self, r_count, base_seed):
        spec = build_spec(r_count, 2, base_seed, hot=False, metrics=("latency",))
        serial = render_report(run_scenario(spec))
        served = render_report(run_scenario(spec, workers=3))
        assert serial == served

    @settings(max_examples=12, deadline=None)
    @given(
        r_count=st.integers(min_value=1, max_value=3),
        replications=st.integers(min_value=1, max_value=2),
        shard_count=st.integers(min_value=1, max_value=6),
    )
    def test_shards_partition_exactly(self, r_count, replications, shard_count):
        spec = build_spec(r_count, replications, 0, hot=False)
        units = compile_scenario(spec)
        shards = [
            shard_units(units, index, shard_count)
            for index in range(1, shard_count + 1)
        ]
        assert merge_units(shards) == units
        sizes = sorted(len(shard) for shard in shards)
        assert sizes[-1] - sizes[0] <= 1
