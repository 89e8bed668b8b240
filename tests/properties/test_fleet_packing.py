"""Property tests: shape-packed super-fleets are bit-identical.

The fleet-packing gate.  The batch kernel packs rows of heterogeneous
shapes (``n``, ``m``, access time ``r``, buffer depth) into one padded
lockstep program; the packing contract says padded lanes are inert and
**never consume a draw**, so every row's counters, latency sketches and
per-row Philox draw sequence are a pure function of the row alone -
identical whether the row runs packed with strangers, in its
homogeneous shape group, or in a singleton kernel.  That is what
licenses packing to ship under the unchanged ``simulation-batch@1``
cache token with byte-identical scenario stdout.

These properties drive randomized *heterogeneous* fleets - mixed
shapes sharing only the :data:`~repro.bus.PACK_FIELDS` - through
three groupings (one packed kernel, per-shape kernels, one kernel per
row) and assert exact equality of

* every counter of every row's ``SimulationResult``;
* the per-row latency quantile sketches (identical percentile
  reports); and
* each row's RNG end-state: after the run, the row's streams must
  produce identical *future* draws, proving packing changed the
  consumption of no stream.  A packed kernel may *instantiate* a
  stream a homogeneous kernel does not need (a constant-``r`` row
  packed with geometric neighbours, a ``p=1`` row packed with partial
  load): the row never consumes from it, so comparison applies
  wherever both kernels hold the stream.

The layer above is covered too: :func:`repro.parallel.fleet.run_fleet`
and the scenario executor's packed task grouping must produce the
bytes of one call per shape group.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus.batch import BatchBusKernel
from repro.core.config import SystemConfig
from repro.core.policy import Priority, TieBreak
from repro.engine.base import EvalRequest
from repro.parallel.fleet import run_fleet
from repro.workloads.spec import (
    HotSpotWorkload,
    RequestMixWorkload,
    TraceWorkload,
)


def shape_of(config):
    """A row's homogeneous lockstep shape (what packing pads over)."""
    return (
        config.processors,
        config.memories,
        config.memory_cycle_ratio,
        config.priority,
        config.tie_break,
        config.buffered,
        config.buffer_depth,
    )


def shape_groups(requests):
    """Positions of ``requests`` grouped by shape, first appearance first."""
    groups: dict = {}
    for position, request in enumerate(requests):
        groups.setdefault(shape_of(request.config), []).append(position)
    return list(groups.values())


def result_key(result):
    """Every field of a batch SimulationResult that must coincide."""
    return (
        result.config,
        result.cycles,
        result.completions,
        result.request_transfers,
        result.response_transfers,
        result.memory_busy_cycles,
        result.total_latency,
        result.batch_ebws,
        result.seed,
        result.warmup_cycles,
    )


def latency_key(result):
    """The latency report's full byte surface (or None)."""
    if result.latency is None:
        return None
    report = result.latency
    return tuple(
        (
            summary.count,
            summary.mean,
            summary.p50_value,
            summary.p90_value,
            summary.p99_value,
            summary.max_value,
        )
        for summary in (report.wait, report.service, report.total)
    )


def row_tails(kernel, row: int, draws: int = 3):
    """The next ``draws`` draws of one row's four RNG streams.

    Drawing through the lanes API per row proves the row consumed
    exactly the same number of variates from every stream, regardless
    of which other rows shared the kernel.  ``None`` marks a stream the
    kernel never instantiated.
    """
    tails = []
    index = np.array([row])
    for lanes in (
        kernel._targets_lanes,
        kernel._think_lanes,
        kernel._arb_lanes,
        kernel._access_lanes,
    ):
        if lanes is None:
            tails.append(None)
            continue
        tails.append(
            tuple(float(lanes.take_rows(index)[0]) for _ in range(draws))
        )
    return tails


def assert_tails_match(packed_tails, sub_tails):
    """Per-stream end-state equality wherever both kernels hold it.

    Packing may instantiate streams a smaller grouping does not need
    (the row never consumes from them - proven by the streams it *does*
    share staying identical); a stream the smaller kernel holds must
    exist in the packed kernel with the identical tail.
    """
    for packed, sub in zip(packed_tails, sub_tails):
        if sub is None:
            continue
        assert packed == sub


@st.composite
def packed_fleet_specs(draw):
    """Heterogeneous rows sharing only the pack fields."""
    buffered = draw(st.booleans())
    pack = dict(
        priority=draw(st.sampled_from(list(Priority))),
        tie_break=draw(st.sampled_from(list(TieBreak))),
        buffered=buffered,
    )
    geometric = draw(st.booleans())
    collect_latency = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(min_value=2, max_value=5))):
        config = SystemConfig(
            processors=draw(st.integers(min_value=1, max_value=4)),
            memories=draw(st.integers(min_value=1, max_value=4)),
            memory_cycle_ratio=draw(st.integers(min_value=1, max_value=4)),
            request_probability=draw(st.sampled_from([0.3, 0.7, 1.0])),
            buffer_depth=draw(st.sampled_from([1, 2, 3])) if buffered else 1,
            **pack,
        )
        seed = draw(st.integers(min_value=0, max_value=2**31))
        kind = draw(st.sampled_from(["uniform", "hot_spot", "trace", "mix"]))
        if kind == "hot_spot":
            workload = HotSpotWorkload(
                hot_fraction=draw(st.sampled_from([0.0, 0.4, 1.0])),
                hot_module=draw(
                    st.integers(min_value=0, max_value=config.memories - 1)
                ),
            )
        elif kind == "trace":
            length = draw(st.integers(min_value=1, max_value=4))
            workload = TraceWorkload(
                tuple(
                    tuple(
                        draw(
                            st.integers(
                                min_value=0, max_value=config.memories - 1
                            )
                        )
                        for _ in range(length)
                    )
                    for _ in range(config.processors)
                )
            )
        elif kind == "mix":
            workload = RequestMixWorkload(
                tuple(
                    draw(st.sampled_from([0.4, 0.9, 1.0]))
                    for _ in range(config.processors)
                )
            )
        else:
            workload = None
        rows.append((config, seed, workload))
    return rows, geometric, collect_latency


def _build_kernel(rows, geometric, collect_latency):
    configs = [config for config, _, _ in rows]
    seeds = [seed for _, seed, _ in rows]
    targets = [
        workload.build_targets(config, seed) if workload is not None else None
        for config, seed, workload in rows
    ]
    probabilities = [
        workload.request_probabilities(config)
        if workload is not None
        else None
        for config, _, workload in rows
    ]
    return BatchBusKernel(
        configs,
        seeds,
        targets=targets,
        request_probabilities=probabilities,
        collect_latency=collect_latency,
        geometric_access_times=geometric,
    )


def _run_grouped(rows, geometric, collect_latency, group_key):
    """Run ``rows`` as one kernel per ``group_key`` class; returns
    results and per-original-row ``(kernel, local_row)`` locators."""
    groups: dict = {}
    for position, row in enumerate(rows):
        groups.setdefault(group_key(position, row), []).append(position)
    results = [None] * len(rows)
    locators = [None] * len(rows)
    for members in groups.values():
        kernel = _build_kernel(
            [rows[i] for i in members], geometric, collect_latency
        )
        for local, position in enumerate(members):
            locators[position] = (kernel, local)
        for position, result in zip(members, kernel.run(300, warmup=60)):
            results[position] = result
    return results, locators


class TestPackingBitIdentity:
    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_packed_equals_unpacked_equals_singletons(self, data):
        rows, geometric, collect_latency = data.draw(packed_fleet_specs())
        packed = _build_kernel(rows, geometric, collect_latency)
        packed_results = packed.run(300, warmup=60)
        by_shape, shape_locators = _run_grouped(
            rows,
            geometric,
            collect_latency,
            lambda _, row: shape_of(row[0]),
        )
        singles, single_locators = _run_grouped(
            rows,
            geometric,
            collect_latency,
            lambda position, _: position,
        )
        for position in range(len(rows)):
            assert result_key(packed_results[position]) == result_key(
                by_shape[position]
            )
            assert result_key(packed_results[position]) == result_key(
                singles[position]
            )
            assert latency_key(packed_results[position]) == latency_key(
                by_shape[position]
            )
            assert latency_key(packed_results[position]) == latency_key(
                singles[position]
            )
        for position in range(len(rows)):
            packed_tails = row_tails(packed, position)
            kernel, local = shape_locators[position]
            assert_tails_match(packed_tails, row_tails(kernel, local))
            kernel, local = single_locators[position]
            assert_tails_match(packed_tails, row_tails(kernel, local))

    def test_mixed_depth_buffered_fcfs_pack(self):
        """The deepest packed path: per-row buffer depths and memory
        counts under FCFS memory priority, with latency sketches."""
        rows = [
            (
                SystemConfig(
                    3,
                    2,
                    4,
                    priority=Priority.MEMORIES,
                    tie_break=TieBreak.FCFS,
                    buffered=True,
                    buffer_depth=1,
                ),
                7,
                None,
            ),
            (
                SystemConfig(
                    2,
                    4,
                    2,
                    priority=Priority.MEMORIES,
                    tie_break=TieBreak.FCFS,
                    buffered=True,
                    buffer_depth=3,
                    request_probability=0.6,
                ),
                8,
                RequestMixWorkload((0.4, 1.0)),
            ),
        ]
        packed = _build_kernel(rows, False, True)
        packed_results = packed.run(900, warmup=150)
        for position, row in enumerate(rows):
            alone = _build_kernel([row], False, True)
            (expected,) = alone.run(900, warmup=150)
            assert result_key(packed_results[position]) == result_key(
                expected
            )
            assert latency_key(packed_results[position]) == latency_key(
                expected
            )
            assert_tails_match(
                row_tails(packed, position), row_tails(alone, 0)
            )

    def test_constant_r_row_packed_with_geometric_neighbours(self):
        """A degenerate r=1 row never consults the access stream even
        under ``geometric_access_times``; packing it with geometric
        rows must not change anyone's draws."""
        rows = [
            (SystemConfig(2, 2, 1), 3, None),
            (SystemConfig(3, 3, 4, request_probability=0.7), 4, None),
        ]
        packed = _build_kernel(rows, True, True)
        packed_results = packed.run(600, warmup=100)
        for position, row in enumerate(rows):
            alone = _build_kernel([row], True, True)
            (expected,) = alone.run(600, warmup=100)
            assert result_key(packed_results[position]) == result_key(
                expected
            )
            assert latency_key(packed_results[position]) == latency_key(
                expected
            )
            assert_tails_match(
                row_tails(packed, position), row_tails(alone, 0)
            )


class TestFleetLayerPacking:
    def _fragmented_requests(self):
        requests = []
        for ratio in (1, 2, 4):
            for memories in (2, 3):
                for replication in range(2):
                    requests.append(
                        EvalRequest(
                            SystemConfig(3, memories, ratio),
                            cycles=400,
                            warmup=80,
                            seed=replication,
                            kernel="batch",
                        )
                    )
        return requests

    def test_run_fleet_matches_per_shape_calls(self):
        requests = self._fragmented_requests()
        packed = run_fleet(requests)
        for group in shape_groups(requests):
            per_shape = run_fleet([requests[i] for i in group])
            for position, row_alone in zip(group, per_shape):
                assert result_key(packed[position]) == result_key(row_alone)
                assert latency_key(packed[position]) == latency_key(
                    row_alone
                )

    def test_packed_scenario_units_are_byte_identical(self):
        from repro.scenarios.compiler import compile_scenario
        from repro.scenarios.execute import render_report, run_units
        from repro.scenarios.spec import (
            GridAxis,
            ReplicationPlan,
            ScenarioSpec,
        )

        spec = ScenarioSpec(
            name="packing-bytes",
            description="fragmented grid fixture",
            base={"processors": 3},
            grid=(
                GridAxis("memories", (2, 4)),
                GridAxis("memory_cycle_ratio", (1, 3)),
            ),
            cycles=400,
            plan=ReplicationPlan(2, 9),
            metrics=("latency",),
        )
        units = compile_scenario(spec, kernel="batch")
        packed = render_report(run_units(units))
        per_shape = {}
        for group in shape_groups([unit.request() for unit in units]):
            results = run_units([units[i] for i in group])
            per_shape.update(zip(group, results))
        assert render_report(
            per_shape[position] for position in range(len(units))
        ) == packed

    def test_packing_coarsens_kernel_call_count(self):
        """The wall-clock lever itself: the fragmented sweep above is
        one packed kernel call instead of one per shape."""
        from repro.parallel.fleet import pack_fleets

        requests = self._fragmented_requests()
        assert len(pack_fleets(requests)) == 1
        assert len(shape_groups(requests)) == 6
