"""Property tests: batch fleet execution is composition invariant.

The batch kernel's reproducibility contract (see :mod:`repro.bus.batch`)
says a fleet row's result is a pure function of the row's own
``(config, workload, seed, cycles, warmup)`` - never of which other rows
share the lockstep call, in what order, or on which shard.  These
properties drive randomized fleets through
:class:`~repro.bus.batch.BatchBusKernel` and the scenario layer and
assert exact equality:

* permuting fleet rows permutes the results and changes no bytes;
* splitting a fleet into single-row fleets reproduces each row exactly;
* a batch-kernel scenario executed as ``k`` shards merges to stdout
  byte-identical to the unsharded run, under any worker count.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus.batch import BatchBusKernel, run_batch
from repro.core.config import SystemConfig
from repro.core.policy import Priority, TieBreak
from repro.engine.base import EvalRequest
from repro.parallel.fleet import pack_fleets, run_fleet
from repro.scenarios.execute import (
    merge_reports,
    render_report,
    run_scenario,
    run_units,
)
from repro.scenarios.compiler import (
    compile_scenario,
    shard_units,
)
from repro.scenarios.spec import (
    GridAxis,
    ReplicationPlan,
    ScenarioSpec,
)
from repro.workloads.spec import (
    HotSpotWorkload,
    RequestMixWorkload,
    TraceWorkload,
)


def result_key(result):
    """Every field of a batch SimulationResult that must be invariant."""
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


@st.composite
def fleet_shapes(draw):
    buffered = draw(st.booleans())
    return dict(
        processors=draw(st.integers(min_value=1, max_value=5)),
        memories=draw(st.integers(min_value=1, max_value=5)),
        memory_cycle_ratio=draw(st.integers(min_value=1, max_value=5)),
        priority=draw(st.sampled_from(list(Priority))),
        tie_break=draw(st.sampled_from(list(TieBreak))),
        buffered=buffered,
        buffer_depth=draw(st.sampled_from([1, 2, 3])) if buffered else 1,
    )


@st.composite
def fleet_rows(draw, shape):
    """(config, seed, workload) rows sharing one lockstep shape."""
    rows = []
    for _ in range(draw(st.integers(min_value=2, max_value=6))):
        seed = draw(st.integers(min_value=0, max_value=2**31))
        p = draw(st.sampled_from([0.3, 0.7, 1.0]))
        config = SystemConfig(request_probability=p, **shape)
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
    return rows


class TestFleetComposition:
    @given(st.data(), fleet_shapes())
    @settings(max_examples=25, deadline=None)
    def test_permutation_and_single_row_invariance(self, data, shape):
        rows = data.draw(fleet_rows(shape))
        requests = [
            EvalRequest(
                config,
                workload,
                cycles=400,
                warmup=80,
                seed=seed,
                kernel="batch",
            )
            for config, seed, workload in rows
        ]
        full = run_fleet(requests)
        permutation = data.draw(st.permutations(range(len(requests))))
        permuted = run_fleet([requests[i] for i in permutation])
        for j, i in enumerate(permutation):
            assert result_key(permuted[j]) == result_key(full[i])
        # Single-row fleets (the simulate(kernel="batch") path) agree.
        for request, result in zip(requests, full):
            targets = (
                request.workload.build_targets(request.config, request.seed)
                if request.workload is not None
                else None
            )
            probabilities = (
                request.workload.request_probabilities(request.config)
                if request.workload is not None
                else None
            )
            single = run_batch(
                request.config,
                cycles=request.cycles,
                seed=request.seed,
                warmup=request.warmup,
                targets=targets,
                request_probabilities=probabilities,
            )
            assert result_key(single) == result_key(result)

    @given(fleet_shapes(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_replication_block_equals_separate_kernels(self, shape, seed):
        config = SystemConfig(**shape)
        block = BatchBusKernel(
            [config] * 4, [seed + i for i in range(4)]
        ).run(300, warmup=50)
        for i, result in enumerate(block):
            alone = BatchBusKernel([config], [seed + i]).run(300, warmup=50)
            assert result_key(alone[0]) == result_key(result)


def _batch_scenario(replications: int = 3) -> ScenarioSpec:
    return ScenarioSpec(
        name="batch-shard-property",
        description="fleet invariance fixture",
        base={"processors": 3, "memories": 4, "priority": Priority.PROCESSORS},
        grid=(
            GridAxis("memory_cycle_ratio", (2, 4)),
            GridAxis("request_probability", (0.5, 1.0)),
        ),
        cycles=600,
        plan=ReplicationPlan(replications, 11),
    )


class TestShardInvariance:
    def test_sharded_batch_reports_merge_byte_identically(self):
        spec = _batch_scenario()
        units = compile_scenario(spec, kernel="batch")
        unsharded = render_report(run_units(units))
        for shard_count in (2, 3):
            shard_reports = []
            for shard_index in range(1, shard_count + 1):
                shard = shard_units(units, shard_index, shard_count)
                shard_reports.append(render_report(run_units(shard)))
            assert merge_reports(shard_reports) == unsharded

    def test_worker_count_changes_no_bytes(self):
        spec = _batch_scenario()
        serial = render_report(run_scenario(spec, kernel="batch"))
        served = render_report(run_scenario(spec, kernel="batch", workers=2))
        assert served == serial

    def test_grouping_is_deterministic(self):
        spec = _batch_scenario()
        units = compile_scenario(spec, kernel="batch")
        requests = [unit.request() for unit in units]
        assert pack_fleets(requests) == pack_fleets(list(requests))


class TestSeedStreams:
    def test_distinct_seeds_distinct_results(self):
        config = SystemConfig(4, 4, 4)
        results = BatchBusKernel([config] * 3, [1, 2, 3]).run(2_000)
        keys = {result_key(result) for result in results}
        assert len(keys) == 3

    def test_same_seed_same_result(self):
        config = SystemConfig(4, 4, 4)
        first, second = BatchBusKernel([config] * 2, [9, 9]).run(2_000)
        assert result_key(
            dataclasses.replace(first, seed=0)
        ) == result_key(dataclasses.replace(second, seed=0))


_MAX_TAKE = 8
"""Most draws one lane call takes from one row in these programs."""


@st.composite
def lane_programs(draw):
    """A fleet size plus a random interleaving of lane calls.

    ``take_all`` reads one shared buffer column, so it only appears
    while every call so far took the same number of draws from each
    row - the precondition the kernel honours too (its arbitration
    stream only ever sees ``take_all``).
    """
    fleet = draw(st.integers(min_value=1, max_value=6))
    rows = st.integers(min_value=0, max_value=fleet - 1)
    taken = [0] * fleet
    lockstep = True
    program = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        kinds = ["take_rows", "take_rows_multi", "take_counts"]
        if lockstep:
            kinds.append("take_all")
        kind = draw(st.sampled_from(kinds))
        if kind == "take_all":
            argument, per_row = None, [1] * fleet
        elif kind == "take_counts":
            argument = draw(
                st.lists(
                    st.integers(min_value=0, max_value=_MAX_TAKE),
                    min_size=fleet,
                    max_size=fleet,
                )
            )
            per_row = argument
        else:
            argument = draw(
                st.lists(
                    rows,
                    min_size=1,
                    max_size=fleet if kind == "take_rows" else _MAX_TAKE,
                    unique=kind == "take_rows",
                )
            )
            per_row = [argument.count(f) for f in range(fleet)]
        lockstep = lockstep and len(set(per_row)) == 1
        taken = [t + k for t, k in zip(taken, per_row)]
        program.append((kind, argument))
    return fleet, program, max(taken)


class TestPhiloxChunking:
    """The lane buffer size never changes a draw: under any mix of lane
    calls, every row reads its own Philox stream strictly in order."""

    @settings(max_examples=80, deadline=None)
    @given(
        program=lane_programs(),
        small=st.integers(min_value=_MAX_TAKE, max_value=_MAX_TAKE + 5),
        base_key=st.integers(min_value=0, max_value=2**62),
    )
    def test_draws_are_identical_for_every_chunk_size(
        self, program, small, base_key
    ):
        from repro.bus.batch import _PhiloxLanes

        fleet, calls, total = program
        keys = [base_key + row for row in range(fleet)]
        streams = [
            np.random.Generator(np.random.Philox(key=key)).random(total)
            for key in keys
        ]
        for chunk in (small, 256, 2048):
            lanes = _PhiloxLanes(keys, chunk)
            cursor = [0] * fleet

            def expect(row, count=1):
                start = cursor[row]
                cursor[row] += count
                return list(streams[row][start : start + count])

            for kind, argument in calls:
                if kind == "take_all":
                    got = lanes.take_all()
                    want = [expect(row)[0] for row in range(fleet)]
                elif kind == "take_counts":
                    values = lanes.take_counts(np.array(argument))
                    got = [
                        list(values[row, :count])
                        for row, count in enumerate(argument)
                    ]
                    want = [
                        expect(row, count)
                        for row, count in enumerate(argument)
                    ]
                else:
                    take = getattr(lanes, kind)
                    got = take(np.array(argument, dtype=np.int64))
                    want = [expect(row)[0] for row in argument]
                assert list(got) == want, (chunk, kind, argument)
