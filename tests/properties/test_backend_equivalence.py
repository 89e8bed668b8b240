"""Property tests: the numpy and numba batch backends are bit-identical.

The backend-equivalence gate.  The numba backend reimplements the batch
kernel's vectorized cycle loop as a scalar (JIT-compilable) program over
the *same* state arrays and the *same* per-row Philox streams; sharing
the ``simulation-batch@1`` cache namespace with numpy is only sound if
the two backends agree on every byte.  These properties drive
randomized lockstep fleets - every workload family, both buffering
modes, both tie-break policies, partial load, latency collection,
geometric access times - through both backends and assert exact
equality of

* every counter of every row's :class:`SimulationResult` (completions,
  transfers, busy cycles, latency sums, batch EBW curves);
* the latency quantile sketches (identical percentile reports); and
* the RNG end-states: after the run, both kernels' streams must
  produce identical *future* draws, proving they consumed exactly the
  same variates (compared through the lanes API - the chunked numba
  driver refills buffers eagerly, so raw buffer snapshots legitimately
  differ while the streams are identical).

The interpreted backend (``NumbaBackend(jit=False)``) runs the same
loop functions and driver in plain Python, so this gate holds on hosts
without numba; when numba is importable the identical properties run
again under both JIT compilations, ``parallel=False`` (``numba``) and
``parallel=True`` (``numba-parallel``) (``@pytest.mark.jit``-free:
plain parametrize + skip).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus.backends import (
    NumbaBackend,
    NumbaParallelBackend,
)
from repro.bus.batch import BatchBusKernel
from repro.core.config import SystemConfig
from repro.core.policy import Priority, TieBreak
from repro.workloads.spec import (
    HotSpotWorkload,
    RequestMixWorkload,
    TraceWorkload,
)


def _numba_importable() -> bool:
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


BACKENDS = [
    pytest.param(lambda: NumbaBackend(jit=False), id="numba-interpreted"),
    pytest.param(
        lambda: NumbaBackend(jit=True),
        id="numba-jit",
        marks=pytest.mark.skipif(
            not _numba_importable(),
            reason="numba not installed ([batch-jit] extra)",
        ),
    ),
    pytest.param(
        lambda: NumbaParallelBackend(jit=True),
        id="numba-parallel-jit",
        marks=pytest.mark.skipif(
            not _numba_importable(),
            reason="numba not installed ([batch-jit] extra)",
        ),
    ),
]


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


def stream_tails(kernel, draws: int = 3):
    """The next ``draws`` all-row draws of every active RNG stream.

    Drawing *through the lanes API* is the correct end-state probe: it
    proves both backends consumed exactly the same number of variates
    from every stream, while staying insensitive to how eagerly each
    backend's driver refilled its buffer.
    """
    tails = []
    for lanes in (
        kernel._targets_lanes,
        kernel._think_lanes,
        kernel._arb_lanes,
        kernel._access_lanes,
    ):
        if lanes is None:
            tails.append(None)
            continue
        tails.append(tuple(tuple(lanes.take_all()) for _ in range(draws)))
    return tails


@st.composite
def fleet_specs(draw):
    buffered = draw(st.booleans())
    shape = dict(
        processors=draw(st.integers(min_value=1, max_value=5)),
        memories=draw(st.integers(min_value=1, max_value=5)),
        memory_cycle_ratio=draw(st.integers(min_value=1, max_value=5)),
        priority=draw(st.sampled_from(list(Priority))),
        tie_break=draw(st.sampled_from(list(TieBreak))),
        buffered=buffered,
        buffer_depth=draw(st.sampled_from([1, 2, 3])) if buffered else 1,
    )
    geometric = draw(st.booleans())
    collect_latency = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
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
    return rows, geometric, collect_latency


def _build_kernel(rows, geometric, collect_latency, backend):
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
        backend=backend,
    )


@pytest.mark.parametrize("make_backend", BACKENDS)
class TestBackendEquivalence:
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_fleet_results_and_rng_end_states_are_bit_identical(
        self, make_backend, data
    ):
        rows, geometric, collect_latency = data.draw(fleet_specs())
        reference = _build_kernel(rows, geometric, collect_latency, "numpy")
        candidate = _build_kernel(
            rows, geometric, collect_latency, make_backend()
        )
        expected = reference.run(400, warmup=80)
        actual = candidate.run(400, warmup=80)
        for row_expected, row_actual in zip(expected, actual):
            assert result_key(row_actual) == result_key(row_expected)
            assert latency_key(row_actual) == latency_key(row_expected)
        assert stream_tails(candidate) == stream_tails(reference)

    def test_long_run_crosses_chunk_refills(self, make_backend):
        """9,000+ cycles forces several RNG-buffer refills per stream;
        the chunked numba driver must re-enter its loop seamlessly."""
        config = SystemConfig(3, 3, 2, request_probability=0.7)
        reference = _build_kernel([(config, 11, None)], False, True, "numpy")
        candidate = _build_kernel(
            [(config, 11, None)], False, True, make_backend()
        )
        expected = reference.run(9_000, warmup=500)
        actual = candidate.run(9_000, warmup=500)
        assert result_key(actual[0]) == result_key(expected[0])
        assert latency_key(actual[0]) == latency_key(expected[0])
        assert stream_tails(candidate) == stream_tails(reference)

    def test_geometric_buffered_fcfs_heterogeneous_p(self, make_backend):
        """The deepest combined path: geometric access draws through the
        multi-pull sites, FCFS tie-break, buffered queues, per-row p."""
        config = SystemConfig(
            4,
            3,
            4,
            priority=Priority.MEMORIES,
            tie_break=TieBreak.FCFS,
            buffered=True,
            buffer_depth=2,
        )
        rows = [
            (config, 3, RequestMixWorkload((0.4, 0.9, 1.0, 0.7))),
            (config, 4, None),
        ]
        reference = _build_kernel(rows, True, False, "numpy")
        candidate = _build_kernel(rows, True, False, make_backend())
        expected = reference.run(2_000, warmup=200)
        actual = candidate.run(2_000, warmup=200)
        for row_expected, row_actual in zip(expected, actual):
            assert result_key(row_actual) == result_key(row_expected)
        assert stream_tails(candidate) == stream_tails(reference)
