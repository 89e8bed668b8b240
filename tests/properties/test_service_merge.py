"""Property tests: the sweep service merge is exactly invariant.

Acceptance contract of the distributed sweep service: whatever the
lease sizing, the cache warmth, the kernel, the worker count,
the shard designator, or a worker killed mid-lease, the coordinator's
merged output is byte-identical to the serial :func:`run_units`
report.  Loopback transports make the schedule deterministic and
cheap, so hypothesis can sweep crash timings that subprocess tests
could never afford.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios.compiler import compile_scenario, shard_units
from repro.scenarios.execute import render_report, run_units
from repro.scenarios.spec import GridAxis, ReplicationPlan, ScenarioSpec
from repro.service.coordinator import Coordinator
from repro.service.transports import LoopbackTransport

_SPEC = ScenarioSpec(
    name="service-merge-property",
    base={
        "processors": 3,
        "memories": 3,
        "memory_cycle_ratio": 2,
    },
    grid=(GridAxis("request_probability", (0.5, 1.0)),),
    cycles=150,
    plan=ReplicationPlan(replications=3, base_seed=11),
    description="tiny fleet for service merge properties",
)

_UNITS = compile_scenario(_SPEC)
_SERIAL = render_report(run_units(_UNITS, cache=None))


def _workers(count: int, kill: tuple[int, int] | None) -> list[LoopbackTransport]:
    transports = []
    for index in range(count):
        fail_after = None
        if kill is not None and kill[0] == index:
            fail_after = kill[1]
        transports.append(
            LoopbackTransport(f"w{index}", fail_after_results=fail_after)
        )
    return transports


class TestMergeInvariance:
    @settings(max_examples=40, deadline=None)
    @given(
        workers=st.integers(min_value=1, max_value=4),
        lease_size=st.integers(min_value=1, max_value=8),
    )
    def test_invariant_to_workers_and_lease_size(self, workers, lease_size):
        coordinator = Coordinator(
            [_SPEC],
            _workers(workers, None),
            lease_size=lease_size,
            cache_enabled=False,
        )
        assert render_report(coordinator.run()) == _SERIAL

    @settings(max_examples=40, deadline=None)
    @given(
        workers=st.integers(min_value=2, max_value=4),
        lease_size=st.integers(min_value=1, max_value=6),
        killed_worker=st.integers(min_value=0, max_value=3),
        fail_after=st.integers(min_value=1, max_value=5),
    )
    def test_invariant_to_mid_run_worker_kill(
        self, workers, lease_size, killed_worker, fail_after
    ):
        """One worker dies abruptly after its n-th result; the healthy
        rest absorb the retried lease and the bytes do not move."""
        coordinator = Coordinator(
            [_SPEC],
            _workers(workers, (killed_worker % workers, fail_after)),
            lease_size=lease_size,
            cache_enabled=False,
        )
        results = coordinator.run()
        assert render_report(results) == _SERIAL
        indices = [result.unit.index for result in results]
        assert indices == sorted(set(indices))  # no duplicates, no holes

    @settings(max_examples=20, deadline=None)
    @given(
        shard_count=st.integers(min_value=1, max_value=3),
        workers=st.integers(min_value=1, max_value=3),
        lease_size=st.integers(min_value=1, max_value=4),
    )
    def test_sharded_service_equals_sharded_serial(
        self, shard_count, workers, lease_size
    ):
        """--shard composes with the service: each served shard equals
        its serial counterpart, so the full cross-machine merge does."""
        reports = []
        serial_reports = []
        for shard_index in range(1, shard_count + 1):
            coordinator = Coordinator(
                [_SPEC],
                _workers(workers, None),
                shard=(shard_index, shard_count),
                lease_size=lease_size,
                cache_enabled=False,
            )
            reports.append(render_report(coordinator.run()))
            serial_reports.append(
                render_report(
                    run_units(
                        shard_units(_UNITS, shard_index, shard_count),
                        cache=None,
                    )
                )
            )
        assert reports == serial_reports


class TestPlanInvariance:
    """Any plan the sweep planner can produce reproduces serial bytes:
    probe outcome x lease composition x kernel are pure wall-clock
    levers."""

    @settings(max_examples=40, deadline=None)
    @given(
        workers=st.integers(min_value=1, max_value=4),
        lease_size=st.one_of(
            st.none(), st.integers(min_value=1, max_value=8)
        ),
    )
    def test_invariant_to_plan_shape(self, workers, lease_size):
        coordinator = Coordinator(
            [_SPEC],
            _workers(workers, None),
            lease_size=lease_size,
            cache_enabled=False,
        )
        assert render_report(coordinator.run()) == _SERIAL

    def test_warm_probe_replays_the_same_bytes_with_zero_dispatch(
        self, tmp_path
    ):
        store = tmp_path / "store"
        reports = []
        coordinators = []
        for _ in range(2):
            coordinator = Coordinator(
                [_SPEC],
                _workers(2, None),
                cache_enabled=True,
                cache_dir=str(store),
            )
            reports.append(render_report(coordinator.run()))
            coordinators.append(coordinator)
        assert reports[0] == reports[1] == _SERIAL
        assert coordinators[0].units_dispatched == len(_UNITS)
        assert coordinators[1].units_dispatched == 0

    def test_batch_kernel_matches_its_serial_bytes(self):
        serial = render_report(
            run_units(compile_scenario(_SPEC, kernel="batch"), cache=None)
        )
        coordinator = Coordinator(
            [_SPEC],
            _workers(2, None),
            kernel="batch",
            cache_enabled=False,
        )
        assert render_report(coordinator.run()) == serial


class TestRetryAccounting:
    def test_killed_worker_forces_a_retry_without_duplicates(self):
        # fail_after=1 with lease_size=2 dies mid-lease by
        # construction: one result of the two-unit lease is streamed,
        # the other position must be re-leased to a healthy worker.
        coordinator = Coordinator(
            [_SPEC],
            _workers(3, (0, 1)),
            lease_size=2,
            cache_enabled=False,
        )
        results = coordinator.run()
        assert render_report(results) == _SERIAL
        assert coordinator.leases_retried >= 1
        indices = [result.unit.index for result in results]
        assert indices == sorted(set(indices))  # no duplicates, no holes
