"""Fork-safety rules of the sweep service's local workers.

``scenario --workers N`` forks its workers from the coordinator
(:func:`repro.service.transports.fork_workers`).  Each rule that makes
forking safe has a test here: pending output is flushed before forking,
every child is forked before any reader thread starts, no child holds a
sibling's input open, and children leave only through ``os._exit`` and
are all reaped.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

import pytest

from repro.parallel.cache import ResultCache
from repro.scenarios.execute import render_report, run_scenario
from repro.scenarios.spec import GridAxis, ReplicationPlan, ScenarioSpec
from repro.service.transports import fork_workers, os_thread_count

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="forked workers need os.fork"
)

_SPEC = ScenarioSpec(
    name="forked-workers",
    base={"processors": 2, "memories": 2, "memory_cycle_ratio": 2},
    grid=(GridAxis("request_probability", (0.25, 0.5, 1.0)),),
    cycles=120,
    plan=ReplicationPlan(replications=2, base_seed=7),
    description="tiny spec for fork-safety tests",
)

_SCRIPT = """
import os
from repro.scenarios.execute import render_report, run_scenario
from repro.scenarios.spec import GridAxis, ReplicationPlan, ScenarioSpec

spec = ScenarioSpec(
    name="forked-workers",
    base={"processors": 2, "memories": 2, "memory_cycle_ratio": 2},
    grid=(GridAxis("request_probability", (0.25, 0.5, 1.0)),),
    cycles=120,
    plan=ReplicationPlan(replications=2, base_seed=7),
)
print("pending parent output")
print(render_report(
    run_scenario(spec, workers=2, lease_size=2, chaos_kill_after=1)
))
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("every child reaped")
"""


def test_pending_stdout_once_children_never_return_and_all_reaped():
    """One run in a fresh interpreter whose stdout is a block-buffered
    pipe, so the first line is still buffered when the workers fork.  Worker 0 is
    chaos-killed mid-lease.  A child that inherited the buffer would
    write the line again when it flushes on exit; a child that returned
    into the script would print the report again; an unreaped child
    would make ``waitpid`` return instead of raising."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr
    serial = render_report(run_scenario(_SPEC))
    assert completed.stdout == (
        f"pending parent output\n{serial}\nevery child reaped\n"
    )


def test_every_child_forks_before_any_reader_thread(monkeypatch):
    real_fork = os.fork
    threads_at_fork = []

    def counting_fork():
        threads_at_fork.append(threading.active_count())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    before = threading.active_count()
    transports = fork_workers(3)
    try:
        assert threads_at_fork == [before] * 3
        assert threading.active_count() == before + 3
    finally:
        for transport in transports:
            transport.close()
    assert threading.active_count() == before


def test_a_sibling_never_holds_another_workers_input_open():
    """Worker 0 exits on EOF of its input while worker 1 still runs.

    Had worker 1 inherited the coordinator's end of worker 0's input,
    worker 0 would never see EOF and closing it would wait out the
    5 s grace period and kill it."""
    first, second = fork_workers(2)
    try:
        started = time.monotonic()
        first.close()
        assert time.monotonic() - started < 2.5
        assert second.alive()
    finally:
        second.close()
    assert not second.alive()


def test_a_fully_warm_sweep_forks_no_worker(tmp_path, monkeypatch):
    cache = ResultCache(cache_dir=tmp_path / "store")
    cold = render_report(run_scenario(_SPEC, cache=cache, workers=2))

    def no_fork():
        raise AssertionError("a warm sweep must not fork")

    monkeypatch.setattr(os, "fork", no_fork)
    telemetry: dict = {}
    warm = run_scenario(_SPEC, cache=cache, workers=2, telemetry=telemetry)
    assert render_report(warm) == cold
    assert telemetry["dispatched"] == 0


def test_a_threaded_coordinator_spawns_its_workers(monkeypatch):
    """Forking beside a running thread is unsafe, so the local workers
    start as ``sweep-work`` processes instead; the bytes hold."""

    def no_fork():
        raise AssertionError("a threaded coordinator must not fork")

    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    bystander = threading.Thread(target=release.wait)
    bystander.start()
    try:
        served = render_report(run_scenario(_SPEC, workers=2))
    finally:
        release.set()
        bystander.join()
    assert served == render_report(run_scenario(_SPEC))


_NATIVE_THREAD_SCRIPT = """
import sys, threading
if sys.argv[1] == "numpy":
    import numpy  # noqa: F401 - OpenBLAS starts its thread pool
else:
    import _thread
    hold = _thread.allocate_lock()
    hold.acquire()
    _thread.start_new_thread(hold.acquire, ())
from repro.service.transports import LocalWorkers, os_thread_count
print(os_thread_count(), threading.active_count())
transports = LocalWorkers(2).start(2)
print(*[type(transport).__name__ for transport in transports])
for transport in transports:
    transport.close()
"""

_THREAD_CAPS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize("source", ["numpy", "raw-thread"])
def test_a_native_thread_sends_the_workers_to_spawn(source):
    """``threading.active_count()`` misses threads started outside the
    threading module: the OpenBLAS pool ``import numpy`` starts, or a
    bare ``_thread`` thread.  The check counts OS threads, so a
    coordinator running one spawns ``sweep-work`` workers."""
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_CAPS}
    completed = subprocess.run(
        [sys.executable, "-c", _NATIVE_THREAD_SCRIPT, source],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr
    counts, kinds = completed.stdout.splitlines()
    os_threads, python_threads = map(int, counts.split())
    if os_threads == 1:
        pytest.skip("numpy started no thread here (one CPU or serial BLAS)")
    assert python_threads == 1
    assert kinds.split() == ["SubprocessTransport"] * 2


def test_numpy_starts_no_thread_in_the_suite():
    """The suite pins OpenBLAS to one thread (``tests/conftest.py``), so
    in-process ``--workers`` tests fork whether or not numpy is loaded."""
    import numpy  # noqa: F401

    assert os_thread_count() == threading.active_count()


def test_workers_key_the_store_on_the_callers_version_tag(tmp_path):
    """A cache built with its own version tag means the same entries
    with and without workers: the workers' writes serve a serial rerun,
    and a serial run's writes leave a worker sweep nothing to do."""
    cold: dict = {}
    cache = ResultCache(cache_dir=tmp_path / "store", version_tag="t")
    served = render_report(
        run_scenario(_SPEC, cache=cache, workers=2, telemetry=cold)
    )
    assert cold["dispatched"] == 6
    rerun = run_scenario(_SPEC, cache=ResultCache(tmp_path / "store", "t"))
    assert all(result.cached for result in rerun)
    assert render_report(rerun) == served

    cache = ResultCache(cache_dir=tmp_path / "other", version_tag="t")
    serial = render_report(run_scenario(_SPEC, cache=cache))
    warm: dict = {}
    served = run_scenario(_SPEC, cache=cache, workers=2, telemetry=warm)
    assert render_report(served) == serial
    assert warm["dispatched"] == 0


@pytest.mark.parametrize(
    "workers, lease_size, forked", [(8, 2, 3), (8, 6, 2), (1, 6, 1)]
)
def test_one_worker_per_lease_and_a_spare_beside_a_lone_lease(
    monkeypatch, workers, lease_size, forked
):
    real_fork = os.fork
    forks = []

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    results = run_scenario(_SPEC, workers=workers, lease_size=lease_size)
    assert len(forks) == forked
    assert render_report(results) == render_report(run_scenario(_SPEC))


@pytest.mark.parametrize("chaos_kill_after", [None, 1])
def test_the_coordinator_wakes_when_a_message_arrives(
    monkeypatch, chaos_kill_after
):
    """The coordinator waits on its forked workers' messages, not on a
    fixed poll: with a 30 s poll interval, the handshake, the leases and
    their results still flow at once, a worker killed mid-lease is
    retired as soon as its output ends, and the bytes hold."""
    from repro.service import coordinator

    monkeypatch.setattr(coordinator, "POLL_INTERVAL", 30.0)
    real_fork = os.fork
    forks = []

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    started = time.monotonic()
    served = render_report(
        run_scenario(
            _SPEC, workers=2, lease_size=2, chaos_kill_after=chaos_kill_after
        )
    )
    elapsed = time.monotonic() - started
    assert len(forks) == 2
    assert elapsed < 10.0
    assert served == render_report(run_scenario(_SPEC))
