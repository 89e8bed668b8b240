"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.bus.system import MultiplexedBusSystem
from repro.core.config import SystemConfig
from repro.core.policy import Priority

# The sweep service forks its workers only from a process with one OS
# thread (repro.service.transports.os_thread_count), and OpenBLAS
# starts a thread pool when numpy loads.  Without this, every in-process
# ``--workers`` test after the first numpy import would spawn its
# workers, where no monkeypatch reaches them.  Set before any test
# module loads; nothing imported above loads numpy.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

# Property tests run simulations and chain solves; allow them time but
# keep example counts bounded so the suite stays fast.
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Keep every test's result cache away from the user's home cache.

    The experiment runner caches by default; without this, tests that
    invoke ``main()`` would write to (and read stale entries from)
    ``~/.cache/repro-single-bus``.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "result-cache"))


def _run_on_reference_machine(request):
    """:func:`repro.parallel.workers.run_case` on the reference machine.

    Builds the request's sampler exactly as ``run_case`` does, then runs
    :class:`MultiplexedBusSystem`, the oracle the fast loop is held to.
    """
    targets = None
    request_probabilities = None
    workload = request.workload
    if workload is not None:
        targets = workload.build_targets(request.config, request.seed)
        request_probabilities = workload.request_probabilities(request.config)
    system = MultiplexedBusSystem(
        request.config,
        seed=request.seed,
        targets=targets,
        request_probabilities=request_probabilities,
        collect_latency=request.collects_latency,
    )
    return system.run(request.cycles, warmup=request.warmup)


@pytest.fixture(scope="session")
def run_on_reference_machine():
    """An ``EvalRequest -> SimulationResult`` runner on the oracle."""
    return _run_on_reference_machine


@pytest.fixture
def small_config() -> SystemConfig:
    """A tiny system for fast unit-level simulations."""
    return SystemConfig(
        processors=2,
        memories=2,
        memory_cycle_ratio=2,
        priority=Priority.PROCESSORS,
    )


@pytest.fixture
def paper_config() -> SystemConfig:
    """The paper's favourite running example: 8 processors, 16 modules."""
    return SystemConfig(
        processors=8,
        memories=16,
        memory_cycle_ratio=8,
        priority=Priority.PROCESSORS,
    )


@pytest.fixture
def buffered_config() -> SystemConfig:
    """A Section 6 buffered system."""
    return SystemConfig(
        processors=8,
        memories=8,
        memory_cycle_ratio=8,
        priority=Priority.PROCESSORS,
        buffered=True,
    )
