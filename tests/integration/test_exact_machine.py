"""The exact chain of the machine as the kernels' independent oracle.

:mod:`repro.markov.machine` solves the synchronous machine's own
discrete-time chain for tiny configurations, written from the machine's
rules and sharing no code with any simulator.  This module holds:

* the chain module itself to its contract: no import from
  :mod:`repro.bus`, a loud state cap, and the values a first prototype
  measured;
* the fast and batch kernels to the chain (slow-marked): over a fleet
  of tiny configurations covering both priorities, both tie-breaks,
  buffering at depths 1 to 3, partial and per-processor load, hot-spot
  targets and geometric access times, each kernel's mean EBW and mean
  latency over seeded replications lie within ``Z`` standard errors of
  the exact value, the standard error taken from the replications'
  spread;
* the one-module boundary on the reference machine, fast and batch,
  where throughput is deterministic up to the window's edges;
* the paper's Section 3.1.1 and Section 4 models against the chain over
  the tractable grid, with the error band they show.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

import pytest

from repro.bus.system import MultiplexedBusSystem
from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError
from repro.core.policy import Priority, TieBreak
from repro.engine.base import EvalRequest
from repro.markov import machine
from repro.markov.machine import solve_machine
from repro.parallel.fleet import run_fleet
from repro.parallel.workers import run_case
from repro.workloads.spec import HotSpotWorkload, RequestMixWorkload

Z = 4.0
"""Standard errors a kernel's replication mean may sit from the exact
value.  The runs are seeded, so the gate is deterministic."""

SEEDS = tuple(range(1, 41))
CYCLES = 2_500
"""Many short replications rather than few long ones: the batch kernel
advances a whole fleet for the price of one row, and 40 replications
give the spread-based standard error 39 degrees of freedom, so a
correct kernel lands beyond ``Z`` about once in 3,000 checks."""

PROCESSORS, MEMORIES = Priority.PROCESSORS, Priority.MEMORIES
FCFS = TieBreak.FCFS

CHAIN_FLEET = [
    # Unbuffered.
    (SystemConfig(3, 3, 2), None, False),
    (SystemConfig(3, 3, 2, priority=MEMORIES), None, False),
    (SystemConfig(4, 3, 2, tie_break=FCFS), None, False),
    (SystemConfig(3, 3, 3, priority=MEMORIES, tie_break=FCFS), None, False),
    (SystemConfig(3, 3, 2, request_probability=0.5), None, False),
    (SystemConfig(3, 2, 2), RequestMixWorkload((1.0, 0.5, 0.3)), False),
    (SystemConfig(3, 3, 2), HotSpotWorkload(0.5), False),
    (SystemConfig(3, 3, 3), None, True),
    (
        SystemConfig(
            3, 2, 3, request_probability=0.7, priority=MEMORIES,
            tie_break=FCFS,
        ),
        None,
        True,
    ),
    (SystemConfig(4, 4, 3), None, False),
    # Buffered.
    (SystemConfig(3, 3, 2, buffered=True), None, False),
    (SystemConfig(3, 3, 3, buffered=True, priority=MEMORIES), None, False),
    (SystemConfig(3, 2, 3, buffered=True, buffer_depth=2), None, False),
    (
        SystemConfig(4, 2, 3, buffered=True, buffer_depth=2, tie_break=FCFS),
        None,
        False,
    ),
    (
        SystemConfig(
            3, 2, 3, buffered=True, buffer_depth=3, priority=MEMORIES,
            tie_break=FCFS,
        ),
        None,
        False,
    ),
    (
        SystemConfig(3, 2, 2, buffered=True, request_probability=0.6),
        None,
        False,
    ),
    (SystemConfig(3, 3, 2, buffered=True), HotSpotWorkload(0.4, 1), False),
    (SystemConfig(3, 2, 3, buffered=True), None, True),
    (
        SystemConfig(
            3, 3, 3, buffered=True, buffer_depth=2, priority=MEMORIES,
        ),
        RequestMixWorkload((0.9, 0.6, 1.0)),
        True,
    ),
    (
        SystemConfig(
            3, 2, 2, buffered=True, buffer_depth=2, request_probability=0.5,
            tie_break=FCFS,
        ),
        None,
        False,
    ),
]
"""``(config, workload, geometric access times)`` for every oracle
case; ``None`` is the uniform workload."""


def _case_id(case) -> str:
    config, workload, geometric = case
    parts = [config.describe(), config.tie_break.value]
    if workload is not None:
        parts.append(workload.describe())
    if geometric:
        parts.append("geometric")
    return " ".join(parts)


def _exact(config, workload=None, geometric=False):
    """The chain's solution for one oracle case."""
    kwargs = {}
    if isinstance(workload, HotSpotWorkload):
        kwargs.update(
            hot_fraction=workload.hot_fraction, hot_module=workload.hot_module
        )
    elif workload is not None:
        kwargs["request_probabilities"] = workload.request_probabilities(config)
    return solve_machine(config, geometric_access_times=geometric, **kwargs)


def _requests(case, kernel):
    config, workload, geometric = case
    return [
        EvalRequest(
            config,
            workload,
            cycles=CYCLES,
            seed=seed,
            metrics=("latency",),
            kernel=kernel,
            geometric_access_times=geometric,
        )
        for seed in SEEDS
    ]


def _assert_within(label, values, exact):
    mean = statistics.fmean(values)
    error = statistics.stdev(values) / len(values) ** 0.5
    assert abs(mean - exact) <= Z * error, (
        f"{label}: replication mean {mean:.6f} is "
        f"{abs(mean - exact) / error if error else float('inf'):.1f} "
        f"standard errors ({error:.6f}) from the exact {exact:.6f}"
    )


def _assert_matches_exact(case, results):
    exact = _exact(*case)
    _assert_within("EBW", [result.ebw for result in results], exact.ebw)
    _assert_within(
        "lat_mean",
        [result.latency.total.mean for result in results],
        exact.mean_latency,
    )


@pytest.fixture(scope="module")
def batch_results():
    """Every oracle case's batch rows, run as one :func:`run_fleet` call."""
    requests = [
        request for case in CHAIN_FLEET for request in _requests(case, "batch")
    ]
    results = run_fleet(requests)
    size = len(SEEDS)
    return [
        results[index * size : (index + 1) * size]
        for index in range(len(CHAIN_FLEET))
    ]


@pytest.mark.slow
class TestKernelsAgainstChain:
    @pytest.mark.parametrize("case", CHAIN_FLEET, ids=_case_id)
    def test_fast_kernel(self, case):
        _assert_matches_exact(
            case, [run_case(request) for request in _requests(case, "fast")]
        )

    @pytest.mark.parametrize(
        "index", range(len(CHAIN_FLEET)), ids=[_case_id(c) for c in CHAIN_FLEET]
    )
    def test_batch_kernel(self, index, batch_results):
        _assert_matches_exact(CHAIN_FLEET[index], batch_results[index])


class TestChainModule:
    def test_imports_nothing_from_the_simulators(self):
        script = (
            "import json, sys\n"
            "import repro.markov.machine\n"
            "print(json.dumps(sorted(m for m in sys.modules"
            " if m.startswith('repro.bus'))))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        )
        assert json.loads(completed.stdout) == []

    def test_over_cap_configuration_is_rejected(self, monkeypatch):
        monkeypatch.setattr(machine, "_MAX_STATES", 100)
        with pytest.raises(ConfigurationError, match="more than 100 reachable"):
            solve_machine(SystemConfig(3, 3, 2))

    @pytest.mark.parametrize(
        "config, ebw",
        [
            (SystemConfig(3, 3, 2), 1.8121),
            (SystemConfig(4, 4, 3), 2.3001),
            (SystemConfig(3, 3, 2, priority=MEMORIES), 1.6226),
            (SystemConfig(4, 4, 3, priority=MEMORIES), 1.9793),
        ],
        ids=lambda value: getattr(value, "describe", lambda: value)(),
    )
    def test_reproduces_the_prototype_values(self, config, ebw):
        assert round(solve_machine(config).ebw, 4) == ebw

    def test_rejects_inconsistent_workloads(self):
        config = SystemConfig(2, 2, 2)
        with pytest.raises(ConfigurationError, match="2 processors"):
            solve_machine(config, request_probabilities=(1.0,))
        with pytest.raises(ConfigurationError, match="hot_module"):
            solve_machine(config, hot_fraction=0.5, hot_module=2)

    def test_measures_agree_with_each_other(self):
        solution = solve_machine(SystemConfig(3, 2, 3, buffered=True))
        assert solution.bus_utilization == pytest.approx(
            2 * solution.ebw / 5
        )
        # With p = 1 every processor always has a request outstanding,
        # so Little's law gives n over the completions per cycle.
        assert solution.mean_latency == pytest.approx(3 * 5 / solution.ebw)


# ----------------------------------------------------------------------
# The one-module boundary.
# ----------------------------------------------------------------------
BOUNDARY_CYCLES = 3_000

BOUNDARY = [
    SystemConfig(n, 1, r, priority=priority, buffered=buffered)
    for buffered in (False, True)
    for priority in (PROCESSORS, MEMORIES)
    for n in (1, 2, 3)
    for r in (1, 2)
]
"""m = 1: one module serves every request, so throughput is fixed by the
machine's timing alone and every run reproduces it up to the window's
edges."""


def _boundary_runs(config):
    reference = MultiplexedBusSystem(config, seed=5).run(BOUNDARY_CYCLES)
    fast, batch = (
        run_case(
            EvalRequest(config, cycles=BOUNDARY_CYCLES, seed=5, kernel=kernel)
        )
        for kernel in ("fast", "batch")
    )
    return {"reference": reference, "fast": fast, "batch": batch}


@pytest.mark.parametrize("config", BOUNDARY, ids=lambda c: c.describe())
def test_one_module_boundary_matches_the_chain(config):
    exact = solve_machine(config)
    # One completion more or less at either end of the window moves
    # EBW by (r + 2) / cycles; every request in flight at an edge moves
    # the window's latency total by at most its own latency.
    ebw_edge = 2 * config.processor_cycle / BOUNDARY_CYCLES
    for kernel, result in _boundary_runs(config).items():
        assert abs(result.ebw - exact.ebw) <= ebw_edge, kernel
        latency_edge = (
            2 * config.processors * exact.mean_latency / result.completions
        )
        assert abs(result.mean_latency - exact.mean_latency) <= latency_edge, (
            kernel
        )


def test_one_module_buffered_values():
    """The buffered r = 1 values the closed form got wrong: a stalled
    access reaches the output stage only on the tick after its slot
    frees, so three processors under processor priority get 1.0."""

    def ebw(n, priority):
        config = SystemConfig(n, 1, 1, priority=priority, buffered=True)
        return solve_machine(config).ebw

    assert ebw(2, PROCESSORS) == pytest.approx(1.5)
    assert ebw(2, MEMORIES) == pytest.approx(1.5)
    assert ebw(3, PROCESSORS) == pytest.approx(1.0)
    assert ebw(3, MEMORIES) == pytest.approx(1.5)


# ----------------------------------------------------------------------
# The paper's models against the chain.
# ----------------------------------------------------------------------
def _paper_model_errors(priority, model):
    errors = {}
    for n in range(1, 5):
        for m in range(1, 5):
            for r in range(1, 4):
                config = SystemConfig(n, m, r, priority=priority)
                exact = solve_machine(config).ebw
                errors[(n, m, r)] = (model(config).ebw - exact) / exact
    return errors


def test_section_3_1_1_model_against_the_chain():
    """Priority to memories, unbuffered, random ties, n, m <= 4, r <= 3:
    the Section 3.1.1 chain is exact at n = 1 or m = 1 and otherwise
    0.5% to 2.8% low (worst: n = m = 2, r = 1)."""
    from repro.models.exact_memory_priority import exact_memory_priority_ebw

    errors = _paper_model_errors(MEMORIES, exact_memory_priority_ebw)
    for (n, m, r), error in errors.items():
        if n == 1 or m == 1:
            assert abs(error) < 1e-9, (n, m, r)
        else:
            assert -0.028 <= error <= -0.005, (n, m, r, error)
    assert min(errors.values()) == pytest.approx(-0.0278, abs=1e-4)


def test_section_4_model_against_the_chain():
    """Priority to processors, same grid: the Section 4 reduced chain is
    exact at n = 1 or m = 1 and otherwise within 4.1% low and 1.4% high
    (worst low: n = 3, m = 4, r = 3; worst high: n = 4, m = 2, r = 1)."""
    from repro.models.processor_priority import processor_priority_ebw

    errors = _paper_model_errors(PROCESSORS, processor_priority_ebw)
    for (n, m, r), error in errors.items():
        if n == 1 or m == 1:
            assert abs(error) < 1e-9, (n, m, r)
        else:
            assert -0.041 <= error <= 0.014, (n, m, r, error)
    assert min(errors.values()) == pytest.approx(-0.0409, abs=1e-4)
    assert max(errors.values()) == pytest.approx(0.0138, abs=1e-4)
