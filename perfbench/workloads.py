"""The benchmark's workloads and the settings they share.

Every workload is a fixed list of ``repro-experiments scenario``
invocations - the CLI users run - at one shared cycle count, with the
benchmark's seed passed through ``--seed`` and nothing else derived
from it.  ``BENCHMARK.json`` lists the two that regression checks run;
``tables-fast`` and ``tables-batch`` stay runnable by name.
"""

from __future__ import annotations

import dataclasses

CYCLES = 2000
"""Simulated bus cycles per unit, the same for every workload.  Long
enough that the cycle loops carry half or more of each pass, short
enough that a measurement window holds many passes of the slowest
workload."""

SETUP_CYCLES = 1
"""The set-up pass: the same invocations with (almost) no simulation."""

DEFAULT_SEED = 1985
"""The paper's seed; output digests are pinned at this seed."""


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenarios: tuple[tuple[str, int], ...]
    """``(scenario, compiled units)`` per invocation, in run order."""
    flags: tuple[str, ...]
    latency: bool = False
    """Whether every unit line carries the latency percentile columns."""
    pinned: bool = False
    """Exact-kernel bytes: a digest change at the default seed fails."""
    same_as: str | None = None
    """Workload whose stdout this one must reproduce byte for byte."""


TABLES = (("table3a", 42), ("table4", 70))

WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "tables-fast",
            "paper Tables 3(a)+4 on the exact fast kernel: pinned bytes, "
            "no numpy, batch, service or latency code - the no-change "
            "control",
            TABLES,
            ("--fast",),
            pinned=True,
        ),
        Workload(
            "tables-batch",
            "the same sweep as two padded batch super-fleets of 42 and "
            "70 rows: the batch kernel's per-cycle cost on large fleets",
            TABLES,
            ("--kernel", "batch"),
        ),
        Workload(
            "tables-batch-w2",
            "paper Tables 3(a)+4 on the batch kernel through the sweep "
            "service with 2 workers: planner, leases, worker spawn and "
            "numpy import, small fleets",
            TABLES,
            ("--kernel", "batch", "--workers", "2"),
            same_as="tables-batch",
        ),
        Workload(
            "latency-fast",
            "latency-tail on the exact fast kernel: fast cycle loop, "
            "latency collection, p < 1, 3 replications, percentile columns",
            (("latency-tail", 48),),
            ("--fast",),
            latency=True,
            pinned=True,
        ),
    )
}
