"""Golden pin on every counter the batch kernel reports, row by row.

The scenario goldens print EBW and latency columns only, so a slip in
the kernel's busy accounting (``memory_busy_cycles``), its transfer
counters or its batch-means windows (``batch_ebws``) would pass them
unnoticed.  This file runs a fixed set of packed fleets - both loops,
both priorities and tie-breaks, buffer depths 1-3, partial and
per-processor load, hot-spot and trace targets, geometric access times,
latency collection on and off - straight through
:class:`~repro.bus.batch.BatchBusKernel` and compares every row's
counters, batch means and latency summaries with
``tests/golden/batch_counters.txt`` byte for byte.

Regenerate after an *intentional* change to the batch kernel's numbers
(which also needs an engine-token bump) with::

    REPRO_REGENERATE_GOLDENS=1 python -m pytest \
        tests/integration/test_batch_counters.py -q
"""

from __future__ import annotations

import os
import pathlib
import random

from repro.bus.batch import BatchBusKernel
from repro.core.config import SystemConfig
from repro.core.policy import Priority, TieBreak
from repro.workloads.spec import (
    HotSpotWorkload,
    RequestMixWorkload,
    TraceWorkload,
)

GOLDEN_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "golden"
    / "batch_counters.txt"
)
CYCLES = 600
"""Measured cycles per fleet; warm-up is the kernel's default share."""

_MIXES = (
    ("uniform",),
    ("uniform", "hot_spot", "trace"),
    ("uniform", "partial", "mix", "hot_spot", "trace"),
)
"""Row workload kinds per fleet variant: plain uniform rows at p = 1
(no hot-spot or trace arithmetic), every target kind at p = 1, and
every kind with partial and per-processor load."""


def _row(rng: random.Random, kind: str, buffered: bool, shape: dict):
    """One ``(config, seed, workload)`` row of the given workload kind."""
    processors = rng.randint(1, 5)
    memories = rng.randint(1, 5)
    config = SystemConfig(
        processors,
        memories,
        rng.randint(1, 4),
        request_probability=0.6 if kind == "partial" else 1.0,
        buffered=buffered,
        buffer_depth=rng.randint(1, 3) if buffered else 1,
        **shape,
    )
    if kind == "mix":
        workload = RequestMixWorkload(
            tuple(rng.choice((0.3, 0.8, 1.0)) for _ in range(processors))
        )
    elif kind == "hot_spot":
        workload = HotSpotWorkload(
            hot_fraction=rng.choice((0.0, 0.4, 1.0)),
            hot_module=rng.randrange(memories),
        )
    elif kind == "trace":
        length = rng.randint(1, 4)
        workload = TraceWorkload(
            tuple(
                tuple(rng.randrange(memories) for _ in range(length))
                for _ in range(processors)
            )
        )
    else:
        workload = None
    return config, rng.randrange(2**31), workload


def golden_fleets():
    """96 packed fleets: every arbitration branch and buffering mode,
    each with and without geometric access and latency collection, in
    each of the :data:`_MIXES`."""
    rng = random.Random(1985)
    fleets = []
    for buffered in (False, True):
        for priority in Priority:
            for tie_break in TieBreak:
                for geometric in (False, True):
                    for collect in (False, True):
                        for mix in _MIXES:
                            shape = dict(priority=priority, tie_break=tie_break)
                            count = rng.randint(3, 7)
                            kinds = [
                                mix[index % len(mix)] for index in range(count)
                            ]
                            rows = [
                                _row(rng, kind, buffered, shape)
                                for kind in kinds
                            ]
                            fleets.append((rows, geometric, collect))
    return fleets


def _summary(summary) -> str:
    if not summary.count:
        return "0"
    return ",".join(
        str(value)
        for value in (
            summary.count,
            summary.total,
            summary.minimum,
            summary.maximum,
            summary.p50,
            summary.p90,
            summary.p99,
        )
    )


def generate_counters() -> str:
    lines = []
    for index, (rows, geometric, collect) in enumerate(golden_fleets()):
        configs = [config for config, _, _ in rows]
        kernel = BatchBusKernel(
            configs,
            [seed for _, seed, _ in rows],
            targets=[
                None if workload is None else workload.build_targets(config, 0)
                for config, _, workload in rows
            ],
            request_probabilities=[
                None
                if workload is None
                else workload.request_probabilities(config)
                for config, _, workload in rows
            ],
            collect_latency=collect,
            geometric_access_times=geometric,
        )
        base = configs[0]
        lines.append(
            f"== fleet {index:02d} buffered={base.buffered} "
            f"priority={base.priority.value} tie={base.tie_break.value} "
            f"geometric={geometric} latency={collect}"
        )
        for (config, seed, workload), result in zip(rows, kernel.run(CYCLES)):
            fields = [
                f"n={config.processors} m={config.memories} "
                f"r={config.memory_cycle_ratio} depth={config.buffer_depth} "
                f"p={config.request_probability:g}",
                "uniform" if workload is None else workload.describe(),
                f"seed={seed}",
                f"completions={result.completions}",
                f"requests={result.request_transfers}",
                f"responses={result.response_transfers}",
                f"busy={result.memory_busy_cycles}",
                f"latency={result.total_latency}",
                "batches=" + ",".join(repr(v) for v in result.batch_ebws),
            ]
            if result.latency is not None:
                fields += [
                    f"wait={_summary(result.latency.wait)}",
                    f"service={_summary(result.latency.service)}",
                    f"total={_summary(result.latency.total)}",
                ]
            lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def test_batch_counters_match_golden():
    actual = generate_counters()
    if os.environ.get("REPRO_REGENERATE_GOLDENS"):
        GOLDEN_PATH.write_text(actual, encoding="utf-8")
    expected = GOLDEN_PATH.read_text(encoding="utf-8")
    changed = [
        f"{want!r} -> {got!r}"
        for want, got in zip(expected.splitlines(), actual.splitlines())
        if want != got
    ]
    assert actual == expected, (
        "batch counters diverge from tests/golden/batch_counters.txt "
        f"({len(changed)} line(s)); first: {changed[:1]}"
    )
