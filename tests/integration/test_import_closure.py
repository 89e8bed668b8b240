"""The CLI's coordinator never loads the heavy modules.

A ``repro-experiments scenario`` run pays for every module it imports
on each invocation.  The exact kernels need no numpy, and a
``--workers`` run forks its workers with ``os.fork``, so neither
``concurrent.futures`` nor ``multiprocessing`` belongs in the
coordinator; a batch run imports numpy and the batch kernel only inside
the forked workers.  The experiment runner's coordinator is held to the
same rule: loading the experiment registry imports no model module, so
the process that forks the workers runs no native (OpenBLAS) thread.
An exact-tier run also skips the reference machine, the event engine,
the batch kernel and its sketch, and the ``--workers`` coordinators skip
the reference machine and the batch kernel.  Each case runs the CLI in
a fresh interpreter and reads that process's ``sys.modules`` after
``main`` returns.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

HEAVY = ("concurrent.futures", "multiprocessing", "numpy")

REFERENCE_MACHINE = (
    "repro.bus.arbiter",
    "repro.bus.memory",
    "repro.bus.processor",
    "repro.bus.system",
    "repro.bus.trace",
)
"""The component-object machine: the tests' oracle, never a CLI path."""

BATCH_KERNEL = ("repro.bus.batch",)
"""The lockstep kernel: only a process that simulates a batch fleet
needs it, and a ``--workers`` coordinator leases its fleets out."""

EXACT_TIER_UNUSED = (
    *REFERENCE_MACHINE,
    *BATCH_KERNEL,
    "repro.des.engine",
    "repro.des.events",
    "repro.des.processes",
    "repro.des.replications",
    "repro.des.stats",
    "repro.metrics.sketch",
)
"""Modules an exact-tier ``scenario`` run never calls.  Each CLI
process compiles every module it imports from source, so package
re-exports load on first use (``repro._lazy``)."""

_DRIVER = """\
import json, sys
from repro.experiments.runner import main
code = main(sys.argv[2:])
with open(sys.argv[1], "w") as handle:
    json.dump({"code": code, "modules": sorted(sys.modules)}, handle)
"""


@pytest.mark.parametrize(
    "argv,first_line,unused",
    [
        (
            ["scenario", "latency-tail", "--fast", "--cycles", "1"],
            "unit 000000 ",
            EXACT_TIER_UNUSED,
        ),
        (
            ["scenario", "table4", "--kernel", "batch", "--workers", "2",
             "--cycles", "1"],
            "unit 000000 ",
            (*REFERENCE_MACHINE, *BATCH_KERNEL),
        ),
        (
            ["figure5", "--fast", "--workers", "2"],
            "Figure 5 - ",
            (*REFERENCE_MACHINE, *BATCH_KERNEL),
        ),
    ],
    ids=["latency-tail-fast", "table4-batch-workers-2", "figure5-workers-2"],
)
def test_coordinator_skips_heavy_modules(argv, first_line, unused, tmp_path):
    report = tmp_path / "modules.json"
    env = dict(os.environ)
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    completed = subprocess.run(
        [sys.executable, "-c", _DRIVER, str(report), *argv, "--no-cache"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.startswith(first_line)
    result = json.loads(report.read_text())
    assert result["code"] == 0
    loaded = [name for name in (*HEAVY, *unused) if name in result["modules"]]
    assert loaded == []
