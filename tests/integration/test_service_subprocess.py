"""End-to-end tests for the distributed sweep service.

These drive the real ``repro-experiments`` CLI, whose workers are
forked from the coordinator, and byte-compare against the serial path.
One test kills a worker mid-lease with the built-in chaos hook to prove
retries preserve the bytes.  No CLI path spawns ``sweep-work`` where it
can fork, so :class:`TestSpawnedWorkers` drives the coordinator over
spawned ``sweep-work`` processes directly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.scenarios.execute import render_report, run_scenario
from repro.scenarios.registry import load_scenario
from repro.service.coordinator import Coordinator
from repro.service.transports import SubprocessTransport, sweep_work_argv

_SPEC_TEXT = json.dumps(
    {
        "name": "service-e2e",
        "description": "tiny spec for service subprocess tests",
        "cycles": 120,
        "base": {"processors": 2, "memories": 2, "memory_cycle_ratio": 2},
        "grid": [
            {"field": "request_probability", "values": [0.25, 0.5, 1.0]}
        ],
        "replications": {"count": 2, "base_seed": 7},
    }
)


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "service-e2e.json"
    path.write_text(_SPEC_TEXT, encoding="utf-8")
    return str(path)


def _run_cli(*argv: str, cache_dir=None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = str(cache_dir)
    process = subprocess.run(
        [sys.executable, "-m", "repro.experiments", *argv],
        capture_output=True,
        text=True,
        timeout=180,
        env=env,
    )
    assert process.returncode == 0, process.stderr
    return process


class TestScenarioWorkersFlag:
    def test_workers_flag_matches_serial_bytes(self, spec_file):
        serial = _run_cli("scenario", spec_file, "--no-cache")
        served = _run_cli(
            "scenario", spec_file, "--workers", "3", "--no-cache"
        )
        assert served.stdout == serial.stdout
        assert "[scenario service-e2e: 6 units]" in served.stderr

    def test_workers_flag_composes_with_shard(self, spec_file):
        serial = _run_cli(
            "scenario", spec_file, "--shard", "2/3", "--no-cache"
        )
        served = _run_cli(
            "scenario",
            spec_file,
            "--shard",
            "2/3",
            "--workers",
            "2",
            "--no-cache",
        )
        assert served.stdout == serial.stdout

    def test_chaos_killed_worker_does_not_change_the_bytes(self, spec_file):
        serial = _run_cli("scenario", spec_file, "--no-cache")
        served = _run_cli(
            "scenario",
            spec_file,
            "--workers",
            "3",
            "--lease-size",
            "2",
            "--chaos-kill-after",
            "1",
            "--no-cache",
        )
        assert served.stdout == serial.stdout

    def test_workers_share_one_concurrent_store(self, spec_file, tmp_path):
        """Cold run populates the sharded store; a warm rerun serves
        every unit from cache, and the store has no litter."""
        store = tmp_path / "store"
        cold = _run_cli(
            "scenario", spec_file, "--workers", "2", cache_dir=store
        )
        warm = _run_cli(
            "scenario", spec_file, "--workers", "2", cache_dir=store
        )
        assert warm.stdout == cold.stdout
        assert "6 from cache" in warm.stderr
        assert list(store.rglob("*.tmp")) == []
        assert list(store.glob("*.json")) == []
        assert list(store.glob("[0-9a-f][0-9a-f]/*.json"))

    def test_cache_stats_reports_probe_and_dispatch(
        self, spec_file, tmp_path
    ):
        """A cold ``scenario --workers --cache-stats`` run leases every
        unit (six equal-cost units over two workers: one lease each); a
        warm rerun resolves every unit in the pre-lease probe and issues
        no lease."""
        store = tmp_path / "store"
        cold = _run_cli(
            "scenario",
            spec_file,
            "--workers",
            "2",
            "--cache-stats",
            cache_dir=store,
        )
        assert (
            "[cache-stats probe_hits=0 dispatched=6 of 6 units "
            "leases=6 retried=0 " in cold.stderr
        )
        warm = _run_cli(
            "scenario",
            spec_file,
            "--workers",
            "2",
            "--cache-stats",
            cache_dir=store,
        )
        assert warm.stdout == cold.stdout
        assert (
            "[cache-stats probe_hits=6 dispatched=0 of 6 units "
            "leases=0 retried=0 " in warm.stderr
        )


class TestSpawnedWorkers:
    def test_spawned_peers_one_killed_match_serial_bytes(self, spec_file):
        """Peer w0 dies after its first result if it wins a lease before
        w1 has drained the queue; either way the bytes hold."""
        spec = load_scenario(spec_file)
        transports = [
            SubprocessTransport(sweep_work_argv(exit_after=1), name="w0"),
            SubprocessTransport(sweep_work_argv(), name="w1"),
        ]
        coordinator = Coordinator(
            [spec], transports, lease_size=2, cache_enabled=False
        )
        served = render_report(coordinator.run())
        assert served == render_report(run_scenario(spec))
