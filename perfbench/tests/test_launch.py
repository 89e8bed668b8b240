"""A stalled invocation is stopped, together with what it spawned."""

import os
import signal
import sys

import pytest

import launch

STALL = """
import subprocess, sys, time
child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
print(child.pid, flush=True)
time.sleep(60)
"""


def test_timeout_stops_the_invocation_and_its_children(tmp_path):
    result = launch.launch(
        [sys.executable, "-c", STALL], dict(os.environ), tmp_path, timeout=2.0
    )
    assert result.returncode is None
    assert result.wall_s < 10
    child = int(result.stdout.split()[0])
    with pytest.raises(ProcessLookupError):
        os.kill(child, signal.SIGKILL)


def test_exit_code_and_output_are_reported(tmp_path):
    result = launch.launch(
        [sys.executable, "-c", "import sys; print('out'); sys.exit(3)"],
        dict(os.environ),
        tmp_path,
        timeout=30.0,
    )
    assert result.returncode == 3 and result.stdout == "out\n"
    assert result.cpu_s > 0 and result.peak_rss_mb > 0
