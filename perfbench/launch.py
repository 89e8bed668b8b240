"""Launch one CLI invocation and measure it from outside.

Each invocation runs in its own session (process group) so a timeout
can stop the CLI together with any sweep workers it spawned.  Resource
use comes from ``wait4``: the kernel folds in every descendant the CLI
reaped, so CPU time covers the sweep workers too and the peak RSS is
that of the largest process.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import signal
import subprocess
import threading
import time


@dataclasses.dataclass
class Invocation:
    argv: list[str]
    returncode: int | None
    """``None`` when the invocation was stopped at its timeout."""
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def program_env(checkout: pathlib.Path) -> dict[str, str]:
    """The caller's environment, minus any inherited result store."""
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("REPRO_CACHE_DIR", "PYTHONPATH")
    }
    env["PYTHONPATH"] = str(checkout / "src")
    return env


def _stop_group(pgid: int, timed_out: threading.Event) -> None:
    timed_out.set()
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group_gone(pgid: int, limit: float = 5.0) -> None:
    """Kill and wait out any process of the group the CLI left behind."""
    deadline = time.monotonic() + limit
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def launch(
    argv: list[str],
    env: dict[str, str],
    workdir: pathlib.Path,
    timeout: float,
) -> Invocation:
    """Run ``argv`` to completion (or ``timeout``) and measure it."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    timed_out = threading.Event()
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            env=env,
            start_new_session=True,
        )
        timer = threading.Timer(timeout, _stop_group, (proc.pid, timed_out))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _wait_group_gone(proc.pid)
    return Invocation(
        argv=argv,
        returncode=None if timed_out.is_set() else proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
    )


def store_state(store: pathlib.Path) -> tuple[int, int]:
    """``(entries, staging files)`` left in a result store."""
    entries = sum(1 for _ in store.rglob("*.json"))
    litter = sum(1 for _ in store.rglob("*.tmp"))
    return entries, litter
