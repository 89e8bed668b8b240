"""Worker transports: how lease-protocol messages reach a worker.

The coordinator speaks to abstract :class:`WorkerTransport` endpoints -
``send`` a message, ``receive`` whatever has arrived, ``alive`` to
detect death - and never learns how bytes move.  Two implementations
ship:

* :class:`PipeTransport` carries the protocol as newline-delimited JSON
  over a pipe pair to a local peer process (a daemon reader thread keeps
  receipt non-blocking).  :func:`fork_workers` forks the peers from the
  already-imported coordinator, so they skip interpreter start, imports
  and the source digest; :class:`SubprocessTransport` spawns
  ``repro-experiments sweep-work`` instead, and because the bytes are
  plain JSON lines, an ssh or batch-queue transport is the same class
  pointed at a different argv.  :class:`LocalWorkers` forks wherever
  ``os.fork`` exists and the process runs no other thread, native
  threads included (:func:`os_thread_count`), and spawns otherwise (a
  Jupyter kernel, for one, runs threads).
* :class:`LoopbackTransport` runs a real :class:`WorkerSession`
  in-process and synchronously.  It exists for tests: it makes
  coordinator scheduling deterministic and lets a "worker" be killed
  after exactly k results (``fail_after_results``), which is how the
  lease-retry property tests explore crash timings far faster than
  real subprocesses could.
"""

from __future__ import annotations

import dataclasses
import os
import queue
import signal
import subprocess
import sys
import threading
import traceback
from typing import Any, Mapping, NoReturn, Protocol

from repro.core.errors import ReproError
from repro.service import protocol
from repro.service.worker import WorkerSession, serve_stdio


class WorkerTransport(Protocol):
    """One worker endpoint, whatever carries its bytes."""

    name: str

    def send(self, message: Mapping[str, Any]) -> None:
        """Deliver one message; silently drop if the worker is gone
        (the coordinator discovers death through :meth:`alive`)."""

    def receive(self) -> dict[str, Any] | None:
        """The next pending message from the worker, or ``None``."""

    def alive(self) -> bool:
        """Whether the worker can still produce messages."""

    def close(self) -> None:
        """Release resources; idempotent."""


def sweep_work_argv(exit_after: int | None = None) -> list[str]:
    """The argv that starts a local stdio worker in this environment."""
    argv = [sys.executable, "-m", "repro.experiments", "sweep-work"]
    if exit_after is not None:
        argv += ["--exit-after", str(exit_after)]
    return argv


class PipeTransport:
    """A local peer process speaking JSON lines over a pipe pair.

    ``process`` is the peer's handle, with :class:`subprocess.Popen`'s
    ``kill`` and ``wait``; ``reader`` and ``writer`` are this side's
    text ends of the peer's output and input.  The peer counts as alive
    until its output reaches EOF, which it does when the peer exits.
    The reader thread starts only in :meth:`start`, so a caller can
    fork every peer before any thread exists.  The reader sets
    :attr:`wakeup`, when one is attached, after each message it queues
    and once more when the peer's output ends, so a coordinator can
    wait on the event instead of polling.
    """

    def __init__(self, process, reader, writer, name="worker"):
        self.name = name
        self._process = process
        self._stdout = reader
        self._stdin = writer
        self._inbox: queue.Queue[dict[str, Any]] = queue.Queue()
        self._closed = False
        self.wakeup: threading.Event | None = None
        self._reader = threading.Thread(
            target=self._drain_stdout, name=f"{name}-reader", daemon=True
        )

    def start(self) -> None:
        """Start receiving the peer's messages."""
        self._reader.start()

    def _drain_stdout(self) -> None:
        try:
            for line in self._stdout:
                if not line.strip():
                    continue
                try:
                    self._inbox.put(protocol.decode_message(line))
                except ReproError:
                    # A corrupt line means a broken worker; surface it
                    # as a protocol error message so the coordinator
                    # retires the worker instead of hanging.
                    self._inbox.put(
                        protocol.error_message(
                            f"undecodable worker output: {line[:200]!r}"
                        )
                    )
                self._wake()
        finally:
            # A dead worker wakes the coordinator too.
            self._wake()

    def _wake(self) -> None:
        wakeup = self.wakeup
        if wakeup is not None:
            wakeup.set()

    # ------------------------------------------------------------------
    def send(self, message: Mapping[str, Any]) -> None:
        if self._closed:
            return
        try:
            self._stdin.write(protocol.encode_message(message) + "\n")
            self._stdin.flush()
        except (BrokenPipeError, OSError, ValueError):
            # Dead or closing worker; alive() will report it.
            pass

    def receive(self) -> dict[str, Any] | None:
        try:
            return self._inbox.get_nowait()
        except queue.Empty:
            return None

    def alive(self) -> bool:
        # Queued messages from an already-dead process still count: the
        # coordinator must consume results a worker streamed before
        # dying.  The reader queues every line before it ends.
        return not self._inbox.empty() or (
            not self._closed and self._reader.is_alive()
        )

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._stdin.close()
        except OSError:  # pragma: no cover - already-broken pipe
            pass
        # A worker exits on EOF of its input; one still computing a
        # retired lease is killed.
        self._reader.join(timeout=5)
        if self._reader.is_alive():
            self._process.kill()
            self._reader.join(timeout=5)
        self._process.wait()
        if not self._reader.is_alive():
            self._stdout.close()


class SubprocessTransport(PipeTransport):
    """A spawned ``sweep-work`` peer (or any argv speaking the protocol
    on stdio)."""

    def __init__(self, argv=None, name: str = "worker") -> None:
        process = subprocess.Popen(
            list(argv) if argv is not None else sweep_work_argv(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=None,  # worker diagnostics join the coordinator's stderr
            text=True,
            bufsize=1,
        )
        super().__init__(process, process.stdout, process.stdin, name)
        self.start()


class _ForkedChild:
    """:class:`subprocess.Popen`'s ``kill`` and ``wait`` for a child
    made by ``os.fork``."""

    def __init__(self, pid: int) -> None:
        self.pid = pid

    def kill(self) -> None:
        os.kill(self.pid, signal.SIGKILL)

    def wait(self) -> int:
        return os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])


def fork_workers(count: int, exit_after=None) -> list[PipeTransport]:
    """Fork ``count`` workers from this process, each on its own pipe pair.

    Each child serves the lease protocol through
    :func:`~repro.service.worker.serve_stdio`; the first one gets the
    ``exit_after`` chaos hook (see ``sweep-work --exit-after``).  The
    fork-safety rules:

    * stdout and stderr are flushed first, so no child inherits - and
      later writes a second time - output the parent had buffered;
    * every child is forked before any reader thread starts;
    * each child closes its earlier siblings' coordinator-side pipe
      ends, so a worker sees EOF as soon as the coordinator closes its
      input, whatever its siblings do;
    * a child leaves only through ``os._exit``, after flushing what it
      printed itself, and never returns into the caller's stack.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    transports: list[PipeTransport] = []
    try:
        for index in range(count):
            to_child, from_parent = os.pipe()
            from_child, to_parent = os.pipe()
            pid = os.fork()
            if pid == 0:  # pragma: no cover - runs in the child
                _serve_forked(
                    transports,
                    (from_parent, from_child),
                    (to_child, to_parent),
                    exit_after if index == 0 else None,
                )
            os.close(to_child)
            os.close(to_parent)
            reader, writer = open(from_child), open(from_parent, "w")
            transports.append(
                PipeTransport(
                    _ForkedChild(pid), reader, writer, f"worker-{index}"
                )
            )
    except BaseException:
        for transport in transports:
            transport.start()
            transport.close()
        raise
    for transport in transports:
        transport.start()
    return transports


def _serve_forked(siblings, parent_fds, child_fds, exit_after) -> NoReturn:
    """A forked worker's whole life: serve leases, then ``os._exit``."""
    code = 1
    try:
        for sibling in siblings:
            sibling._stdin.close()
            sibling._stdout.close()
        for fd in parent_fds:
            os.close(fd)
        with open(child_fds[0]) as stdin, open(child_fds[1], "w") as stdout:
            code = serve_stdio(stdin, stdout, exit_after=exit_after)
    except Exception:
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def os_thread_count() -> int:
    """Threads this process runs, native ones included.

    ``threading.active_count()`` sees only Python threads; the OpenBLAS
    pool that ``import numpy`` starts shows only in
    ``/proc/self/task``.  Where that does not exist, the Python
    count is the best available.
    """
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


@dataclasses.dataclass(frozen=True)
class LocalWorkers:
    """Up to ``count`` local workers, started only when :meth:`start` runs.

    The coordinator plans for ``len()`` workers and starts them once
    the plan leases something, so a fully-warm sweep starts none.
    ``exit_after`` is the first worker's chaos hook.
    """

    count: int
    exit_after: int | None = None

    def __len__(self) -> int:
        return self.count

    def start(self, leases: int) -> list[PipeTransport]:
        """Start one worker per lease, up to ``count``, and a spare
        beside a lone lease so that one worker's death is survived.

        Workers are forked, or spawned as ``sweep-work`` processes
        where forking is unavailable or unsafe (other threads are
        running)."""
        count = min(self.count, max(leases, 2))
        if hasattr(os, "fork") and os_thread_count() == 1:
            return fork_workers(count, self.exit_after)
        return [
            SubprocessTransport(
                sweep_work_argv(self.exit_after if index == 0 else None),
                f"worker-{index}",
            )
            for index in range(count)
        ]


class LoopbackTransport:
    """An in-process worker executing leases synchronously on ``send``.

    ``fail_after_results`` simulates a worker killed mid-lease: the
    session stops after streaming that many results in total - messages
    already "sent" stay delivered (a real pipe would have carried them),
    nothing later arrives, and :meth:`alive` turns ``False``.
    """

    def __init__(
        self,
        name: str = "loopback",
        fail_after_results: int | None = None,
    ) -> None:
        self.name = name
        self._inbox: list[dict[str, Any]] = []
        self._dead = False
        self._fail_after = fail_after_results

        def deliver(message: Mapping[str, Any]) -> None:
            if not self._dead:
                self._inbox.append(dict(message))

        def maybe_die(results_sent: int) -> None:
            if self._fail_after is not None and results_sent >= self._fail_after:
                self._dead = True
                raise _SimulatedKill()

        self._session = WorkerSession(deliver, result_hook=maybe_die)

    def send(self, message: Mapping[str, Any]) -> None:
        if self._dead:
            return
        try:
            if not self._session.handle(message):
                self._dead = True
        except _SimulatedKill:
            self._dead = True
        except ReproError as exc:
            self._inbox.append(protocol.error_message(str(exc)))
            self._dead = True

    def receive(self) -> dict[str, Any] | None:
        if self._inbox:
            return self._inbox.pop(0)
        return None

    def alive(self) -> bool:
        return bool(self._inbox) or not self._dead

    def close(self) -> None:
        self._dead = True


class _SimulatedKill(BaseException):
    """Raised inside a loopback worker to mimic SIGKILL mid-lease.

    Derives from ``BaseException`` so no library ``except Exception``
    can swallow it - like the real signal, nothing in the worker gets
    to handle it.
    """
