"""The sweep coordinator: plan, lease, merge exactly.

The coordinator owns the canonical compiled unit list of one or more
scenario specs and drives any
number of :class:`~repro.service.transports.WorkerTransport` endpoints
through the lease protocol (:mod:`repro.service.protocol`):

* before any dispatch, a **pre-lease cache probe**
  (:func:`repro.scenarios.plan.probe_cached`) resolves every
  already-cached position against the shared store, so warm or resumed
  sweeps never ship cached work to workers (a fully-warm sweep
  dispatches zero units, skips the handshake entirely and, with
  :class:`~repro.service.transports.LocalWorkers`, starts no worker);
* positions whose units repeat an earlier position's payload (say, one
  reference line two experiments declare) are never leased: they take
  that position's result, as :func:`~repro.scenarios.execute.run_units`
  computes such a unit once;
* the remaining work is cut by the **sweep planner**
  (:func:`repro.scenarios.plan.carve_leases`) into position-list
  leases: each batch super-fleet stays one lease (one vectorized fleet
  call on one worker) up to the lease cap, and other units are packed
  by estimated cost instead of unit count;
* every lease carries a **deadline**; a lease whose results stop
  arriving in time marks its worker failed, and the unfinished
  positions are re-leased to healthy workers (per-position retry
  budget, so a poisoned unit cannot loop forever);
* results are recorded **idempotently by position** - duplicates from a
  straggler that answered after being retired are accepted and ignored,
  which is safe because unit evaluation is deterministic: any two
  answers for one position are byte-identical;
* the merged outcome is the exact :class:`UnitResult` list a serial
  :func:`repro.scenarios.execute.run_units` call would produce -
  metrics payloads round-trip exactly through JSON, so rendered report
  lines are byte-identical whatever the worker count, lease sizing or
  mid-run crash history (property-tested in
  ``tests/properties/test_service_merge.py``).
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import time
from typing import Any, Sequence

from repro.core.errors import ConfigurationError, ExperimentError
from repro.scenarios.compiler import WorkUnit, compile_specs
from repro.scenarios.execute import UnitResult, result_from_metrics
from repro.scenarios.spec import ScenarioSpec
from repro.service import protocol
from repro.service.transports import (
    LocalWorkers,
    PipeTransport,
    WorkerTransport,
)

DEFAULT_DEADLINE = 300.0
"""Seconds a lease may run before its worker is declared failed."""

DEFAULT_MAX_RETRIES = 3
"""Times one position may be re-leased before the sweep aborts."""

POLL_INTERVAL = 0.02
"""Longest wait, in seconds, of a pass over the workers that made no
progress.  A message from a pipe worker, or the end of its output,
ends the wait at once; the interval only bounds how long deadline and
liveness checks can lag."""


@dataclasses.dataclass
class _Lease:
    lease_id: int
    worker: int
    positions: tuple[int, ...]
    issued: float
    remaining: set[int]
    active: bool = True


@dataclasses.dataclass
class _Worker:
    transport: WorkerTransport
    state: str = "new"  # new -> ready -> dead
    lease_id: int | None = None


class Coordinator:
    """Drive the compiled unit list of ``specs`` across a set of worker
    transports.

    ``transports`` are started worker endpoints, or
    :class:`~repro.service.transports.LocalWorkers` to start only once
    the plan leases something.  ``units`` is the specs' compiled (and
    sharded) unit list (:func:`~repro.scenarios.compiler.compile_specs`)
    when the caller already holds it.  The probe and the workers share
    the store at ``cache_dir`` under the version tag ``cache_version``
    (default: the code version).
    """

    def __init__(
        self,
        specs: Sequence[ScenarioSpec],
        transports: Sequence[WorkerTransport] | LocalWorkers,
        kernel: str = "fast",
        shard: tuple[int, int] | None = None,
        lease_size: int | None = None,
        deadline: float = DEFAULT_DEADLINE,
        max_retries: int = DEFAULT_MAX_RETRIES,
        cache_enabled: bool = True,
        cache_dir: str | None = None,
        cache_version: str | None = None,
        units: Sequence[WorkUnit] | None = None,
    ) -> None:
        if not len(transports):
            raise ExperimentError("the sweep service needs at least one worker")
        specs = tuple(specs)
        if units is None:
            units = compile_specs(specs, kernel=kernel, shard=shard)
        self.specs = specs
        self.units = units
        self.kernel = kernel
        self.shard = shard
        self.cache_enabled = cache_enabled
        self.cache_dir = cache_dir
        self.cache_version = cache_version
        self.deadline = deadline
        self.max_retries = max_retries
        if lease_size is not None and lease_size < 1:
            raise ExperimentError(
                f"lease size must be >= 1, got {lease_size}"
            )
        self.lease_size = lease_size
        self._fleet = transports
        self._workers = (
            []
            if isinstance(transports, LocalWorkers)
            else [_Worker(transport) for transport in transports]
        )
        self._leases: dict[int, _Lease] = {}
        self._next_lease_id = 0
        self._queue: list[list[int]] = []
        self._metrics: dict[int, tuple[Any, bool]] = {}
        self._twins: dict[int, list[int]] = {}
        self._retries: dict[int, int] = {}
        self.leases_issued = 0
        self.leases_retried = 0
        self.units_dispatched = 0
        self.probe_hits = 0
        self.probe_stats = None
        self.put_errors = 0

    # ------------------------------------------------------------------
    def run(self) -> list[UnitResult]:
        """Execute every unit and return results in canonical order."""
        self._started = time.monotonic()
        self._probe_cache()
        self._queue = self._plan_leases(
            self._representatives(
                [
                    position
                    for position in range(len(self.units))
                    if position not in self._metrics
                ]
            )
        )
        if self._queue:
            # A fully-warm sweep skips the handshake entirely: there is
            # nothing to dispatch, so workers need not start or compile.
            # The hello is built first so that forked workers inherit
            # the memoized code version tag.
            hello = protocol.hello_message(
                self.specs,
                self.kernel,
                shard=self.shard,
                cache_dir=self.cache_dir,
                cache_enabled=self.cache_enabled,
                cache_version=self.cache_version,
            )
            if isinstance(self._fleet, LocalWorkers):
                self._workers = [
                    _Worker(transport)
                    for transport in self._fleet.start(len(self._queue))
                ]
            for worker in self._workers:
                worker.transport.send(hello)
        # Pipe workers' reader threads set this event on every message
        # and when a worker's output ends, so an idle pass waits only
        # until something happens.  In-process transports answer
        # during send() and need no event.
        wakeup = threading.Event()
        for worker in self._workers:
            if isinstance(worker.transport, PipeTransport):
                worker.transport.wakeup = wakeup
        try:
            while not self._finished():
                wakeup.clear()
                progressed = self._drain_messages()
                self._retire_dead_workers()
                self._expire_leases()
                progressed |= self._assign_leases()
                if self._finished():
                    break
                if not any(w.state != "dead" for w in self._workers):
                    missing = len(self.units) - len(self._metrics)
                    raise ExperimentError(
                        f"all sweep workers failed with {missing} "
                        f"unit(s) outstanding"
                    )
                if not progressed:
                    wakeup.wait(POLL_INTERVAL)
        finally:
            for worker in self._workers:
                if worker.state != "dead":
                    worker.transport.send(protocol.shutdown_message())
            for worker in self._workers:
                worker.transport.close()
        return [
            result_from_metrics(self.units[position], metrics, cached)
            for position, (metrics, cached) in sorted(self._metrics.items())
        ]

    def _finished(self) -> bool:
        """Every position has a result and every live lease is done, so
        each worker's ``lease_done`` counters have arrived."""
        return len(self._metrics) >= len(self.units) and not any(
            lease.active for lease in self._leases.values()
        )

    # ------------------------------------------------------------------
    def _probe_cache(self) -> None:
        """Resolve already-cached positions before any dispatch.

        One batched probe against the shared store fills
        :attr:`_metrics` with every valid cached value, so those
        positions are never leased.  A malformed entry is skipped (the
        worker recomputes it); a broken cache location only disables
        the probe, never the sweep.
        """
        if not self.cache_enabled:
            return
        from repro.parallel.cache import ResultCache
        from repro.scenarios.plan import probe_cached

        try:
            cache = ResultCache(
                cache_dir=self.cache_dir, version_tag=self.cache_version
            )
        except (ConfigurationError, OSError) as exc:
            print(
                f"[sweep] pre-lease cache probe disabled: {exc}",
                file=sys.stderr,
            )
            return
        self.probe_stats = cache.stats
        found = probe_cached(self.units, range(len(self.units)), cache)
        for position, value in sorted(found.items()):
            try:
                result_from_metrics(self.units[position], value, True)
            except ExperimentError:
                continue
            self._metrics[position] = (value, True)
            self.probe_hits += 1

    def _representatives(self, positions: list[int]) -> list[int]:
        """``positions`` without those whose unit payload repeats an
        earlier one's; each repeat is filed as a twin of the first and
        takes its result."""
        from repro.parallel.cache import canonical_json

        first: dict[str, int] = {}
        for position in positions:
            payload = canonical_json(self.units[position].payload())
            if payload in first:
                self._twins.setdefault(first[payload], []).append(position)
            else:
                first[payload] = position
        return list(first.values())

    def _plan_leases(self, positions: list[int]) -> list[list[int]]:
        """Cut the unresolved positions into the lease queue."""
        from repro.scenarios.plan import carve_leases

        return carve_leases(
            self.units,
            positions,
            workers=len(self._fleet),
            lease_size=self.lease_size,
        )

    # ------------------------------------------------------------------
    def _drain_messages(self) -> bool:
        progressed = False
        for worker_index, worker in enumerate(self._workers):
            while True:
                message = worker.transport.receive()
                if message is None:
                    break
                progressed = True
                self._handle_message(worker_index, message)
        return progressed

    def _handle_message(self, worker_index: int, message: dict) -> None:
        worker = self._workers[worker_index]
        kind = message["type"]
        if kind == "ready":
            if message["units"] != len(self.units):
                worker.state = "dead"
                raise ExperimentError(
                    f"worker {worker.transport.name} compiled "
                    f"{message['units']} units, coordinator compiled "
                    f"{len(self.units)}: coordinator and workers run "
                    f"different code versions"
                )
            if worker.state == "new":
                worker.state = "ready"
        elif kind == "result":
            position = message["position"]
            lease = self._leases.get(message["lease_id"])
            if lease is not None:
                lease.remaining.discard(position)
            if position not in self._metrics:
                # Deterministic evaluation makes duplicates (from
                # retried leases or retired stragglers) byte-identical,
                # so first-writer-wins is exact, not approximate.
                value = (message["metrics"], bool(message.get("cached", False)))
                for resolved in (position, *self._twins.get(position, ())):
                    self._metrics[resolved] = value
        elif kind == "lease_done":
            self.put_errors += int(message.get("put_errors", 0))
            lease = self._leases.get(message["lease_id"])
            if lease is not None:
                lease.active = False
                if lease.remaining:
                    # A done lease with unstreamed positions is a
                    # protocol violation; requeue rather than hang.
                    self._requeue(lease)
            if worker.lease_id == message["lease_id"]:
                worker.lease_id = None
        elif kind == "error":
            print(
                f"[sweep] worker {worker.transport.name} failed: "
                f"{message.get('message', '')}",
                file=sys.stderr,
            )
            self._fail_worker(worker_index)
        # hello/lease/shutdown never travel worker -> coordinator;
        # decode_message already rejected unknown types.

    # ------------------------------------------------------------------
    def _retire_dead_workers(self) -> None:
        for worker_index, worker in enumerate(self._workers):
            if worker.state != "dead" and not worker.transport.alive():
                self._fail_worker(worker_index)

    def _expire_leases(self) -> None:
        now = time.monotonic()
        # The handshake honours the same deadline: a worker that never
        # answers hello must not stall the sweep.
        for worker_index, worker in enumerate(self._workers):
            if worker.state == "new" and now - self._started > self.deadline:
                print(
                    f"[sweep] worker {worker.transport.name} never "
                    f"finished its handshake within {self.deadline:g}s; "
                    f"retiring it",
                    file=sys.stderr,
                )
                self._fail_worker(worker_index)
        for lease in list(self._leases.values()):
            if not lease.active:
                continue
            if now - lease.issued > self.deadline:
                worker = self._workers[lease.worker]
                print(
                    f"[sweep] lease {lease.lease_id} "
                    f"({len(lease.positions)} position(s)) on worker "
                    f"{worker.transport.name} exceeded its "
                    f"{self.deadline:g}s deadline; retiring worker",
                    file=sys.stderr,
                )
                self._fail_worker(lease.worker)

    def _fail_worker(self, worker_index: int) -> None:
        worker = self._workers[worker_index]
        if worker.state == "dead":
            return
        # Drain anything the worker streamed before dying: those
        # results are valid, paid-for work.
        while True:
            message = worker.transport.receive()
            if message is None:
                break
            if message["type"] in ("result", "ready", "lease_done"):
                self._handle_message(worker_index, message)
        worker.state = "dead"
        worker.transport.close()
        if worker.lease_id is not None:
            lease = self._leases.get(worker.lease_id)
            worker.lease_id = None
            if lease is not None and lease.active:
                lease.active = False
                self._requeue(lease)

    def _requeue(self, lease: _Lease) -> None:
        requeued = [
            position
            for position in sorted(lease.remaining)
            if position not in self._metrics
        ]
        if not requeued:
            return
        for position in requeued:
            self._retries[position] = self._retries.get(position, 0) + 1
            if self._retries[position] > self.max_retries:
                raise ExperimentError(
                    f"unit position {position} (index "
                    f"{self.units[position].index}) failed after "
                    f"{self.max_retries} lease retries"
                )
        self.leases_retried += 1
        self._queue.append(requeued)

    def _assign_leases(self) -> bool:
        progressed = False
        for worker_index, worker in enumerate(self._workers):
            if worker.state != "ready" or worker.lease_id is not None:
                continue
            positions = self._next_lease_positions()
            if not positions:
                break
            lease = _Lease(
                lease_id=self._next_lease_id,
                worker=worker_index,
                positions=tuple(positions),
                issued=time.monotonic(),
                remaining=set(positions),
            )
            self._next_lease_id += 1
            self._leases[lease.lease_id] = lease
            worker.lease_id = lease.lease_id
            self.leases_issued += 1
            self.units_dispatched += len(positions)
            worker.transport.send(
                protocol.lease_message(lease.lease_id, lease.positions)
            )
            progressed = True
        return progressed

    def _next_lease_positions(self) -> list[int]:
        """The planner's next lease, minus positions already resolved.

        Positions that gained results while queued (idempotent
        duplicates from retired stragglers) are skipped; an entry that
        empties out entirely is dropped and the next one tried.
        """
        while self._queue:
            entry = self._queue.pop(0)
            positions = [
                position
                for position in entry
                if position not in self._metrics
            ]
            if positions:
                return positions
        return []
