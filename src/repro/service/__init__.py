"""Distributed sweep service: coordinator, workers, lease protocol.

This package turns the scenario compiler's shardable work-unit lists
(PR 2) and the cache's content-addressed keys into an actual
multi-worker *service*:

* :mod:`repro.service.protocol` - the transport-agnostic lease
  protocol (newline-delimited JSON messages);
* :mod:`repro.service.worker` - the worker-side protocol machine and
  the stdio server behind ``repro-experiments sweep-work``;
* :mod:`repro.service.transports` - how messages move: workers forked
  from the coordinator or spawned ``sweep-work`` processes, both over
  pipe pairs, and an in-process loopback transport for deterministic
  tests;
* :mod:`repro.service.coordinator` - compile once, lease planned
  position lists, track deadlines, retry failed/straggling workers, and
  merge results byte-identical to a serial run;
* :mod:`repro.service.cli` - the ``sweep-work`` subcommand.  The
  coordinator end is ``repro-experiments scenario <name> --workers N``
  (:mod:`repro.scenarios.cli`) or ``repro-experiments all --workers N``
  (:mod:`repro.experiments.runner`).

All workers share one concurrent :class:`repro.parallel.cache.ResultCache`
store (sharded content-addressed layout, crash-safe writes), so a fleet
deduplicates work across workers, runs and machines.
"""

from repro.service.coordinator import Coordinator
from repro.service.transports import (
    LoopbackTransport,
    SubprocessTransport,
    WorkerTransport,
)
from repro.service.worker import WorkerSession, serve_stdio

__all__ = [
    "Coordinator",
    "WorkerSession",
    "serve_stdio",
    "WorkerTransport",
    "SubprocessTransport",
    "LoopbackTransport",
]
