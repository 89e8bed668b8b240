"""The ``sweep-serve`` and ``sweep-work`` subcommands.

Usage::

    # Serve a scenario across 4 local workers forked from the coordinator:
    repro-experiments sweep-serve figure2 --workers 4

    # Same bytes as the serial run, any options the scenario takes:
    repro-experiments sweep-serve figure2 --workers 4 \\
        --kernel batch --metrics latency

    # A worker endpoint speaking the lease protocol on stdio (spawned
    # where forking is unavailable; also usable behind ssh or a batch
    # queue):
    repro-experiments sweep-work

Output contract: stdout carries exactly the unit lines the serial
``repro-experiments scenario <name>`` run would print, byte-identical
and already in canonical order (no sort step); scheduling diagnostics
go to stderr.  ``scenario --workers N`` is shorthand for the same
service path.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro.core.errors import ReproError
from repro.scenarios.cli import (
    add_run_flags,
    check_run_flags,
    load_run,
    open_cache,
    render_cache_stats,
)
from repro.scenarios.execute import run_scenario, unit_line


def serve_main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``repro-experiments sweep-serve ...``."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments sweep-serve",
        description="Run a scenario through the distributed sweep "
        "coordinator over local workers; stdout is byte-identical to "
        "the serial 'scenario' run.",
    )
    parser.add_argument(
        "scenario",
        help="registered scenario name or a .toml/.json spec file",
    )
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="local workers to lease work to (default 2)",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="seconds a lease may run before its worker is declared "
        "failed and its range is re-leased (default 300)",
    )
    parser.add_argument(
        "--chaos-kill-after",
        type=int,
        default=None,
        metavar="K",
        help="fault-injection testing hook: the first worker exits "
        "abruptly after its K-th result, exercising lease retry",
    )
    add_run_flags(parser)
    args = parser.parse_args(argv)
    check_run_flags(parser, args, args.kernel)
    telemetry: dict = {}
    try:
        spec, shard = load_run(args)
        started = time.time()
        results = run_scenario(
            spec,
            shard=shard,
            cache=open_cache(args),
            kernel=args.kernel,
            backend=args.backend,
            workers=args.workers,
            lease_size=args.lease_size,
            deadline=args.deadline,
            chaos_kill_after=args.chaos_kill_after,
            telemetry=telemetry,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print(unit_line(result), flush=True)
    served = sum(1 for result in results if result.cached)
    print(
        f"[sweep-serve {spec.name}: {len(results)} units over "
        f"{args.workers} workers in {time.time() - started:.1f}s, "
        f"{served} from cache, {telemetry['dispatched']} dispatched]",
        file=sys.stderr,
    )
    if args.cache_stats:
        print(render_cache_stats(None, telemetry), file=sys.stderr)
    return 0


def work_main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``repro-experiments sweep-work``."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments sweep-work",
        description="Serve one sweep worker over the lease protocol on "
        "stdin/stdout (newline-delimited JSON).  Spawned by sweep-serve "
        "where it cannot fork its workers; run it behind ssh or a batch "
        "queue for remote fleets.",
    )
    parser.add_argument(
        "--exit-after",
        type=int,
        default=None,
        metavar="K",
        help="fault-injection testing hook: die abruptly (no cleanup) "
        "after streaming the K-th result",
    )
    args = parser.parse_args(argv)
    if args.exit_after is not None and args.exit_after < 1:
        parser.error("--exit-after must be a positive integer")
    from repro.service.worker import serve_stdio

    return serve_stdio(exit_after=args.exit_after)
