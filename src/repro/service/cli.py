"""The ``sweep-serve`` and ``sweep-work`` subcommands.

Usage::

    # Serve a scenario across 4 local subprocess workers:
    repro-experiments sweep-serve figure2 --workers 4

    # Same bytes as the serial run, any options the scenario takes:
    repro-experiments sweep-serve figure2 --workers 4 \\
        --kernel batch --metrics latency

    # A worker endpoint speaking the lease protocol on stdio (spawned
    # by sweep-serve; also usable behind ssh or a batch queue):
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

from repro.bus.backends import DEFAULT_BACKEND, KNOWN_BACKENDS
from repro.core.errors import ReproError
from repro.scenarios.compiler import parse_shard
from repro.scenarios.execute import unit_line
from repro.scenarios.registry import load_scenario


def _add_shared_scenario_flags(parser: argparse.ArgumentParser) -> None:
    """Flags sweep-serve shares with the ``scenario`` subcommand."""
    parser.add_argument(
        "--shard",
        metavar="I/K",
        help="serve only shard I of K (1-based); merging all K shard "
        "outputs reproduces the unsharded output byte-for-byte",
    )
    parser.add_argument(
        "--cycles", type=int, metavar="N",
        help="override the spec's simulated cycles per unit",
    )
    parser.add_argument(
        "--seed", type=int, metavar="N",
        help="override the spec's replication base seed",
    )
    parser.add_argument(
        "--metrics", metavar="NAME", action="append", default=None,
        help="collect an extra per-unit metric family (repeatable)",
    )
    parser.add_argument(
        "--kernel",
        choices=("reference", "fast", "batch"),
        default="reference",
        help="simulation-loop implementation (see 'scenario --help')",
    )
    parser.add_argument(
        "--backend",
        choices=KNOWN_BACKENDS,
        default=DEFAULT_BACKEND,
        help="array substrate for the batch kernel (requires "
        "--kernel batch)",
    )
    parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="workers reuse the shared result store (default on)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="shared store directory (default $REPRO_CACHE_DIR or "
        "~/.cache/repro-single-bus)",
    )


def serve_main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``repro-experiments sweep-serve ...``."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments sweep-serve",
        description="Run a scenario through the distributed sweep "
        "coordinator over local subprocess workers; stdout is "
        "byte-identical to the serial 'scenario' run.",
    )
    parser.add_argument(
        "scenario",
        help="registered scenario name or a .toml/.json spec file",
    )
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker subprocesses to lease work to (default 2)",
    )
    parser.add_argument(
        "--lease-size", type=int, default=None, metavar="N",
        help="units per lease (default: the planner's cost-weighted "
        "sizing, ~total cost/(4*workers), capped at 256 units)",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="seconds a lease may run before its worker is declared "
        "failed and its range is re-leased (default 300)",
    )
    _add_shared_scenario_flags(parser)
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="report probe/dispatch telemetry on stderr after the run",
    )
    parser.add_argument(
        "--chaos-kill-after",
        type=int,
        default=None,
        metavar="K",
        help="fault-injection testing hook: the first worker exits "
        "abruptly after its K-th result, exercising lease retry",
    )
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be a positive integer")
    if args.lease_size is not None and args.lease_size < 1:
        parser.error("--lease-size must be a positive integer")
    if args.backend != DEFAULT_BACKEND and args.kernel != "batch":
        parser.error("--backend requires --kernel batch")
    try:
        results = _serve(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print(unit_line(result), flush=True)
    return 0


def _serve(args):
    from repro.scenarios.cli import apply_spec_overrides
    from repro.service.coordinator import DEFAULT_DEADLINE, run_service

    spec = load_scenario(args.scenario)
    spec = apply_spec_overrides(
        spec, cycles=args.cycles, seed=args.seed, metrics=args.metrics
    )
    shard = parse_shard(args.shard) if args.shard is not None else None
    started = time.time()
    telemetry: dict = {}
    results = run_service(
        spec,
        workers=args.workers,
        kernel=args.kernel,
        backend=args.backend,
        shard=shard,
        lease_size=args.lease_size,
        deadline=(
            args.deadline if args.deadline is not None else DEFAULT_DEADLINE
        ),
        cache_enabled=args.cache,
        cache_dir=args.cache_dir,
        chaos_kill_after=args.chaos_kill_after,
        telemetry=telemetry,
    )
    elapsed = time.time() - started
    served = sum(1 for result in results if result.cached)
    print(
        f"[sweep-serve {spec.name}: {len(results)} units over "
        f"{args.workers} workers in {elapsed:.1f}s, {served} from cache, "
        f"{telemetry.get('dispatched', 0)} dispatched]",
        file=sys.stderr,
    )
    if args.cache_stats:
        from repro.scenarios.cli import render_cache_stats

        print(render_cache_stats(None, telemetry), file=sys.stderr)
    return results


def work_main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``repro-experiments sweep-work``."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments sweep-work",
        description="Serve one sweep worker over the lease protocol on "
        "stdin/stdout (newline-delimited JSON).  Normally spawned by "
        "sweep-serve; run it behind ssh or a batch queue for remote "
        "fleets.",
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
