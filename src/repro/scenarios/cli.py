"""The ``repro-experiments scenario`` subcommand.

Usage::

    repro-experiments scenario                          # list scenarios
    repro-experiments scenario figure2 --workers 8
    repro-experiments scenario my-sweep.toml --shard 2/4
    repro-experiments scenario table3a --shard 1/3 > shard1.out

    # Kill the first forked worker after its first result; the lease
    # retry must leave stdout byte-identical to the serial run:
    repro-experiments scenario figure2 --workers 3 --lease-size 2 \\
        --chaos-kill-after 1

Sharding contract: stdout carries exactly one self-contained line per
executed work unit, each prefixed with its global (unsharded) index.
Run the same scenario as ``k`` shards on ``k`` machines, concatenate
the shard outputs, and ``sort`` them (or pass them through
:func:`repro.scenarios.execute.merge_reports`): the result is
byte-identical to the unsharded run.  Headers, timings and summaries go
to stderr so stdout stays mergeable and reproducible.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from typing import Sequence

from repro.bus import DEFAULT_KERNEL, KNOWN_KERNELS
from repro.core.errors import ConfigurationError, ReproError
from repro.scenarios.compiler import parse_shard
from repro.scenarios.execute import run_scenario, unit_line
from repro.scenarios.registry import all_scenarios, load_scenario
from repro.scenarios.spec import ReplicationPlan


def list_scenarios() -> str:
    """Human-readable table of every registered scenario."""
    lines = ["available scenarios:"]
    for spec in all_scenarios():
        units = spec.grid_size() * spec.plan.replications
        lines.append(
            f"  {spec.name:<22} {units:>5} units  {str(spec.method):<10} "
            f"{spec.description}"
        )
    lines.append(
        "\nrun one with: repro-experiments scenario <name|file.toml> "
        "[--shard i/k] [--workers N]"
    )
    return "\n".join(lines)


def open_cache(args):
    """The result store the flags name, or ``None``.

    A broken cache location only disables caching: it must never block
    the science run.
    """
    if not args.cache:
        return None
    from repro.parallel.cache import ResultCache

    try:
        return ResultCache(cache_dir=args.cache_dir)
    except (ConfigurationError, OSError) as exc:
        print(f"warning: caching disabled: {exc}", file=sys.stderr)
        return None


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``repro-experiments scenario ...``."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments scenario",
        description="Compile a declarative scenario into work units and "
        "run them (optionally one shard of a multi-machine sweep).",
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        help="registered scenario name or a .toml/.json spec file; "
        "omit to list registered scenarios",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="run through the sweep service: a coordinator leases "
        "planned position lists to N local workers forked from it; "
        "stdout stays byte-identical to the serial run",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="shorthand for --kernel fast (the default)",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="after the unit lines, draw the p50/p90/p99 total-latency "
        "percentile curves across units as an ASCII chart on stderr "
        "(requires --metrics latency); stdout stays byte-reproducible",
    )
    parser.add_argument(
        "--shard",
        metavar="I/K",
        help="run only shard I of K (1-based); merging all K shard "
        "outputs reproduces the unsharded output byte-for-byte",
    )
    parser.add_argument(
        "--lease-size",
        type=int,
        default=None,
        metavar="N",
        help="units per service lease (with --workers; default: the "
        "planner's cost-weighted sizing, capped at 256 units)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="seconds a lease may run before its worker is declared "
        "failed and its range is re-leased (with --workers; default 300)",
    )
    parser.add_argument(
        "--chaos-kill-after",
        type=int,
        default=None,
        metavar="K",
        help="fault-injection testing hook: the first worker exits "
        "abruptly after its K-th result, exercising lease retry (with "
        "--workers)",
    )
    parser.add_argument(
        "--cycles",
        type=int,
        metavar="N",
        help="override the spec's simulated cycles per unit",
    )
    parser.add_argument(
        "--seed",
        type=int,
        metavar="N",
        help="override the spec's replication base seed",
    )
    parser.add_argument(
        "--metrics",
        metavar="NAME",
        action="append",
        default=None,
        help="collect an extra per-unit metric family (repeatable); "
        "'latency' adds streaming wait/service/total percentile columns "
        "to every unit line (simulation scenarios only)",
    )
    parser.add_argument(
        "--kernel",
        choices=KNOWN_KERNELS,
        default=DEFAULT_KERNEL,
        help="simulation tier; 'fast' (default) is the exact machine "
        "(repro.bus.kernel); 'batch' runs whole replication fleets in "
        "one vectorized lockstep call (repro.bus.batch) - reproducible "
        "in itself, statistically equivalent, own cache namespace",
    )
    parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reuse cached unit results (default on; --no-cache disables)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="cache directory (default $REPRO_CACHE_DIR or "
        "~/.cache/repro-single-bus)",
    )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="after the run, print the cache's hit/miss/store counters "
        "on stderr (for --workers runs: the coordinator's pre-lease "
        "probe counters plus units dispatched), so planner skip-rates "
        "are observable",
    )
    args = parser.parse_args(argv)
    if args.workers is None:
        for flag, value in (
            ("--lease-size", args.lease_size),
            ("--deadline", args.deadline),
            ("--chaos-kill-after", args.chaos_kill_after),
        ):
            if value is not None:
                parser.error(f"{flag} requires --workers")
    if args.fast and args.kernel == "batch":
        # fast and batch produce deliberately different bytes, so a
        # silent precedence pick would hand back the wrong tier.
        parser.error("--fast conflicts with --kernel batch; pick one")
    kernel = "fast" if args.fast else args.kernel
    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be a positive integer")
    if args.lease_size is not None and args.lease_size < 1:
        parser.error("--lease-size must be a positive integer")
    if args.scenario is None:
        print(list_scenarios())
        return 0
    telemetry: dict = {}
    try:
        spec = load_scenario(args.scenario)
        if args.cycles is not None:
            spec = dataclasses.replace(spec, cycles=args.cycles)
        if args.metrics is not None:
            spec = dataclasses.replace(
                spec, metrics=spec.metrics + tuple(args.metrics)
            )
        if args.seed is not None:
            spec = dataclasses.replace(
                spec, plan=ReplicationPlan(spec.plan.replications, args.seed)
            )
        shard = parse_shard(args.shard) if args.shard is not None else None
        total = spec.grid_size() * spec.plan.replications
        part = f"shard {shard[0]}/{shard[1]} of " if shard else ""
        print(f"[scenario {spec.name}: {part}{total} units]", file=sys.stderr)
        cache = open_cache(args)
        started = time.time()
        results = run_scenario(
            spec,
            shard=shard,
            cache=cache,
            kernel=kernel,
            workers=args.workers,
            lease_size=args.lease_size,
            deadline=args.deadline,
            chaos_kill_after=args.chaos_kill_after,
            telemetry=telemetry,
        )
    except ReproError as exc:
        # Covers simulation and model failures too - any library error
        # surfaces as the CLI's curated one-line diagnostic.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print(unit_line(result), flush=True)
    if args.chart:
        from repro.experiments.asciichart import render_percentile_chart

        try:
            print(render_percentile_chart(results), file=sys.stderr)
        except ReproError as exc:
            print(f"warning: no chart: {exc}", file=sys.stderr)
    elapsed = time.time() - started
    served = sum(1 for result in results if result.cached)
    print(
        f"[{len(results)} units in {elapsed:.1f}s, {served} from cache]",
        file=sys.stderr,
    )
    if args.cache_stats:
        print(render_cache_stats(cache, telemetry), file=sys.stderr)
    return 0


def render_cache_stats(cache, telemetry: dict) -> str:
    """The ``--cache-stats`` stderr line.

    Serial runs report the run cache's own
    :class:`~repro.parallel.cache.CacheStats`; service runs report the
    coordinator's pre-lease probe counters, how many units were
    actually dispatched to workers (zero on a fully-warm sweep), how
    many leases were issued and re-queued after a worker failure, and
    how many results the workers failed to store.
    """
    if telemetry:
        stats = telemetry.get("probe_stats")
        line = (
            f"[cache-stats probe_hits={telemetry.get('probe_hits', 0)} "
            f"dispatched={telemetry.get('dispatched', 0)} "
            f"of {telemetry.get('units', 0)} units "
            f"leases={telemetry.get('leases_issued', 0)} "
            f"retried={telemetry.get('leases_retried', 0)}"
        )
        if stats is not None:
            line += (
                f" hits={stats.hits} misses={stats.misses} "
                f"transient_errors={stats.transient_errors}"
            )
        return line + f" put_errors={telemetry.get('put_errors', 0)}]"
    if cache is None:
        return "[cache-stats disabled]"
    stats = cache.stats
    return (
        f"[cache-stats hits={stats.hits} misses={stats.misses} "
        f"stores={stats.stores} evictions={stats.evictions} "
        f"transient_errors={stats.transient_errors} "
        f"put_errors={stats.put_errors}]"
    )
