#!/usr/bin/env python
"""Record kernel-level timings in a stable JSON schema.

``perfbench/`` times the CLI end to end; this script times the pieces
beneath it: the simulation kernels, the paper's analytic models, the
event engine, the result store, replication fleets and the sweep
service.  CI runs it on every build and compares the report, warn-only,
against the committed quick baseline.

Usage::

    python benchmarks/run_benchmarks.py --json BENCH_kernels.json [--quick]
    python benchmarks/run_benchmarks.py --json out.json --compare OLD.json
    python benchmarks/run_benchmarks.py --json out.json --compare OLD.json --compare-only

Schema (``repro-bench-kernels@4``)::

    {"schema": "repro-bench-kernels@4", "python": "3.12.x ...",
     "parameters": {"cycles": ..., "repeat": ..., "warmup": ..., ...},
     "results": [{"name": ..., "seconds": ..., "mean": ..., "meta": {...}}],
     "speedups": {"<key>": <numerator seconds / denominator seconds>}}

Two tables drive a run (:func:`table`): one :class:`Row` per
``results`` entry and one ``(key, numerator row, denominator row)`` pair
per ``speedups`` key.  Each row runs its warm-up calls untimed, then its
timed repeats: ``seconds`` is their minimum (the low-noise signal the
compare reads), ``mean`` their average (far above the min on a noisy
host).  Timings are machine-dependent; the speedups are the portable
signal.

``--compare OLD.json`` exits 4 when a same-meta entry slowed down, or a
speedup dropped, by more than :data:`THRESHOLD`, or an entry went
missing.  Reports whose ``parameters`` differ compare no speedups, so
compare quick runs against ``BENCH_kernels_quick.json`` (as CI does)
and full runs against ``BENCH_kernels.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time
from functools import partial
from typing import Callable, NamedTuple

from repro.core.config import SystemConfig
from repro.core.policy import Priority
from repro.workloads.spec import HotSpotWorkload

SCHEMA = "repro-bench-kernels@4"

BATCH_META = {"backend": "numpy"}
"""What every batch row's meta records about the array library the
kernel runs on, as the committed baselines do."""

THRESHOLD = 0.25
"""``--compare`` tolerance: a change beyond 25% is a regression."""

FULL = dict(
    cycles=100_000, figure_cycles=4_000, repeat=3, warmup=1, fleet_rows=512,
    fleet_cycles=2_400, sweep_cycles=20_000, packed_replications=30,
    packed_cycles=1_200,
)
"""Sizes of a full run, written as its ``parameters`` block."""

QUICK = dict(
    cycles=20_000, figure_cycles=1_500, repeat=1, warmup=1, fleet_rows=64,
    fleet_cycles=800, sweep_cycles=400, packed_replications=8,
    packed_cycles=400,
)
"""Sizes of a ``--quick`` (CI) run."""

UNIFORM_8X16 = SystemConfig(8, 16, 8, priority=Priority.PROCESSORS)

KERNEL_PAIRS = (
    ("unbuffered_8x16_r8", UNIFORM_8X16, None),
    ("buffered_8x16_r8", UNIFORM_8X16.with_buffers(), None),
    ("hot_spot_8x16_r8", UNIFORM_8X16, HotSpotWorkload(hot_fraction=0.3)),
    ("partial_load_8x16_r8_p05",
     dataclasses.replace(UNIFORM_8X16, request_probability=0.5), None),
)
"""The ``(name, config, workload)`` systems timed on both exact kernels."""

FLEET_CONFIG = SystemConfig(16, 16, 8, priority=Priority.PROCESSORS)
"""The figure2 (n, m) = (16, 16), r = 8 grid point the fleet benchmark
replicates under many seeds."""

BUFFERED_FLEET_CONFIG = FLEET_CONFIG.with_buffers()

PACKED_GRID_SYSTEMS = ((4, 4), (8, 8), (16, 16))
"""The figure2 (n, m) systems of the shape-fragmented packing grid."""

PACKED_GRID_RATIOS = (2, 4, 8, 16, 24)
"""Access ratios crossed with the systems: 15 distinct fleet shapes."""


class Row(NamedTuple):
    """One ``results`` entry: what to time, how often, and on what."""

    name: str
    build: Callable[[], Callable[[], object]]
    """Returns the timed callable; called only when the row runs."""
    meta: dict
    repeat: int = 2
    warmup: int = 1


def row(name: str, build, meta: dict, *, repeat: int = 2,
        warmup: int = 1) -> Row:
    """A :class:`Row` whose meta records its repeat count."""
    return Row(name, build, {**meta, "repeat": repeat}, repeat, warmup)


def best_of(repeat: int, func: Callable[[], object],
            warmup: int = 0) -> tuple[float, float]:
    """``(min, mean)`` wall-clock seconds over ``repeat`` timed runs,
    after ``warmup`` untimed ones."""
    for _ in range(warmup):
        func()
    timings = []
    for _ in range(repeat):
        started = time.perf_counter()
        func()
        timings.append(time.perf_counter() - started)
    return min(timings), sum(timings) / len(timings)


def looped(func: Callable[[], object], loops: int) -> Callable[[], object]:
    """``func`` called ``loops`` times per timed run, for calls too short
    to time one at a time."""

    def run():
        for _ in range(loops):
            func()

    return run


def run_reference(request):
    """One request on :class:`MultiplexedBusSystem`, constructed directly
    with the sampler ``run_case`` would build: the ``reference`` rows."""
    from repro.bus.system import MultiplexedBusSystem

    targets = None
    request_probabilities = None
    if request.workload is not None:
        targets = request.workload.build_targets(request.config, request.seed)
        request_probabilities = request.workload.request_probabilities(
            request.config)
    system = MultiplexedBusSystem(
        request.config, seed=request.seed, targets=targets,
        request_probabilities=request_probabilities,
        collect_latency=request.collects_latency)
    return system.run(request.cycles, warmup=request.warmup)


def exact_runner(kernel: str) -> Callable:
    """How a row labelled with an exact ``kernel`` runs one request."""
    from repro.parallel.workers import run_case

    return run_reference if kernel == "reference" else run_case


def time_simulation(config, workload, cycles: int, kernel: str):
    """One ``cycles``-long run of ``config`` on an exact ``kernel``."""
    from repro.engine.base import EvalRequest

    request = EvalRequest(config, workload, cycles=cycles, seed=1)
    return partial(exact_runner(kernel), request)


def time_occupancy_chain():
    """Build and solve the Section 3.1.1 occupancy chain (n = m = 16,
    service width 9: 231 states)."""
    from repro.markov.occupancy import OccupancyChain

    return lambda: OccupancyChain(16, 16, service_width=9).expected_completions()


def time_reduced_chain(loops: int):
    """Build and solve the Section 4 chain for n = 8, m = 16, r = 12."""
    from repro.models.processor_priority import ProcessorPriorityChain

    return looped(lambda: ProcessorPriorityChain(8, 16, 12).ebw(), loops)


def time_mva(loops: int):
    """MVA on the buffered 16x16 central-server network."""
    from repro.queueing.mva import solve_mva
    from repro.queueing.network import buffered_bus_network

    network = buffered_bus_network(BUFFERED_FLEET_CONFIG)
    return looped(partial(solve_mva, network), loops)


def time_event_engine(events: int):
    """Schedule and drain ``events`` no-op events through the heap."""
    from repro.des.engine import Engine

    def ignore() -> None:
        return None

    def run():
        engine = Engine()
        for index in range(events):
            engine.schedule(float(index % 97), ignore)
        engine.run()
        return engine.processed

    return run


def time_cache(store: str, loops: int, hit: bool):
    """``loops`` warm lookups (``hit``) or atomic stores (canonical hash,
    temp file, rename) of one 64-cell experiment result."""
    from repro.parallel.cache import ResultCache

    cache = ResultCache(cache_dir=store, version_tag="bench")
    payload = {"experiment_id": "bench", "kwargs": {"cycles": 1}}
    value = {"measured": [["r=1", "c=1", 1.0]] * 64}
    cache.put(cache.key(payload), value)
    if hit:
        return looped(lambda: cache.get(cache.key(payload)), loops)
    return looped(lambda: cache.put(cache.key(payload), value), loops)


def time_fleet(kernel: str, rows: int, cycles: int, config: SystemConfig,
               collect_latency: bool = False):
    """One whole replication fleet under ``kernel``.

    The batch kernel runs the fleet as a single lockstep call
    (:func:`repro.parallel.fleet.run_fleet`); the exact kernels run the
    same requests one by one - which is precisely the comparison the
    fleet-aggregation layer exists to win.
    """
    from repro.engine.base import EvalRequest
    from repro.parallel.fleet import run_fleet

    batch = kernel == "batch"
    requests = [
        EvalRequest(config, cycles=cycles, seed=seed,
                    metrics=("latency",) if collect_latency else (),
                    kernel="batch" if batch else "fast")
        for seed in range(rows)
    ]
    if batch:
        return partial(run_fleet, requests)
    run_case = exact_runner(kernel)
    return lambda: [run_case(request) for request in requests]


def time_figure2(cycles: int, kernel: str, workers: int | None = None,
                 store: str | None = None):
    """Figure2 end to end, in this process or over ``workers`` forked
    workers; each call opens the result ``store`` afresh, or none.  The
    ``reference`` row runs the compiled units on the reference machine."""
    from repro.parallel.cache import ResultCache
    from repro.scenarios.compiler import compile_scenario
    from repro.scenarios.execute import run_scenario
    from repro.scenarios.registry import get_scenario

    spec = dataclasses.replace(get_scenario("figure2"), cycles=cycles)
    if kernel == "reference":
        return lambda: [run_reference(unit.request())
                        for unit in compile_scenario(spec)]

    def run():
        cache = ResultCache(store) if store is not None else None
        return run_scenario(spec, kernel=kernel, workers=workers, cache=cache)

    return run


def time_planned_sweep(replications: int, cycles: int):
    """A fragmented batch grid through two loopback workers.

    The grid interleaves fleet shapes (the ``buffered`` axis varies
    fastest); the planner reunites each pack group into one lockstep
    batch call per lease.
    """
    from repro.scenarios.spec import GridAxis, ReplicationPlan, ScenarioSpec
    from repro.service.coordinator import Coordinator
    from repro.service.transports import LoopbackTransport

    spec = ScenarioSpec(
        name="bench-fragmented-grid",
        base={"processors": 16, "memories": 16, "memory_cycle_ratio": 8},
        grid=(GridAxis("request_probability", (0.25, 0.5, 0.75, 1.0)),
              GridAxis("buffered", (False, True))),
        cycles=cycles,
        plan=ReplicationPlan(replications=replications, base_seed=7),
        description="interleaved fleet shapes for planner benchmarks",
    )

    def run():
        transports = [LoopbackTransport(f"w{index}") for index in range(2)]
        return Coordinator(
            [spec], transports, kernel="batch", cache_enabled=False
        ).run()

    return run


def time_packed_sweep(replications: int, cycles: int):
    """The figure2-shaped fragmented grid as one padded super-fleet.

    Every (n, m) system crossed with every access ratio, ``replications``
    seeds per point: 15 distinct shapes that share the pack fields, run
    as one padded super-fleet batch call.
    """
    from repro.engine.base import EvalRequest
    from repro.parallel.fleet import run_fleet

    requests = [
        EvalRequest(SystemConfig(n, m, ratio, priority=Priority.PROCESSORS),
                    cycles=cycles, seed=seed, kernel="batch")
        for n, m in PACKED_GRID_SYSTEMS
        for ratio in PACKED_GRID_RATIOS
        for seed in range(replications)
    ]
    return partial(run_fleet, requests)


def fleet_row(name: str, kernel: str, rows: int, cycles: int,
              config: SystemConfig = FLEET_CONFIG, *,
              collect_latency: bool = False, repeat: int = 2,
              warmup: int = 1) -> Row:
    """A :func:`time_fleet` row; its meta names every size it runs at."""
    meta = {"rows": rows, "cycles": cycles, "kernel": kernel,
            "config": config.describe()}
    if config.buffered:
        meta["collect_latency"] = collect_latency
    if kernel == "batch":
        meta.update(BATCH_META)
    return row(name, partial(time_fleet, kernel, rows, cycles, config,
                             collect_latency),
               meta, repeat=repeat, warmup=warmup)


def table(quick: bool,
          scratch: str) -> tuple[list[Row], list[tuple[str, str, str]]]:
    """The rows of a full or ``--quick`` run, in run order, and its
    speedup pairs ``(key, numerator row, denominator row)``.

    ``scratch`` is a private directory for the rows that need a result
    store; nothing touches it until such a row runs.
    """
    sizes = QUICK if quick else FULL
    cycles, figure_cycles = sizes["cycles"], sizes["figure_cycles"]
    fleet_rows, fleet_cycles = sizes["fleet_rows"], sizes["fleet_cycles"]
    sweep_cycles = sizes["sweep_cycles"]
    rows: list[Row] = []
    pairs: list[tuple[str, str, str]] = []

    # The exact kernels on four 8x16 systems, and figure2 in this
    # process.  Their meta carries no repeat count: the kernel rows
    # repeat ``parameters["repeat"]`` times, the figure2 rows once.
    for pair, config, workload in KERNEL_PAIRS:
        meta = {"cycles": cycles, "config": config.describe(),
                "workload": workload.describe() if workload else "uniform"}
        rows += [
            Row(f"kernel_{kernel}_{pair}",
                partial(time_simulation, config, workload, cycles, kernel),
                {**meta, "kernel": kernel}, sizes["repeat"], sizes["warmup"])
            for kernel in ("reference", "fast")
        ]
        pairs.append((pair, f"kernel_reference_{pair}", f"kernel_fast_{pair}"))
    rows += [
        Row(f"scenario_figure2_{kernel}",
            partial(time_figure2, figure_cycles, kernel),
            {"cycles": figure_cycles, "kernel": kernel}, 1, sizes["warmup"])
        for kernel in ("reference", "fast")
    ]
    pairs.append(("scenario_figure2", "scenario_figure2_reference",
                  "scenario_figure2_fast"))

    # The paper's analytic models, the event engine and the result
    # store, at one size in both modes.  Calls of about 1 ms or less
    # loop ``loops`` times, so that one timed run lasts about 50 ms.
    # The builders import and set up outside the timed runs, so these
    # rows skip the warm-up to keep the quick run short.
    rows += [
        row("model_occupancy_chain", time_occupancy_chain,
            {"n": 16, "m": 16, "service_width": 9, "loops": 1}, repeat=1,
            warmup=0),
        row("model_reduced_chain", partial(time_reduced_chain, 64),
            {"n": 8, "m": 16, "r": 12, "loops": 64}, warmup=0),
        row("model_mva", partial(time_mva, 512),
            {"config": BUFFERED_FLEET_CONFIG.describe(), "loops": 512},
            warmup=0),
        row("des_engine", partial(time_event_engine, 10_000),
            {"events": 10_000, "loops": 1}, warmup=0),
        row("cache_hit",
            partial(time_cache, os.path.join(scratch, "hit"), 1024, True),
            {"cells": 64, "loops": 1024}, warmup=0),
        row("cache_store",
            partial(time_cache, os.path.join(scratch, "store"), 256, False),
            {"cells": 64, "loops": 256}, warmup=0),
    ]

    # One figure2-shaped replication fleet through every kernel.  The
    # reference leg takes ~30 s at full size, too long to repeat.
    rows += [
        fleet_row("batch_fleet_reference", "reference", fleet_rows,
                  fleet_cycles, repeat=1, warmup=0),
        fleet_row("batch_fleet_fast", "fast", fleet_rows, fleet_cycles),
        fleet_row("batch_fleet_batch", "batch", fleet_rows, fleet_cycles),
    ]
    pairs += [
        ("batch_fleet_vs_fast", "batch_fleet_fast", "batch_fleet_batch"),
        ("batch_fleet_vs_reference", "batch_fleet_reference",
         "batch_fleet_batch"),
    ]

    # The same fleet over the buffered machine, the circular-queue hot
    # path the batch kernel vectorizes; no reference leg (minutes per
    # run at full size).  The latency leg adds the per-row sketches.
    rows += [
        fleet_row("buffered_fleet_fast", "fast", fleet_rows, fleet_cycles,
                  BUFFERED_FLEET_CONFIG),
        fleet_row("buffered_fleet_batch", "batch", fleet_rows, fleet_cycles,
                  BUFFERED_FLEET_CONFIG),
        fleet_row("buffered_fleet_batch_latency", "batch", fleet_rows,
                  fleet_cycles, BUFFERED_FLEET_CONFIG, collect_latency=True),
    ]
    pairs += [
        ("buffered_fleet_vs_fast", "buffered_fleet_fast",
         "buffered_fleet_batch"),
        ("buffered_fleet_latency_vs_fast", "buffered_fleet_fast",
         "buffered_fleet_batch_latency"),
    ]

    # The batch crossover: both fleets at smaller row counts, where the
    # lockstep kernel's per-cycle cost is shared by fewer rows.  The
    # two machines cross at different sizes, so each gets its ratio.
    # The legs above have already paid numpy's one-off costs.
    for count in (8, 32) if quick else (8, 32, 128):
        for machine, config in (("unbuffered", FLEET_CONFIG),
                                ("buffered", BUFFERED_FLEET_CONFIG)):
            leg = f"crossover_{machine}_{count}"
            rows += [
                fleet_row(f"{leg}_{kernel}", kernel, count, fleet_cycles,
                          config, warmup=0)
                for kernel in ("fast", "batch")
            ]
            pairs.append((f"{leg}_vs_fast", f"{leg}_fast", f"{leg}_batch"))

    # The sweep service over forked workers, uncached: the scaling
    # curve (orchestration overhead on a host with few cores).  Then
    # one store for both cache legs, run in this order: the cold leg
    # fills the fresh store exactly once (a warm-up or a repeat would
    # fill it first), and the coordinator's pre-lease probe serves
    # every unit of the warm leg.
    sweep = {"scenario": "figure2", "cycles": sweep_cycles, "kernel": "fast"}
    rows += [
        row(f"sweep_workers_{workers}",
            partial(time_figure2, sweep_cycles, "fast", workers),
            {**sweep, "workers": workers}, repeat=1, warmup=0)
        for workers in (1, 2, 4, 8)
    ]
    pairs.append(("sweep_workers_4_vs_1", "sweep_workers_1", "sweep_workers_4"))
    store = os.path.join(scratch, "sweep")
    rows += [
        row(f"sweep_cache_{cache}",
            partial(time_figure2, sweep_cycles, "fast", 2, store),
            {**sweep, "workers": 2, "cache": cache}, repeat=repeat, warmup=0)
        for cache, repeat in (("cold", 1), ("warm", 2))
    ]
    pairs.append(("warm_cache_collapse", "sweep_cache_cold", "sweep_cache_warm"))
    replications, plan_cycles = (4, 300) if quick else (16, 1_200)
    rows.append(row("sweep_plan_affine",
                    partial(time_planned_sweep, replications, plan_cycles),
                    {"replications": replications, "cycles": plan_cycles,
                     "kernel": "batch", "workers": 2}))

    # Fleet packing: the shape-fragmented grid as one super-fleet call.
    packed = {"replications": sizes["packed_replications"],
              "cycles": sizes["packed_cycles"], "kernel": "batch"}
    rows.append(row("packed_sweep_packed",
                    partial(time_packed_sweep, packed["replications"],
                            packed["cycles"]),
                    {**packed, **BATCH_META}))
    return rows, pairs


def run(rows: list[Row],
        pairs: list[tuple[str, str, str]]) -> tuple[list[dict], dict]:
    """Time every row, then every speedup pair: ``(results,
    speedups)``."""
    results = []
    seconds = {}
    for entry in rows:
        best, mean = best_of(entry.repeat, entry.build(), warmup=entry.warmup)
        seconds[entry.name] = best
        results.append({"name": entry.name, "seconds": best, "mean": mean,
                        "meta": entry.meta})
        print(f"{entry.name}: {best:.3f}s", file=sys.stderr)
    speedups = {
        key: seconds[numerator] / seconds[denominator]
        for key, numerator, denominator in pairs
    }
    for key, value in speedups.items():
        print(f"speedup {key}: {value:.2f}x", file=sys.stderr)
    return results, speedups


def status(ratio: float, higher_is_better: bool) -> str:
    """The verdict on a new/old ``ratio`` of seconds or of speedups."""
    worse, better = ratio > 1.0 + THRESHOLD, ratio < 1.0 - THRESHOLD
    if higher_is_better:
        worse, better = better, worse
    return "REGRESSION" if worse else "improved" if better else "ok"


def compare_reports(old: dict, new: dict):
    """Per-benchmark comparison of two report payloads.

    Returns ``(lines, regressions)``: a printable table and the names
    that regressed - a same-parameter benchmark more than
    :data:`THRESHOLD` slower, a speedup ratio more than
    :data:`THRESHOLD` lower, or a benchmark missing from ``new``.
    Entries whose ``meta`` parameters differ are skipped (their seconds
    are not comparable), and when the two reports' global
    ``parameters`` blocks differ the speedup section is skipped too:
    ratios like the fleet speedups depend on fleet size, so a
    ``--quick`` run compared against a full baseline must warn about
    nothing rather than flag phantom regressions.
    """
    lines = [
        f"{'benchmark':<42} {'old':>9} {'new':>9} {'ratio':>7}  status"
    ]
    regressions: list[str] = []
    old_results = {entry["name"]: entry for entry in old.get("results", ())}
    for entry in new.get("results", ()):
        name = entry["name"]
        previous = old_results.get(name)
        if previous is None:
            lines.append(f"{name:<42} {'-':>9} {entry['seconds']:>9.3f} {'-':>7}  new")
            continue
        if previous.get("meta") != entry.get("meta"):
            lines.append(
                f"{name:<42} {previous['seconds']:>9.3f} "
                f"{entry['seconds']:>9.3f} {'-':>7}  skipped (parameters differ)"
            )
            continue
        ratio = entry["seconds"] / previous["seconds"]
        verdict = status(ratio, higher_is_better=False)
        if verdict == "REGRESSION":
            regressions.append(name)
        lines.append(
            f"{name:<42} {previous['seconds']:>9.3f} "
            f"{entry['seconds']:>9.3f} {ratio:>6.2f}x  {verdict}"
        )
    # A benchmark the baseline had but this run lost (e.g. batch entries
    # skipped because numpy went missing) could otherwise mask a real
    # slowdown forever.
    new_names = {entry["name"] for entry in new.get("results", ())}
    for name in old_results:
        if name not in new_names:
            lines.append(
                f"{name:<42} {old_results[name]['seconds']:>9.3f} "
                f"{'-':>9} {'-':>7}  MISSING from new report"
            )
            regressions.append(name)
    old_speedups = old.get("speedups", {})
    parameters_match = old.get("parameters") == new.get("parameters")
    for key, value in sorted(new.get("speedups", {}).items()):
        previous = old_speedups.get(key)
        name = f"speedup:{key}"
        if previous is None or previous <= 0:
            lines.append(f"{name:<42} {'-':>9} {value:>8.2f}x {'-':>7}  new")
            continue
        if not parameters_match:
            lines.append(
                f"{name:<42} {previous:>8.2f}x {value:>8.2f}x {'-':>7}  "
                "skipped (parameters differ)"
            )
            continue
        ratio = value / previous
        verdict = status(ratio, higher_is_better=True)
        if verdict == "REGRESSION":
            regressions.append(name)
        lines.append(
            f"{name:<42} {previous:>8.2f}x {value:>8.2f}x "
            f"{ratio:>6.2f}x  {verdict}"
        )
    return lines, regressions


def compare_and_report(baseline_path: str, payload: dict) -> int:
    """Print the comparison table; 4 when anything regressed."""
    with open(baseline_path, "r", encoding="utf-8") as handle:
        old = json.load(handle)
    lines, regressions = compare_reports(old, payload)
    print(f"comparison against {baseline_path}:")
    for line in lines:
        print(line)
    if regressions:
        print(
            f"{len(regressions)} regression(s) beyond {THRESHOLD:.0%}: "
            + ", ".join(regressions),
            file=sys.stderr,
        )
        return 4
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the simulation kernels, analytic models, fleets "
        "and sweep service, writing a stable-schema JSON perf baseline."
    )
    parser.add_argument("--json", metavar="PATH", default="BENCH_kernels.json",
                        help="output file (default BENCH_kernels.json)")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run: smaller sizes, fewer repeats")
    parser.add_argument("--compare", metavar="OLD.json",
                        help="print a regression table against a previous "
                        "report; exit 4 on a regression beyond 25%%")
    parser.add_argument("--compare-only", action="store_true",
                        help="with --compare: compare the existing --json "
                        "report instead of benchmarking")
    args = parser.parse_args(argv)
    if args.compare_only:
        if not args.compare:
            parser.error("--compare-only requires --compare OLD.json")
        with open(args.json, "r", encoding="utf-8") as handle:
            return compare_and_report(args.compare, json.load(handle))
    with tempfile.TemporaryDirectory() as scratch:
        results, speedups = run(*table(args.quick, scratch))
    payload = {
        "schema": SCHEMA,
        "python": sys.version,
        "parameters": QUICK if args.quick else FULL,
        "results": results,
        "speedups": speedups,
    }
    with open(args.json, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.json}", file=sys.stderr)
    if args.compare:
        return compare_and_report(args.compare, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
