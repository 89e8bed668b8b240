"""Command-line experiment runner.

Usage::

    python -m repro.experiments                # list experiments
    python -m repro.experiments all            # run everything
    python -m repro.experiments all --workers 8   # ... on 8 sweep workers
    python -m repro.experiments table1 figure5
    python -m repro.experiments figure5 --chart
    python -m repro.experiments scenario       # list declarative scenarios
    python -m repro.experiments scenario figure2 --shard 1/4 --workers 8
    python -m repro.experiments scenario figure2 --workers 4
    python -m repro.experiments sweep-work     # one stdio protocol worker
    python -m repro.experiments cache sweep    # sweep orphaned tmp files

Each experiment prints the measured grid next to the paper's published
values (when the paper printed any) in the layout of the original
tables; ``--chart`` additionally renders figure experiments as ASCII
curves.

Execution and caching
---------------------
Every experiment declares the scenario specs it needs - its simulation
grid and its analytic references - and renders their unit results
(:class:`~repro.experiments.registry.ExperimentSpec`).  The runner
compiles the specs of every selected experiment into one unit list and
runs it once (:func:`~repro.scenarios.execute.run_scenarios`): in this
process, or with ``--workers N`` through one sweep-service coordinator
and N workers forked from it.  It then renders the experiments in
registry order.  Results are deterministic functions of each unit's
configuration, seed and cycles, so the report bytes are identical
whatever ``N`` is.

Unit results are cached by default under ``$REPRO_CACHE_DIR``
(``~/.cache/repro-single-bus`` if unset) in the per-unit store that
``repro-experiments scenario`` uses, keyed on a content hash of each
unit (configuration, workload, method and, for simulations, seed and
cycles) and the library source code.  A rerun - or an experiment whose units a scenario run at
the same cycles and seed already computed - is served from the store,
and any code change invalidates it.  Disable with ``--no-cache``.
Timings go to stderr so stdout stays byte-reproducible.

Scenarios
---------
``repro-experiments scenario`` enters the declarative scenario
subsystem (:mod:`repro.scenarios`): run a registered scenario or a
TOML/JSON spec file, optionally as one shard of a multi-machine sweep
(``--shard i/k``); see :mod:`repro.scenarios.cli`.

The sweep service
-----------------
``scenario --workers N`` and ``all --workers N`` run through the
distributed sweep service (:mod:`repro.service`): a coordinator leases
planned position lists to N local workers (forked from the coordinator,
each speaking newline-delimited JSON over a pipe pair), retries the
leases of dead or straggling workers, and merges the streamed results
byte-identical to the serial run.  ``sweep-work`` is the worker end,
spawned where the coordinator cannot fork.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import TYPE_CHECKING, Sequence

from repro.core.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.experiments.registry import ExperimentResult

_SERIES_EXPERIMENTS = {"figure2", "figure3", "figure5", "figure6"}

_FAST_CYCLES = 6_000
"""Simulation length used by ``--fast`` (smoke-test quality)."""


def list_experiments() -> str:
    """Human-readable table of everything in the registry."""
    from repro.experiments.registry import all_experiments

    lines = ["available experiments:"]
    for spec in all_experiments():
        lines.append(
            f"  {spec.experiment_id:<14} {spec.paper_artifact:<22} {spec.title}"
        )
    return "\n".join(lines)


def run_experiments(
    ids: Sequence[str],
    cycles: int | None = None,
    seed: int | None = None,
    cache=None,
    workers: int | None = None,
    telemetry: dict | None = None,
) -> list[ExperimentResult]:
    """Run the named experiments (``all`` or none: every one) as one
    unit list and return their results in order.

    Simulated specs run at ``cycles`` per unit (default: each
    experiment's own length) under ``seed`` (default: the paper seed
    1985).  The declared specs of every experiment execute once through
    :func:`~repro.scenarios.execute.run_scenarios` - in this process,
    or on ``workers`` forked sweep workers - on the per-unit ``cache``,
    so a unit two experiments declare is computed once.  ``telemetry``
    receives the unit count (``units``), how many came from the cache
    (``from_cache``) and, with ``workers``, the service's counters.
    """
    from repro.experiments.registry import all_experiments, get
    from repro.scenarios.builtin import PAPER_SEED
    from repro.scenarios.execute import run_scenarios

    if not ids or list(ids) == ["all"]:
        experiments = list(all_experiments())
    else:
        experiments = [get(experiment_id) for experiment_id in ids]
    declared = [
        tuple(
            experiment.scenarios(
                experiment.cycles if cycles is None else cycles,
                PAPER_SEED if seed is None else seed,
            )
        )
        for experiment in experiments
    ]
    groups = run_scenarios(
        [spec for specs in declared for spec in specs],
        cache=cache,
        workers=workers,
        telemetry=telemetry,
    )
    if telemetry is not None:
        telemetry["units"] = sum(len(group) for group in groups)
        telemetry["from_cache"] = sum(
            result.cached for group in groups for result in group
        )
    remaining = iter(groups)
    return [
        experiment.render([next(remaining) for _ in specs])
        for experiment, specs in zip(experiments, declared)
    ]


def run_experiment(experiment_id: str, **options) -> ExperimentResult:
    """One experiment's result (:func:`run_experiments` options)."""
    return run_experiments([experiment_id], **options)[0]


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point (also installed as ``repro-experiments``)."""
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv and argv[0] == "scenario":
        from repro.scenarios.cli import main as scenario_main

        return scenario_main(argv[1:])
    if argv and argv[0] == "sweep-work":
        from repro.service.cli import work_main

        return work_main(argv[1:])
    if argv and argv[0] == "cache":
        return cache_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of the ISCA 1985 "
        "multiplexed single-bus paper.",
    )
    parser.add_argument(
        "ids",
        nargs="*",
        help="experiment ids to run (or 'all'); with no ids, lists them",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="use short simulations (smoke test quality)",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="render figure experiments as ASCII charts",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="run every experiment's units through the sweep service: "
        "one coordinator leases them to N local workers forked from it; "
        "stdout stays byte-identical to the serial run",
    )
    parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reuse cached results for identical runs (default on; "
        "--no-cache disables)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="cache directory (default $REPRO_CACHE_DIR or "
        "~/.cache/repro-single-bus)",
    )
    parser.add_argument(
        "--markdown",
        metavar="PATH",
        help="additionally write a markdown paper-vs-measured report",
    )
    args = parser.parse_args(argv)
    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be a positive integer")
    if not args.ids:
        print(list_experiments())
        return 0
    from repro.scenarios.cli import open_cache

    cache = open_cache(args)
    telemetry: dict = {}
    started = time.time()
    try:
        results = run_experiments(
            args.ids,
            cycles=_FAST_CYCLES if args.fast else None,
            cache=cache,
            workers=args.workers,
            telemetry=telemetry,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.time() - started
    for result in results:
        print(_format(result, args.chart), flush=True)
        print(flush=True)
    print(
        f"[{len(results)} experiment{'s' if len(results) != 1 else ''}: "
        f"{telemetry['units']} units in {elapsed:.1f}s, "
        f"{telemetry['from_cache']} from cache]",
        file=sys.stderr,
    )
    if args.markdown:
        from repro.experiments.report import write_markdown_report

        path = write_markdown_report(
            results, args.markdown, title="Paper-vs-measured report"
        )
        print(f"markdown report written to {path}")
    return 0


def cache_main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``repro-experiments cache ...`` maintenance.

    ``cache sweep`` removes the ``*.tmp`` staging files abandoned by
    writers killed mid-store and reports the store's entry count and
    on-disk size - the maintenance that used to require a destructive
    :meth:`~repro.parallel.cache.ResultCache.clear`.  Entries are never
    touched.
    """
    parser = argparse.ArgumentParser(
        prog="repro-experiments cache",
        description="Inspect and maintain the shared result cache "
        "without deleting any entries.",
    )
    parser.add_argument(
        "action",
        choices=("sweep",),
        help="'sweep' unlinks orphaned *.tmp staging files (abandoned "
        "by killed writers) and prints store statistics; cached "
        "entries are left untouched",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="cache directory (default $REPRO_CACHE_DIR or "
        "~/.cache/repro-single-bus)",
    )
    args = parser.parse_args(argv)
    from repro.core.errors import ConfigurationError
    from repro.parallel.cache import ResultCache

    try:
        cache = ResultCache(cache_dir=args.cache_dir)
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    swept = cache.sweep_orphans()
    entries = 0
    size = 0
    for path in cache._entry_paths():
        try:
            size += path.stat().st_size
            entries += 1
        except OSError:  # racing deleters: the entry just vanished
            pass
    print(
        f"[cache {cache.cache_dir}: swept {swept} orphaned tmp "
        f"file{'s' if swept != 1 else ''}, {entries} "
        f"entr{'ies' if entries != 1 else 'y'} kept, {size} bytes]"
    )
    return 0


def _format(result: ExperimentResult, chart: bool) -> str:
    from repro.experiments.asciichart import render_chart
    from repro.experiments.formatting import format_result, format_series

    is_series = result.experiment_id in _SERIES_EXPERIMENTS
    formatter = format_series if is_series else format_result
    report = formatter(result)
    if chart and is_series:
        report += "\n\n" + render_chart(result)
    return report


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
