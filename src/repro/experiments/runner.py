"""Command-line experiment runner.

Usage::

    python -m repro.experiments                # list experiments
    python -m repro.experiments all            # run everything
    python -m repro.experiments all --jobs 8   # ... on 8 worker processes
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

Parallelism and caching
-----------------------
``--jobs N`` fans experiments out over ``N`` worker processes (and, for
a single experiment that supports it, runs its scenario grid on ``N``
sweep-service workers).  Results are deterministic functions of
``(experiment, seed, cycles)``, so the report bytes are identical
whatever ``N`` is.

Completed results are cached by default under ``$REPRO_CACHE_DIR``
(``~/.cache/repro-single-bus`` if unset), keyed on a content hash of the
experiment id, its parameters and the library source code - re-running
the same command serves the stored grid instantly, and any code change
invalidates the cache automatically.  Disable with ``--no-cache``.
Timings go to stderr so stdout stays byte-reproducible.

Scenarios
---------
``repro-experiments scenario`` enters the declarative scenario
subsystem (:mod:`repro.scenarios`): run a registered scenario or a
TOML/JSON spec file, optionally as one shard of a multi-machine sweep
(``--shard i/k``); see :mod:`repro.scenarios.cli`.

The sweep service
-----------------
``scenario --workers N`` runs a scenario through the distributed sweep
service (:mod:`repro.service`): a coordinator leases planned position
lists to N local workers (forked from the coordinator, each speaking
newline-delimited JSON over a pipe pair), retries the leases of dead or
straggling workers, and merges the streamed results into stdout
byte-identical to the serial ``scenario`` run.  ``sweep-work`` is the
worker end, spawned where the coordinator cannot fork.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from typing import Iterator, Sequence

from repro.experiments.asciichart import render_chart
from repro.experiments.formatting import format_result, format_series
from repro.experiments.registry import (
    ExperimentResult,
    ExperimentSpec,
    all_experiments,
    get,
)

_SERIES_EXPERIMENTS = {"figure2", "figure3", "figure5", "figure6"}

_FAST_CYCLES = 6_000
"""Simulation length used by ``--fast`` (smoke-test quality)."""


def list_experiments() -> str:
    """Human-readable table of everything in the registry."""
    lines = ["available experiments:"]
    for spec in all_experiments():
        lines.append(
            f"  {spec.experiment_id:<14} {spec.paper_artifact:<22} {spec.title}"
        )
    return "\n".join(lines)


def iter_reports(
    ids: Sequence[str],
    fast: bool = False,
    chart: bool = False,
    jobs: int = 1,
    cache=None,
) -> Iterator[str]:
    """Yield one formatted report per experiment, as each completes."""
    for outcome in _run_outcomes(ids, fast=fast, chart=chart, jobs=jobs, cache=cache):
        yield outcome.report


def run_experiments(
    ids: Sequence[str],
    fast: bool = False,
    chart: bool = False,
    jobs: int = 1,
    cache=None,
) -> str:
    """Run the named experiments (or all) and return the full report."""
    return "\n\n".join(
        iter_reports(ids, fast=fast, chart=chart, jobs=jobs, cache=cache)
    )


def _accepts(spec: ExperimentSpec, keyword: str) -> bool:
    """Whether the experiment's ``run`` takes ``keyword``."""
    try:
        return keyword in inspect.signature(spec.run).parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return False


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
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for experiment execution (default 1)",
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
    if args.jobs < 1:
        parser.error("--jobs must be a positive integer")
    if not args.ids:
        print(list_experiments())
        return 0
    from repro.scenarios.cli import open_cache

    cache = open_cache(args)
    collected = []
    for outcome in _run_outcomes(
        args.ids, fast=args.fast, chart=args.chart, jobs=args.jobs, cache=cache
    ):
        collected.append(outcome.result)
        print(outcome.report, flush=True)
        print(flush=True)
        origin = "cached" if outcome.cached else f"{outcome.elapsed:.1f}s"
        print(f"[{outcome.result.experiment_id}: {origin}]", file=sys.stderr)
    if args.markdown:
        from repro.experiments.report import write_markdown_report

        path = write_markdown_report(
            collected, args.markdown, title="Paper-vs-measured report"
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


class _Outcome:
    """One finished experiment: result, rendered report, provenance."""

    __slots__ = ("result", "report", "elapsed", "cached")

    def __init__(
        self,
        result: ExperimentResult,
        report: str,
        elapsed: float,
        cached: bool,
    ) -> None:
        self.result = result
        self.report = report
        self.elapsed = elapsed
        self.cached = cached


def _run_registered(item: tuple[str, dict]) -> tuple[ExperimentResult, float]:
    """Pool worker: run one registered experiment by id (spawn-safe).

    Returns the result with its own wall time, so pooled runs report
    true per-experiment timings.
    """
    experiment_id, kwargs = item
    started = time.time()
    result = get(experiment_id).run(**kwargs)
    return result, time.time() - started


def _run_outcomes(
    ids: Sequence[str],
    fast: bool = False,
    chart: bool = False,
    jobs: int = 1,
    cache=None,
) -> Iterator[_Outcome]:
    """Run experiments (with optional pool and cache), in registry order."""
    if not ids or list(ids) == ["all"]:
        specs = list(all_experiments())
    else:
        specs = [get(experiment_id) for experiment_id in ids]

    run_kwargs: list[dict] = []
    for spec in specs:
        kwargs: dict = {}
        if fast and _accepts(spec, "cycles"):
            kwargs["cycles"] = _FAST_CYCLES
        run_kwargs.append(kwargs)

    # Cache lookups first: the key covers the experiment id and its
    # parameters (never the worker count - jobs must not change bytes).
    results: dict[int, tuple[ExperimentResult, float, bool]] = {}
    if cache is not None:
        from repro.core.errors import ExperimentError
        from repro.experiments.serialization import result_from_payload

        for index, (spec, kwargs) in enumerate(zip(specs, run_kwargs)):
            payload = cache.lookup(_cache_payload(spec, kwargs))
            if payload is not None:
                try:
                    results[index] = (result_from_payload(payload), 0.0, True)
                except ExperimentError:
                    # Malformed payload: treat as a miss and recompute.
                    pass

    pending = [index for index in range(len(specs)) if index not in results]

    # Pooled execution streams: every uncached experiment is submitted
    # up front, but each report is yielded as soon as its (in-order)
    # result arrives, matching the serial path's incremental output.
    executor = None
    futures: dict[int, object] = {}
    if jobs > 1 and len(pending) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # Workers beyond the experiment count are handed down to each
        # experiment's own grid (the cache payload keeps the
        # workers-free kwargs, so worker counts never reach a cache key).
        share = max(1, jobs // len(pending))
        try:
            executor = ProcessPoolExecutor(
                max_workers=min(jobs, len(pending))
            )
            for index in pending:
                kwargs = dict(run_kwargs[index])
                if share > 1 and _accepts(specs[index], "workers"):
                    kwargs["workers"] = share
                futures[index] = executor.submit(
                    _run_registered, (specs[index].experiment_id, kwargs)
                )
        except (OSError, ValueError, ImportError):
            # Pool-less platform (CPython raises ImportError when POSIX
            # semaphores are missing): fall back to the serial loop below.
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)
            executor = None
            futures = {}

    try:
        for index in range(len(specs)):
            spec = specs[index]
            if index in results:
                result, elapsed, cached = results[index]
            elif index in futures:
                result, elapsed = _pooled_result(
                    futures[index], spec, run_kwargs[index]
                )
                cached = False
            else:
                kwargs = dict(run_kwargs[index])
                if jobs > 1 and _accepts(spec, "workers"):
                    kwargs["workers"] = jobs
                started = time.time()
                result = spec.run(**kwargs)
                elapsed = time.time() - started
                cached = False
            if cache is not None and not cached:
                _store_guarded(cache, _cache_payload(spec, run_kwargs[index]), result)
            yield _Outcome(result, _format(spec, result, chart), elapsed, cached)
    finally:
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)


def _pooled_result(future, spec: ExperimentSpec, kwargs: dict):
    """Collect one pooled experiment, recomputing in-process if the
    pool died underneath it."""
    from concurrent.futures.process import BrokenProcessPool

    try:
        return future.result()
    except BrokenProcessPool:
        return _run_registered((spec.experiment_id, kwargs))


def _store_guarded(cache, payload: dict, result: ExperimentResult) -> None:
    """Cache a result; storage failures must never block the run."""
    from repro.core.errors import ConfigurationError
    from repro.experiments.serialization import result_to_payload

    try:
        cache.store(payload, result_to_payload(result))
    except (OSError, ConfigurationError) as exc:
        print(
            f"warning: could not cache {payload['experiment_id']}: {exc}",
            file=sys.stderr,
        )


def _cache_payload(spec: ExperimentSpec, kwargs: dict) -> dict:
    return {"experiment_id": spec.experiment_id, "kwargs": kwargs}


def _format(spec: ExperimentSpec, result: ExperimentResult, chart: bool) -> str:
    is_series = spec.experiment_id in _SERIES_EXPERIMENTS
    formatter = format_series if is_series else format_result
    report = formatter(result)
    if chart and is_series:
        report += "\n\n" + render_chart(result)
    return report


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
