"""End-to-end benchmark of ``repro-experiments scenario`` runs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tables-fast [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, one table

One run: a discarded warm-up pass, then set-up passes (``--cycles 1``)
alternating with full passes (``--cycles 2000``) until ``--seconds``
have passed and at least three of each ran, each pass on a fresh
result store.  End-to-end metrics are the medians over passes.  With
``--trace 1`` one more full pass runs under the layer wrappers of
``tracer.py`` and the per-layer metrics are reported instead.  Every
pass's output is checked (``checks.py``); the last stdout line is the
JSON result.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time

import checks
import launch
import layers
from workloads import CYCLES, DEFAULT_SEED, SETUP_CYCLES, WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
CHECKOUT = HERE.parent
MIN_PASSES = 3
RUN_LIMIT_S = 170.0
"""Hard budget for one run; invocations past it are not started."""
INVOCATION_TIMEOUT_S = 60.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class Run:
    """One workload run: passes, checks, and the samples they yield."""

    def __init__(self, workload, seed: int, workdir: pathlib.Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.env = launch.program_env(CHECKOUT)
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.loads: list[float] = []
        self.first_stdout: dict[tuple, str] = {}
        self.units: dict[str, list[dict]] = {}
        """Parsed unit lines of the first full pass, per scenario."""
        self.pins = json.loads((HERE / "pins.json").read_text())
        self._stores = 0

    def argv(self, scenario: str, flags, cycles: int, store) -> list[str]:
        return [
            sys.executable, "-m", "repro.experiments", "scenario", scenario,
            *flags, "--cycles", str(cycles), "--seed", str(self.seed),
            "--cache-dir", str(store),
        ]

    def run_pass(self, cycles: int, flags=None, trace_dir=None) -> dict:
        """Every invocation of the workload once, on one fresh store."""
        workload = self.workload
        flags = workload.flags if flags is None else flags
        self._stores += 1
        store = self.workdir / f"store-{self._stores}"
        self.loads.append(os.getloadavg()[0])
        sample = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "traced": []}
        expected_total = 0
        for scenario, expected in workload.scenarios:
            expected_total += expected
            self.attempted += expected
            argv = self.argv(scenario, flags, cycles, store)
            if trace_dir is not None:
                invocation_dir = trace_dir / scenario
                invocation_dir.mkdir(parents=True)
                argv[1:3] = [str(HERE / "traced_entry.py"), str(invocation_dir)]
            remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
            if remaining < 1:
                self.fail(expected, f"{scenario}: run budget exhausted")
                continue
            result = launch.launch(
                argv, self.env, self.workdir,
                min(INVOCATION_TIMEOUT_S, remaining),
            )
            sample["wall_s"] += result.wall_s
            sample["cpu_s"] += result.cpu_s
            sample["peak_rss_mb"] = max(sample["peak_rss_mb"], result.peak_rss_mb)
            self.check(scenario, expected, cycles, flags, result)
            if trace_dir is not None:
                sample["traced"].append(
                    (layers.load_processes(str(invocation_dir)), result.wall_s)
                )
        entries, litter = launch.store_state(store)
        if entries != expected_total or litter:
            self.fail(
                expected_total,
                f"store held {entries} entries for {expected_total} units "
                f"and {litter} staging files",
            )
        shutil.rmtree(store, ignore_errors=True)
        return sample

    def fail(self, units: int, why: str) -> None:
        self.failed += units
        self.notes.append(f"FAILED {units} unit(s): {why}")

    def check(self, scenario, expected, cycles, flags, result) -> None:
        if result.returncode != 0:
            self.fail(expected, f"{scenario}: exit {result.returncode} "
                      f"{result.stderr.strip()[-300:]!r}")
            return
        if checks.parse_summary(result.stderr) != (expected, 0):
            self.fail(expected, f"{scenario}: summary is not "
                      f"[{expected} units ..., 0 from cache]")
            return
        failed, units = checks.failed_units(
            result.stdout, expected, cycles, self.seed,
            self.workload.latency, paper_check=cycles == CYCLES,
        )
        if cycles == CYCLES:
            key = (scenario, tuple(flags))
            reference = self.first_stdout.setdefault(key, result.stdout)
            failed |= checks.differing_lines(result.stdout, reference)
            failed |= self.check_digest(scenario, flags, result.stdout)
            if flags == self.workload.flags:
                self.units.setdefault(scenario, units)
        if failed:
            self.fail(len(failed), f"{scenario}: units {sorted(failed)[:10]}")

    def check_digest(self, scenario, flags, stdout) -> set[int]:
        """Pinned bytes at the default seed; the merge contract for w2."""
        workload = self.workload
        if workload.same_as is not None and flags == workload.flags:
            serial = WORKLOADS[workload.same_as].flags
            return checks.differing_lines(
                stdout, self.first_stdout[(scenario, serial)]
            )
        if self.seed != self.pins["seed"] or self.pins["cycles"] != CYCLES:
            return set()
        name = workload.name if workload.same_as is None else workload.same_as
        pinned = self.pins["stdout_sha256"][name][scenario]
        if checks.sha256(stdout) == pinned:
            return set()
        if workload.pinned:
            return set(range(len(stdout.splitlines()) or 1))
        self.notes.append(f"note: {name} {scenario} digest changed from the pin")
        return set()


HOST_PROBE = """
import importlib, json
found = {}
for name in ("numpy", "numba", "cupy"):
    try:
        found[name] = getattr(importlib.import_module(name), "__version__", True)
    except Exception:
        found[name] = False
print(json.dumps(found))
"""


def host_record(env) -> dict:
    """nproc, Python and numpy versions, and whether numba/cupy import."""
    try:
        found = json.loads(subprocess.run(
            [sys.executable, "-c", HOST_PROBE], env=env, capture_output=True,
            text=True, timeout=60, check=True,
        ).stdout)
    except (subprocess.SubprocessError, ValueError) as exc:
        found = {"probe_error": str(exc)}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **found,
        "cycles": CYCLES,
    }


def quartiles(values) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    workdir = CHECKOUT / ".perfbench" / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = Run(workload, seed, workdir)
    host = host_record(run.env)
    # Warm-up: compiles bytecode and fills the page cache, which a user
    # pays once, not per run.  Checked, not timed.
    run.run_pass(SETUP_CYCLES)
    if workload.same_as is not None:
        run.run_pass(CYCLES, flags=WORKLOADS[workload.same_as].flags)
    samples = {metric: [] for metric in END_TO_END}
    window_end = time.monotonic() + seconds
    while True:
        pair_start = time.monotonic()
        samples["setup_s"].append(run.run_pass(SETUP_CYCLES)["wall_s"])
        full = run.run_pass(CYCLES)
        for metric in ("wall_s", "cpu_s", "peak_rss_mb"):
            samples[metric].append(full[metric])
        now = time.monotonic()
        # Start another pair only if at least half of it fits the window.
        fits = now + (now - pair_start) / 2 <= window_end
        if len(samples["wall_s"]) >= MIN_PASSES and not fits:
            break
        if now - run.started > RUN_LIMIT_S / 2:
            break
    metrics = {
        metric: {"value": statistics.median(values), "unit": END_TO_END[metric]}
        for metric, values in samples.items()
    }
    errors = checks.ebw_errors(
        unit for units in run.units.values() for unit in units
    )
    ebw_err_mean = statistics.fmean(errors) if errors else 0.0
    if trace:
        traced = run.run_pass(CYCLES, trace_dir=workdir / "trace")
        per_layer = layers.layer_metrics(traced["traced"])
        per_layer["trace.overhead_s"] = (
            per_layer["trace.wall_s"] - metrics["wall_s"]["value"]
        )
        per_layer["ebw_err_mean"] = ebw_err_mean
        (workdir / "trace.json").write_text(
            json.dumps(layers.chrome_trace(traced["traced"]))
        )
        spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
        result_metrics = {
            entry["name"]: {
                "value": per_layer[entry["name"]], "unit": entry["unit"]
            }
            for entry in spec["per_layer"]
        }
    else:
        result_metrics = metrics
    report = {
        "workload": name,
        "seed": seed,
        "host": host,
        "load_1min_before_each_pass": run.loads,
        "samples": samples,
        "quartiles": {m: quartiles(v) for m, v in samples.items()},
        "failed_frac": run.failed / run.attempted,
        "ebw_err_mean": ebw_err_mean,
        "notes": run.notes,
    }
    (workdir / "result.json").write_text(json.dumps(report, indent=1))
    print_report(report, metrics, run)
    if trace:
        for metric, value in result_metrics.items():
            print(f"  {metric:<28} {value['value']:>14.6g} {value['unit']}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": result_metrics,
    }


def print_report(report, metrics, run) -> None:
    print(f"workload {report['workload']} seed {report['seed']} "
          f"host {json.dumps(report['host'])}")
    print(f"  load_1min before passes: {report['load_1min_before_each_pass']}")
    for metric, value in metrics.items():
        q1, _, q3 = report["quartiles"][metric]
        print(f"  {metric:<14} {value['value']:>12.6f} {value['unit']:<4} "
              f"(median of {len(report['samples'][metric])} passes, "
              f"quartiles {q1:.6f}..{q3:.6f})")
    print(f"  {'failed_frac':<14} {report['failed_frac']:>12.6f} fraction "
          f"({run.failed} of {run.attempted} units)")
    print(f"  {'ebw_err_mean':<14} {report['ebw_err_mean']:>12.6f} fraction "
          f"(mean |EBW - paper| / paper)")
    for note in report["notes"]:
        print(f"  {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (CHECKOUT / "src" / "repro").is_dir():
        print(f"error: no program sources under {CHECKOUT / 'src'}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace))
        for name in names
    }
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, result in results.items()
                for metric, value in result["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
