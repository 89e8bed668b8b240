"""Output checks: what makes a benchmark unit count as failed.

A workload invocation prints one ``unit NNNNNN ...`` line per compiled
unit on stdout and a ``[N units in Xs, K from cache]`` summary on
stderr.  :func:`failed_units` returns the unit indices whose output is
missing, malformed, duplicated or outside the paper tolerance; a
nonzero exit, a timeout or a summary that does not show ``K = 0`` fails
every unit of the invocation.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import pathlib
import re

PAPER_TOLERANCE = 0.15
"""Largest |EBW - paper| / paper any unit with a published value may
show.  At the benchmark's cycle count the worst unit over 30 seeds sat
below 0.10 on both the fast and the batch kernel."""

_COLUMNS = " ".join(
    rf"{family}_{stat}=(?:\d+\.\d{{6}}|nan)"
    for family in ("wait", "serv", "lat")
    for stat in ("mean", "p50", "p90", "p99", "max")
)
UNIT_LINE = re.compile(
    r"unit (?P<index>\d{6}) n=(?P<n>\d+) m=(?P<m>\d+) r=(?P<r>\d+) "
    r"p=(?P<p>[0-9.e+-]+) priority=(?P<priority>\w+) "
    r"(?P<buffering>unbuffered|buffered\(depth=\d+\)) tie=\S+ "
    r"workload=\S+ method=\S+ seed=(?P<seed>\d+) cycles=(?P<cycles>\d+) "
    r"ebw=(?P<ebw>\d+\.\d{6}) putil=\d+\.\d{6} butil=\d+\.\d{6}"
    rf"(?P<latency> lat_count=(?P<lat_count>\d+) {_COLUMNS})?"
)
SUMMARY_LINE = re.compile(r"\[(\d+) units in [0-9.]+s, (\d+) from cache\]")


def parse_unit_line(line: str) -> dict | None:
    """The fields of one well-formed unit line, or ``None``.

    Percentile columns read ``nan`` only for an empty population
    (``lat_count=0``, as in a one-cycle set-up pass).
    """
    match = UNIT_LINE.fullmatch(line)
    if match is None:
        return None
    if match["latency"] and int(match["lat_count"]) and "nan" in line:
        return None
    return {
        "index": int(match["index"]),
        "n": int(match["n"]),
        "m": int(match["m"]),
        "r": int(match["r"]),
        "p": float(match["p"]),
        "priority": match["priority"],
        "buffered": match["buffering"] != "unbuffered",
        "seed": int(match["seed"]),
        "cycles": int(match["cycles"]),
        "ebw": float(match["ebw"]),
        "latency": match["latency"] is not None,
    }


def parse_summary(stderr: str) -> tuple[int, int] | None:
    """``(units, from_cache)`` of the last stderr summary line."""
    found = SUMMARY_LINE.findall(stderr)
    if not found:
        return None
    units, cached = found[-1]
    return int(units), int(cached)


@functools.cache
def _paper_data():
    """The program's transcription of the paper's tables, loaded alone.

    Loaded by file path so the benchmark process never imports the
    ``repro`` package it measures.
    """
    path = pathlib.Path(__file__).resolve().parent.parent / (
        "src/repro/experiments/paper_data.py"
    )
    spec = importlib.util.spec_from_file_location("paper_data", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def paper_value(unit: dict) -> float | None:
    """Table 3(a) or Table 4 EBW for this unit's system, if published."""
    if unit["n"] != 8 or unit["p"] != 1.0 or unit["priority"] != "processors":
        return None
    paper_data = _paper_data()
    table = (
        paper_data.TABLE4_BUFFERED_SIMULATION
        if unit["buffered"]
        else paper_data.TABLE3A_SIMULATION
    )
    return table.get((unit["m"], unit["r"]))


def ebw_errors(units) -> list[float]:
    """|EBW - paper| / paper for every unit with a published value."""
    errors = []
    for unit in units:
        paper = paper_value(unit)
        if paper is not None:
            errors.append(abs(unit["ebw"] - paper) / paper)
    return errors


def failed_units(
    stdout: str,
    expected: int,
    cycles: int,
    seed: int,
    latency: bool,
    paper_check: bool = True,
) -> tuple[set[int], list[dict]]:
    """Unit indices that failed, and the parsed well-formed lines.

    Every index ``0 .. expected-1`` must appear on exactly one
    well-formed line carrying the requested cycle count, the
    scenario's latency columns if and only if ``latency``, and (with
    ``paper_check``) an EBW within :data:`PAPER_TOLERANCE` of any
    published value.  A line that cannot be tied to a valid index
    breaks the one-line-per-unit contract and fails every unit.
    """
    everything = set(range(expected))
    seen: dict[int, int] = {}
    failed: set[int] = set()
    units = []
    for line in stdout.splitlines():
        unit = parse_unit_line(line)
        if unit is None or unit["index"] not in everything:
            return everything, []
        index = unit["index"]
        seen[index] = seen.get(index, 0) + 1
        units.append(unit)
        paper = paper_value(unit) if paper_check else None
        if (
            unit["cycles"] != cycles
            or unit["seed"] < seed
            or unit["latency"] != latency
            or (
                paper is not None
                and abs(unit["ebw"] - paper) / paper > PAPER_TOLERANCE
            )
        ):
            failed.add(index)
    failed |= {index for index in everything if seen.get(index) != 1}
    return failed, units


def differing_lines(stdout: str, reference: str) -> set[int]:
    """Line positions where two unit-line outputs differ."""
    ours, theirs = stdout.splitlines(), reference.splitlines()
    length = max(len(ours), len(theirs))
    ours += [""] * (length - len(ours))
    theirs += [""] * (length - len(theirs))
    return {i for i, (a, b) in enumerate(zip(ours, theirs)) if a != b}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
