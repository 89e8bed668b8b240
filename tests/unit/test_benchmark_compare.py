"""Unit tests for the benchmark comparison table.

``benchmarks/run_benchmarks.py`` is a script, not a package module, so
it is loaded by path; :func:`compare_reports` is pure (two payload
dicts in, table lines and regression names out), which is what makes
the regression gate testable without timing anything.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

_SCRIPT = (
    pathlib.Path(__file__).resolve().parent.parent.parent
    / "benchmarks"
    / "run_benchmarks.py"
)
_spec = importlib.util.spec_from_file_location("run_benchmarks", _SCRIPT)
run_benchmarks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_benchmarks)


def _report(results, speedups):
    return {
        "schema": run_benchmarks.SCHEMA,
        "results": results,
        "speedups": speedups,
    }


def test_same_parameter_slowdown_beyond_threshold_regresses():
    old = _report(
        [{"name": "kernel_fast_x", "seconds": 1.0, "meta": {"cycles": 10}}],
        {},
    )
    new = _report(
        [{"name": "kernel_fast_x", "seconds": 1.5, "meta": {"cycles": 10}}],
        {},
    )
    lines, regressions = run_benchmarks.compare_reports(old, new)
    assert regressions == ["kernel_fast_x"]
    assert any("REGRESSION" in line for line in lines)


def test_small_jitter_is_ok_and_speedup_is_improvement():
    old = _report(
        [{"name": "a", "seconds": 1.0, "meta": {}}],
        {"pair": 8.0},
    )
    new = _report(
        [{"name": "a", "seconds": 1.1, "meta": {}}],
        {"pair": 11.0},
    )
    lines, regressions = run_benchmarks.compare_reports(old, new)
    assert regressions == []
    text = "\n".join(lines)
    assert "ok" in text and "improved" in text


def test_parameter_mismatch_is_skipped_not_compared():
    old = _report(
        [{"name": "a", "seconds": 10.0, "meta": {"cycles": 100_000}}],
        {},
    )
    new = _report(
        [{"name": "a", "seconds": 1.0, "meta": {"cycles": 20_000}}],
        {},
    )
    lines, regressions = run_benchmarks.compare_reports(old, new)
    assert regressions == []
    assert any("parameters differ" in line for line in lines)


def test_speedup_drop_beyond_threshold_regresses():
    old = _report([], {"batch_fleet_vs_fast": 6.0})
    new = _report([], {"batch_fleet_vs_fast": 4.0})
    lines, regressions = run_benchmarks.compare_reports(old, new)
    assert regressions == ["speedup:batch_fleet_vs_fast"]


def test_new_entries_are_reported_without_regressing():
    old = _report([], {})
    new = _report(
        [{"name": "batch_fleet_batch", "seconds": 0.5, "meta": {}}],
        {"batch_fleet_vs_fast": 6.0},
    )
    lines, regressions = run_benchmarks.compare_reports(old, new)
    assert regressions == []
    assert sum(line.rstrip().endswith("new") for line in lines) == 2


def test_compare_only_reads_existing_report(tmp_path, capsys):
    import json

    new_path = tmp_path / "new.json"
    old_path = tmp_path / "old.json"
    new_path.write_text(
        json.dumps(
            _report([{"name": "a", "seconds": 2.0, "meta": {}}], {})
        )
    )
    old_path.write_text(
        json.dumps(
            _report([{"name": "a", "seconds": 1.0, "meta": {}}], {})
        )
    )
    code = run_benchmarks.main(
        ["--json", str(new_path), "--compare", str(old_path), "--compare-only"]
    )
    assert code == 4
    assert "REGRESSION" in capsys.readouterr().out


def test_speedups_skipped_when_global_parameters_differ():
    old = _report([], {"batch_fleet_vs_fast": 7.0})
    old["parameters"] = {"fleet_rows": 512}
    new = _report([], {"batch_fleet_vs_fast": 1.5})
    new["parameters"] = {"fleet_rows": 64}
    lines, regressions = run_benchmarks.compare_reports(old, new)
    assert regressions == []
    assert any("parameters differ" in line for line in lines)


def test_benchmark_missing_from_new_report_regresses():
    old = _report(
        [{"name": "batch_fleet_batch", "seconds": 0.5, "meta": {}}], {}
    )
    new = _report([], {})
    lines, regressions = run_benchmarks.compare_reports(old, new)
    assert regressions == ["batch_fleet_batch"]
    assert any("MISSING" in line for line in lines)


@pytest.mark.parametrize(
    "quick, baseline",
    [(False, "BENCH_kernels.json"), (True, "BENCH_kernels_quick.json")],
)
def test_tables_cover_the_committed_baseline(quick, baseline, tmp_path):
    # Builds both tables without timing anything, so dropping or
    # renaming a row or a speedup pair fails here rather than only in
    # CI's warn-only compare.
    rows, pairs = run_benchmarks.table(quick, str(tmp_path))
    metas = {row.name: row.meta for row in rows}
    assert len(metas) == len(rows)
    keys = {key for key, _, _ in pairs}
    assert len(keys) == len(pairs)
    for _, numerator, denominator in pairs:
        assert numerator in metas and denominator in metas
    report = json.loads((_SCRIPT.parent.parent / baseline).read_text())
    expected = run_benchmarks.QUICK if quick else run_benchmarks.FULL
    assert report["parameters"] == expected
    for entry in report["results"]:
        assert entry["name"] in metas
        assert metas[entry["name"]] == entry["meta"]
    assert set(report["speedups"]) <= keys
