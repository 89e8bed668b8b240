"""Unit tests for the experiment registry, formatting and runner."""

from __future__ import annotations

import math

import pytest

from repro.core.errors import ExperimentError
from repro.experiments.formatting import format_result, format_series
from repro.experiments.registry import (
    ExperimentResult,
    all_experiments,
    get,
)
from repro.experiments.runner import list_experiments, main, run_experiments


def make_result(**overrides) -> ExperimentResult:
    defaults = dict(
        experiment_id="demo",
        title="Demo table",
        row_label="n",
        column_label="m",
        rows=("n=2", "n=4"),
        columns=("m=2", "m=4"),
        measured={
            ("n=2", "m=2"): 1.5,
            ("n=2", "m=4"): 1.75,
            ("n=4", "m=2"): 1.8,
            ("n=4", "m=4"): 2.25,
        },
        reference={
            ("n=2", "m=2"): 1.5,
            ("n=2", "m=4"): 1.7,
            ("n=4", "m=2"): 2.0,
        },
        notes="demo",
    )
    defaults.update(overrides)
    return ExperimentResult(**defaults)


class TestExperimentResult:
    def test_measured_value(self):
        assert make_result().measured_value("n=2", "m=2") == 1.5

    def test_measured_value_missing(self):
        with pytest.raises(ExperimentError):
            make_result().measured_value("n=9", "m=9")

    def test_reference_value(self):
        result = make_result()
        assert result.reference_value("n=2", "m=4") == 1.7
        assert result.reference_value("n=4", "m=4") is None

    def test_error_statistics(self):
        result = make_result()
        assert result.worst_absolute_error() == pytest.approx(0.2)
        assert result.worst_relative_error() == pytest.approx(0.1)
        assert result.mean_relative_error() == pytest.approx(
            (0.0 + 0.05 / 1.7 + 0.1) / 3
        )

    def test_error_statistics_without_reference(self):
        result = make_result(reference={})
        assert result.worst_absolute_error() == 0.0
        assert math.isnan(result.mean_relative_error())


class TestRegistry:
    def test_all_experiments_nonempty_and_sorted(self):
        specs = all_experiments()
        ids = [spec.experiment_id for spec in specs]
        assert ids == sorted(ids)
        assert {"table1", "table2", "table3a", "table3b", "table4"} <= set(ids)
        assert {"figure2", "figure3", "figure5", "figure6"} <= set(ids)
        assert "product_form" in ids

    def test_get_known(self):
        spec = get("table1")
        assert spec.paper_artifact == "Table 1"
        assert callable(spec.scenarios) and callable(spec.render)

    def test_get_unknown(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            get("table99")


class TestFormatting:
    def test_format_result_contains_cells_and_stats(self):
        text = format_result(make_result())
        assert "Demo table" in text
        assert "1.500" in text and "2.250" in text
        assert "( 1.700)" in text
        assert "worst |err|" in text
        assert "note: demo" in text

    def test_format_result_without_reference(self):
        text = format_result(make_result(reference={}))
        assert "worst" not in text
        assert "1.750" in text

    def test_missing_cells_rendered_as_dash(self):
        result = make_result(
            measured={("n=2", "m=2"): 1.0}, reference={}
        )
        assert "-" in format_result(result)

    def test_format_series(self):
        text = format_series(make_result())
        assert "Demo table" in text
        assert "n=2" in text
        assert "1.500" in text


class TestRunner:
    def test_list_experiments(self):
        text = list_experiments()
        assert "table1" in text
        assert "Figure 5" in text

    def test_run_single_deterministic_experiment(self):
        (result,) = run_experiments(["table1"])
        report = format_result(result)
        assert "Table 1" in report
        assert "worst |err|" in report

    def test_main_lists_without_arguments(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "available experiments" in out

    def test_main_runs_experiment(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out

    def test_main_writes_markdown_report(self, capsys, tmp_path):
        target = tmp_path / "report.md"
        assert main(["table1", "--markdown", str(target)]) == 0
        out = capsys.readouterr().out
        assert "markdown report written" in out
        content = target.read_text()
        assert content.startswith("# Paper-vs-measured report")
        assert "Table 1" in content

    def test_results_follow_the_requested_order(self):
        results = run_experiments(["table2", "table1"])
        assert [result.experiment_id for result in results] == [
            "table2",
            "table1",
        ]
