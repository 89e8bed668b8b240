"""Unit tests for the markdown report generator and the hot-spot
extension experiment."""

from __future__ import annotations

import pytest

from repro.core.config import SystemConfig
from repro.core.policy import Priority
from repro.engine.base import EvalRequest
from repro.experiments.hot_spot import degradation_at
from repro.experiments.registry import ExperimentResult
from repro.experiments.report import (
    result_to_markdown,
    results_to_markdown,
    write_markdown_report,
)
from repro.experiments.runner import run_experiment
from repro.parallel.workers import run_case
from repro.workloads.spec import HotSpotWorkload


def make_result() -> ExperimentResult:
    return ExperimentResult(
        experiment_id="demo",
        title="Demo table",
        row_label="n",
        column_label="m",
        rows=("n=2",),
        columns=("m=2", "m=4"),
        measured={("n=2", "m=2"): 1.5, ("n=2", "m=4"): 1.75},
        reference={("n=2", "m=2"): 1.5},
        notes="demo note",
    )


class TestMarkdown:
    def test_section_structure(self):
        text = result_to_markdown(make_result())
        assert text.startswith("### Demo table")
        assert "| n\\m | m=2 | m=4 |" in text
        assert "1.500 (1.500)" in text
        assert "1.750" in text
        assert "worst |err|" in text
        assert "> demo note" in text

    def test_without_reference(self):
        result = ExperimentResult(
            experiment_id="x",
            title="X",
            row_label="a",
            column_label="b",
            rows=("r",),
            columns=("c",),
            measured={("r", "c"): 2.0},
        )
        text = result_to_markdown(result)
        assert "worst" not in text
        assert "2.000" in text

    def test_document(self):
        text = results_to_markdown([make_result()], title="Report")
        assert text.startswith("# Report")
        assert "### Demo table" in text

    def test_write(self, tmp_path):
        target = write_markdown_report([make_result()], tmp_path / "r.md")
        assert target.exists()
        assert "Demo table" in target.read_text()


class TestHotSpotExperiment:
    @pytest.fixture(scope="class")
    def hot_spot_result(self):
        return run_experiment("hot_spot", cycles=5_000, seed=3)

    def test_degradation_monotone(self, hot_spot_result):
        result = hot_spot_result
        # At heavy hot-spotting every system loses bandwidth relative to
        # uniform traffic.
        for row in result.rows:
            assert degradation_at(result, row, 0.5) > 0.0

    def test_buffering_softens_the_8x8_loss(self):
        # The "8x8 r=8" rows at hot = 0.5, 8,000 cycles, seed 7, on the
        # fast kernel (bit-identical to the experiment's reference loop):
        # half the traffic on one module costs over 20% of EBW, and
        # buffering loses less.
        def degradation(buffered):
            config = SystemConfig(8, 8, 8, priority=Priority.PROCESSORS,
                                  buffered=buffered)
            uniform, hot = (
                run_case(EvalRequest(
                    config, HotSpotWorkload(fraction), cycles=8_000, seed=7,
                )).ebw
                for fraction in (0.0, 0.5)
            )
            return (uniform - hot) / uniform

        unbuffered = degradation(False)
        assert unbuffered > 0.2
        assert degradation(True) < unbuffered

    def test_uniform_column_recovers_paper_numbers(self, hot_spot_result):
        result = hot_spot_result
        value = result.measured[("8x16 r=12 unbuffered", "hot=0")]
        # Table 3(a) cell (16, 12) is 5.959 at full strength.
        assert 5.3 < value < 6.5

    def test_registered(self):
        from repro.experiments.registry import get

        spec = get("hot_spot")
        assert spec.paper_artifact == "Extension"
