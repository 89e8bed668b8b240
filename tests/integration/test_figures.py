"""Integration: the figure experiments reproduce the paper's shapes.

Short runs verify the qualitative structure that the paper reads off
each figure, keeping the assertion thresholds generous enough for the
reduced cycle counts.
"""

from __future__ import annotations

import dataclasses

import pytest

pytestmark = pytest.mark.slow

from repro.experiments import paper_data
from repro.experiments.figure2 import check_claims as check_figure2
from repro.experiments.figure5 import check_claims as check_figure5
from repro.experiments.runner import run_experiment
from repro.scenarios.execute import run_scenario
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ReplicationPlan

CYCLES = 3_000
SEED = 99


@pytest.fixture(scope="module")
def figure2_result():
    # The near-crossbar claim needs tighter statistics than the shape
    # checks, hence the longer window for this figure.
    return run_experiment("figure2", cycles=8_000, seed=SEED)


@pytest.fixture(scope="module")
def figure3_result():
    return run_experiment("figure3", cycles=CYCLES, seed=SEED)


@pytest.fixture(scope="module")
def figure5_result():
    return run_experiment("figure5", cycles=CYCLES, seed=SEED)


@pytest.fixture(scope="module")
def figure6_result():
    return run_experiment("figure6", cycles=CYCLES, seed=SEED)


def utilisation_range(scenario: str) -> tuple[float, float]:
    """Lowest and highest processor utilisation of a whole figure at
    8,000 cycles under seed 7 on the fast kernel (bit-identical to the
    reference loop)."""
    spec = dataclasses.replace(
        get_scenario(scenario), cycles=8_000, plan=ReplicationPlan(1, 7)
    )
    values = [
        result.processor_utilization
        for result in run_scenario(spec, kernel="fast")
    ]
    return min(values), max(values)


class TestFigure2:
    def test_claims(self, figure2_result):
        checks = check_figure2(figure2_result)
        assert checks.processors_beat_memories
        assert checks.ebw_above_crossbar_at_large_r

    def test_ebw_grows_with_r(self, figure2_result):
        for n, m in paper_data.FIGURE2_SYSTEMS:
            row = f"{n}x{m} priority=processors"
            first = figure2_result.measured[(row, "r=2")]
            last = figure2_result.measured[(row, "r=24")]
            assert last > first

    def test_saturation_region(self, figure2_result):
        # 16x16 saturates at (r+2)/2 for r < 16.
        for r in (2, 4, 6, 8):
            value = figure2_result.measured[
                ("16x16 priority=processors", f"r={r}")
            ]
            assert value == pytest.approx((r + 2) / 2, rel=0.02)


class TestFigure3:
    def test_utilisation_monotone_in_p(self, figure3_result):
        # For every r, utilisation at light load beats heavy load.
        for r in paper_data.FIGURE3_R_VALUES:
            light = figure3_result.measured[(f"r={r}", "p=0.1")]
            heavy = figure3_result.measured[(f"r={r}", "p=1")]
            assert light > heavy

    def test_utilisation_in_range(self):
        # A finite window can overshoot 1 slightly at its edges.
        low, high = utilisation_range("figure3")
        assert 0.0 < low and high <= 1.1

    def test_larger_r_more_efficient_at_heavy_load(self, figure3_result):
        heavy = [
            figure3_result.measured[(f"r={r}", "p=1")]
            for r in paper_data.FIGURE3_R_VALUES
        ]
        assert heavy[0] < heavy[-1]


class TestFigure5:
    def test_claims(self, figure5_result):
        checks = check_figure5(figure5_result)
        assert checks.buffered_dominates_unbuffered
        assert checks.buffered_exceeds_crossbar_somewhere

    def test_buffered_peak_then_decay(self, figure5_result):
        row = [
            figure5_result.measured[("8x8 with buffers", f"r={r}")]
            for r in paper_data.FIGURE5_R_VALUES
        ]
        peak_index = row.index(max(row))
        assert 0 < peak_index < len(row) - 1
        assert row[-1] < max(row)


class TestFigure6:
    def test_utilisation_in_range(self):
        low, high = utilisation_range("figure6")
        assert 0.0 < low and high <= 1.1

    def test_buffered_utilisation_dominates_unbuffered(
        self, figure3_result, figure6_result
    ):
        for r in (8, 12, 16):
            buffered = figure6_result.measured[(f"r={r}", "p=1")]
            unbuffered = figure3_result.measured[(f"r={r}", "p=1")]
            assert buffered >= unbuffered * 0.97

    def test_gap_closes_at_light_load(self, figure3_result, figure6_result):
        gap_heavy = (
            figure6_result.measured[("r=12", "p=1")]
            - figure3_result.measured[("r=12", "p=1")]
        )
        gap_light = (
            figure6_result.measured[("r=12", "p=0.2")]
            - figure3_result.measured[("r=12", "p=0.2")]
        )
        assert gap_heavy > gap_light - 0.02
