"""Integration tests: the paper's tables, reproduced and pinned.

Tables 1 and 2 are deterministic model outputs and must match the
printed values to their three decimals.  Table 3(b) uses the
reconstructed Section 4 chain (the scan's transition table is
OCR-damaged), so it is pinned to the printed values with the tolerance
stated in :class:`TestTable3bReconstruction`.  Tables 3(a) and 4 are
stochastic; spot cells are checked with simulation tolerances.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.bus import simulate
from repro.core.config import SystemConfig
from repro.core.policy import Priority
from repro.experiments import paper_data
from repro.models.approx_memory_priority import approximate_memory_priority_ebw
from repro.models.exact_memory_priority import exact_memory_priority_ebw
from repro.models.processor_priority import processor_priority_ebw
from repro.scenarios.execute import run_scenario
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ReplicationPlan


def worst_grid_error(scenario: str, reference: dict) -> float:
    """Worst relative EBW error of a whole simulated table against the
    printed one, at 8,000 cycles under seed 7 on the fast kernel
    (bit-identical to the reference loop)."""
    spec = dataclasses.replace(
        get_scenario(scenario), cycles=8_000, plan=ReplicationPlan(1, 7)
    )
    worst = 0.0
    for result in run_scenario(spec, kernel="fast"):
        config = result.unit.config
        printed = reference[(config.memories, config.memory_cycle_ratio)]
        worst = max(worst, abs(result.ebw - printed) / printed)
    return worst


class TestTable1DigitExact:
    @pytest.mark.parametrize(
        "n,m", list(paper_data.TABLE1_EXACT_MEMORY_PRIORITY.keys())
    )
    def test_cell(self, n, m):
        config = SystemConfig(n, m, min(n, m) + 7, priority=Priority.MEMORIES)
        ebw = exact_memory_priority_ebw(config).ebw
        reference = paper_data.TABLE1_EXACT_MEMORY_PRIORITY[(n, m)]
        # Half an ulp of the printed third decimal.
        assert ebw == pytest.approx(reference, abs=5.1e-4)


class TestTable2DigitExact:
    @pytest.mark.parametrize(
        "n,m", list(paper_data.TABLE2_APPROX_MEMORY_PRIORITY.keys())
    )
    def test_cell(self, n, m):
        config = SystemConfig(n, m, min(n, m) + 7, priority=Priority.MEMORIES)
        ebw = approximate_memory_priority_ebw(config).ebw
        reference = paper_data.TABLE2_APPROX_MEMORY_PRIORITY[(n, m)]
        # One ulp of the printed third decimal: the paper truncated
        # rather than rounded some cells (2.77853 prints as 2.778).
        assert ebw == pytest.approx(reference, abs=1.1e-3)

    def test_symmetric_variant_in_range(self):
        # The symmetrised variant Section 5 suggests has no printed
        # reference; every cell of the Table 2 grid must stay a
        # plausible EBW.
        for n, m in paper_data.TABLE2_APPROX_MEMORY_PRIORITY:
            config = SystemConfig(
                n, m, min(n, m) + 7, priority=Priority.MEMORIES
            )
            value = approximate_memory_priority_ebw(config, symmetric=True).ebw
            assert 1.0 < value < 5.5

    def test_first_row_equals_table1(self):
        # n = 2 rows of Tables 1 and 2 coincide (the memoryless profile
        # is exact for two processors).
        for m in (2, 4, 6, 8):
            assert paper_data.TABLE2_APPROX_MEMORY_PRIORITY[(2, m)] == (
                paper_data.TABLE1_EXACT_MEMORY_PRIORITY[(2, m)]
            )


class TestTable3bReconstruction:
    """The reconstructed chain against the paper's printed Table 3(b).

    The worst deviation of the reconstruction from the printed table is
    0.28 EBW (8.8%), concentrated where the bus is far from saturation;
    in the saturated regime (r <= 4) the reconstruction matches to the
    printed digits.  Both the paper's chain and the reconstruction stay
    within ~7% of the underlying simulation
    (``tests/integration/test_model_vs_simulation.py``).
    """

    @pytest.mark.parametrize("m,r", list(paper_data.TABLE3B_APPROX_MODEL.keys()))
    def test_cell_within_reconstruction_tolerance(self, m, r):
        config = SystemConfig(8, m, r, priority=Priority.PROCESSORS)
        ebw = processor_priority_ebw(config).ebw
        reference = paper_data.TABLE3B_APPROX_MODEL[(m, r)]
        assert ebw == pytest.approx(reference, abs=0.30)

    @pytest.mark.parametrize("m", paper_data.TABLE3_M_VALUES)
    def test_saturated_cells_digit_exact(self, m):
        config = SystemConfig(8, m, 2, priority=Priority.PROCESSORS)
        ebw = processor_priority_ebw(config).ebw
        reference = paper_data.TABLE3B_APPROX_MODEL[(m, 2)]
        assert ebw == pytest.approx(reference, abs=5e-3)


@pytest.mark.slow
class TestTable3aSimulation:
    """Spot-check the stochastic Table 3(a) cells (full grid is the
    ``table3a`` experiment; these cells cover all regimes)."""

    @pytest.mark.parametrize(
        "m,r,tolerance",
        [
            (4, 2, 0.02),
            (4, 12, 0.05),
            (8, 8, 0.05),
            (10, 10, 0.05),
            (16, 6, 0.02),
            (16, 12, 0.06),
        ],
    )
    def test_cell(self, m, r, tolerance):
        config = SystemConfig(8, m, r, priority=Priority.PROCESSORS)
        result = simulate(config, cycles=16_000, seed=123)
        reference = paper_data.TABLE3A_SIMULATION[(m, r)]
        assert result.ebw == pytest.approx(reference, rel=tolerance)

    def test_whole_grid_within_10_percent(self):
        assert worst_grid_error("table3a", paper_data.TABLE3A_SIMULATION) < 0.10


@pytest.mark.slow
class TestTable4Simulation:
    """Spot-check the buffered Table 4 cells."""

    @pytest.mark.parametrize(
        "m,r",
        [(4, 6), (4, 24), (8, 10), (8, 24), (12, 12), (16, 6), (16, 16), (16, 24)],
    )
    def test_cell(self, m, r):
        config = SystemConfig(
            8, m, r, priority=Priority.PROCESSORS, buffered=True
        )
        result = simulate(config, cycles=16_000, seed=123)
        reference = paper_data.TABLE4_BUFFERED_SIMULATION[(m, r)]
        assert result.ebw == pytest.approx(reference, rel=0.05)

    def test_whole_grid_within_10_percent(self):
        assert (
            worst_grid_error("table4", paper_data.TABLE4_BUFFERED_SIMULATION)
            < 0.10
        )

    def test_table4_peak_structure(self):
        # Each Table 4 row rises to a peak and then declines toward the
        # crossbar value; verify on the m=8 row.
        row = [
            paper_data.TABLE4_BUFFERED_SIMULATION[(8, r)]
            for r in paper_data.TABLE4_R_VALUES
        ]
        peak = row.index(max(row))
        assert 0 < peak < len(row) - 1
        assert row[-1] < max(row)
