"""Unit tests for :mod:`repro.analysis` (sweeps and trade-off searches)."""

from __future__ import annotations

import pytest

from repro.analysis.sweeps import crossbar_reference, sweep_m, sweep_p, sweep_r
from repro.analysis.tradeoffs import (
    crossbar_target,
    find_crossbar_equivalent,
    minimum_r_beating_crossbar,
    saturation_limit,
)
from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError
from repro.core.policy import Priority

FAST = dict(cycles=4_000, seed=1)


class TestSweeps:
    def test_sweep_r_axis(self):
        base = SystemConfig(4, 4, 2, priority=Priority.PROCESSORS)
        sweep = sweep_r(base, [2, 4, 6], label="test", **FAST)
        assert sweep.axis_values() == (2.0, 4.0, 6.0)
        assert len(sweep.ebw_values()) == 3
        assert sweep.axis == "r"
        assert all(point.ebw > 0 for point in sweep.points)

    def test_sweep_r_preserves_other_parameters(self):
        base = SystemConfig(4, 8, 2, priority=Priority.MEMORIES)
        sweep = sweep_r(base, [4], label="t", **FAST)
        config = sweep.points[0].config
        assert config.memories == 8
        assert config.priority is Priority.MEMORIES
        assert config.memory_cycle_ratio == 4

    def test_sweep_p_axis(self):
        base = SystemConfig(4, 8, 4, priority=Priority.PROCESSORS)
        sweep = sweep_p(base, [0.25, 1.0], label="t", **FAST)
        assert sweep.axis_values() == (0.25, 1.0)
        utils = sweep.processor_utilization_values()
        # Short windows can overshoot the long-run ceiling of 1 slightly.
        assert all(0 < u <= 1.02 for u in utils)

    def test_sweep_p_light_load_more_efficient(self):
        base = SystemConfig(8, 8, 8, priority=Priority.PROCESSORS)
        sweep = sweep_p(base, [0.2, 1.0], label="t", cycles=20_000, seed=1)
        light, heavy = sweep.processor_utilization_values()
        assert light > heavy

    def test_sweep_m_axis(self):
        base = SystemConfig(4, 2, 4, priority=Priority.PROCESSORS)
        sweep = sweep_m(base, [2, 4, 8], label="t", **FAST)
        assert sweep.axis_values() == (2.0, 4.0, 8.0)

    def test_crossbar_reference_values(self):
        reference = crossbar_reference(2, [2, 4])
        assert reference[2] == pytest.approx(1.5)
        assert reference[4] > reference[2]


class TestTradeoffs:
    def test_crossbar_target_known_value(self):
        assert crossbar_target(2, 2) == pytest.approx(1.5)

    def test_crossbar_targets_for_paper_sizes(self):
        # The exact crossbar EBWs Section 7 measures single buses against.
        assert 4.9 < crossbar_target(8, 8) < 5.0
        assert 9.5 < crossbar_target(16, 16) < 9.7
        assert 6.2 < crossbar_target(8, 16) < 6.4

    def test_find_crossbar_equivalent_finds_small_case(self):
        # A 2x2 crossbar (EBW 1.5) is matched by a single-bus system with
        # generous m and r.
        result = find_crossbar_equivalent(
            processors=2,
            crossbar_size=2,
            memory_options=[2, 4],
            memory_cycle_ratio=6,
            **FAST,
        )
        assert result.found
        assert result.achieved_ebw >= result.target_ebw

    def test_find_crossbar_equivalent_can_fail(self):
        result = find_crossbar_equivalent(
            processors=8,
            crossbar_size=8,
            memory_options=[2],
            memory_cycle_ratio=1,
            **FAST,
        )
        assert not result.found
        assert result.achieved_ebw is None

    def test_find_crossbar_equivalent_validation(self):
        with pytest.raises(ConfigurationError):
            find_crossbar_equivalent(2, 2, [], 4)

    def test_minimum_r_beating_crossbar(self):
        # At p = 0.5 the 8x16 single-bus beats the load-scaled crossbar
        # by r = 8 (the Section 7 claim holds from p >= 0.4).
        r = minimum_r_beating_crossbar(
            processors=8,
            memories=16,
            request_probability=0.5,
            r_options=[4, 8],
            cycles=10_000,
            seed=1,
        )
        assert r is not None
        assert r <= 8

    def test_minimum_r_none_when_unreachable(self):
        r = minimum_r_beating_crossbar(
            processors=8,
            memories=8,
            request_probability=1.0,
            r_options=[1],
            cycles=4_000,
            seed=1,
        )
        assert r is None

    def test_minimum_r_validation(self):
        with pytest.raises(ConfigurationError):
            minimum_r_beating_crossbar(4, 4, 1.0, [])

    def test_saturation_limit(self):
        # Buffered 8x8: saturated at small r (paper: until r ~ min(n,m)).
        limit = saturation_limit(
            processors=8,
            memories=8,
            r_options=[2, 4, 6],
            cycles=8_000,
            seed=1,
        )
        assert limit in (4, 6)

    def test_saturation_limit_validation(self):
        with pytest.raises(ConfigurationError):
            saturation_limit(4, 4, [2], saturation_fraction=0.0)
