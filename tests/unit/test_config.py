"""Unit tests for :mod:`repro.core.config`."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError
from repro.core.policy import Priority, TieBreak


class TestValidation:
    def test_minimal_valid_config(self):
        config = SystemConfig(processors=1, memories=1, memory_cycle_ratio=1)
        assert config.processors == 1
        assert config.memories == 1
        assert config.memory_cycle_ratio == 1

    @pytest.mark.parametrize("processors", [0, -1, -100])
    def test_rejects_non_positive_processors(self, processors):
        with pytest.raises(ConfigurationError, match="processors"):
            SystemConfig(processors=processors, memories=2, memory_cycle_ratio=2)

    @pytest.mark.parametrize("processors", [2.0, "2", None])
    def test_rejects_non_integer_processors(self, processors):
        with pytest.raises(ConfigurationError, match="processors"):
            SystemConfig(processors=processors, memories=2, memory_cycle_ratio=2)

    @pytest.mark.parametrize("memories", [0, -3])
    def test_rejects_non_positive_memories(self, memories):
        with pytest.raises(ConfigurationError, match="memories"):
            SystemConfig(processors=2, memories=memories, memory_cycle_ratio=2)

    @pytest.mark.parametrize("r", [0, -1])
    def test_rejects_non_positive_r(self, r):
        with pytest.raises(ConfigurationError, match="memory_cycle_ratio"):
            SystemConfig(processors=2, memories=2, memory_cycle_ratio=r)

    def test_rejects_float_r(self):
        with pytest.raises(ConfigurationError, match="memory_cycle_ratio"):
            SystemConfig(processors=2, memories=2, memory_cycle_ratio=2.5)

    @pytest.mark.parametrize("p", [0.0, -0.1, 1.5, float("nan")])
    def test_rejects_out_of_range_p(self, p):
        with pytest.raises(ConfigurationError, match="request_probability"):
            SystemConfig(2, 2, 2, request_probability=p)

    def test_rejects_boolean_p(self):
        with pytest.raises(ConfigurationError, match="request_probability"):
            SystemConfig(2, 2, 2, request_probability=True)

    def test_accepts_boundary_p(self):
        config = SystemConfig(2, 2, 2, request_probability=1.0)
        assert config.request_probability == 1.0

    def test_rejects_non_enum_priority(self):
        with pytest.raises(ConfigurationError, match="priority"):
            SystemConfig(2, 2, 2, priority="processors")

    def test_rejects_non_enum_tie_break(self):
        with pytest.raises(ConfigurationError, match="tie_break"):
            SystemConfig(2, 2, 2, tie_break="random")

    def test_rejects_zero_buffer_depth(self):
        with pytest.raises(ConfigurationError, match="buffer_depth"):
            SystemConfig(2, 2, 2, buffered=True, buffer_depth=0)

    def test_rejects_buffer_depth_without_buffering(self):
        with pytest.raises(ConfigurationError, match="buffer_depth"):
            SystemConfig(2, 2, 2, buffered=False, buffer_depth=2)

    def test_frozen(self):
        config = SystemConfig(2, 2, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.processors = 4


class TestDerivedQuantities:
    def test_paper_aliases(self):
        config = SystemConfig(8, 16, 4, request_probability=0.5)
        assert config.n == 8
        assert config.m == 16
        assert config.r == 4
        assert config.p == 0.5

    def test_processor_cycle_is_r_plus_two(self):
        assert SystemConfig(2, 2, 6).processor_cycle == 8

    def test_max_ebw(self):
        # Section 2: max EBW = (r + 2) / 2.
        assert SystemConfig(2, 2, 8).max_ebw == 5.0
        assert SystemConfig(2, 2, 1).max_ebw == 1.5

    def test_offered_load(self):
        config = SystemConfig(8, 4, 2, request_probability=0.25)
        assert config.offered_load == pytest.approx(2.0)

    def test_defaults(self):
        config = SystemConfig(2, 2, 2)
        assert config.request_probability == 1.0
        assert config.priority is Priority.PROCESSORS
        assert config.tie_break is TieBreak.RANDOM
        assert not config.buffered
        assert config.buffer_depth == 1


class TestCopies:
    def test_with_buffers(self):
        base = SystemConfig(4, 4, 4)
        buffered = base.with_buffers()
        assert buffered.buffered
        assert buffered.buffer_depth == 1
        assert not base.buffered  # original untouched

    def test_with_buffers_custom_depth(self):
        buffered = SystemConfig(4, 4, 4).with_buffers(depth=3)
        assert buffered.buffer_depth == 3

    def test_without_buffers_round_trip(self):
        base = SystemConfig(4, 4, 4)
        assert base.with_buffers(2).without_buffers() == base

    def test_describe_mentions_all_parameters(self):
        config = SystemConfig(
            8, 16, 4, request_probability=0.5, priority=Priority.MEMORIES
        )
        text = config.describe()
        for fragment in ("n=8", "m=16", "r=4", "p=0.5", "memories", "unbuffered"):
            assert fragment in text

    def test_describe_buffered(self):
        text = SystemConfig(2, 2, 2).with_buffers(2).describe()
        assert "buffered(depth=2)" in text

    def test_describe_names_only_the_non_default_tie_break(self):
        random_tie = SystemConfig(3, 2, 2)
        fcfs = dataclasses.replace(random_tie, tie_break=TieBreak.FCFS)
        assert random_tie.describe() == (
            "n=3 m=2 r=2 p=1 priority=processors unbuffered"
        )
        assert fcfs.describe() == f"{random_tie.describe()} tie=fcfs"
