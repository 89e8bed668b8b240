"""Unit and property tests for :class:`repro.metrics.FleetQuantileSketch`.

The sketch's contract (module docstring of :mod:`repro.metrics.sketch`):
exact aggregates always; *exact* quantiles while the bucket width is 1,
matching the scalar pipeline bit-for-bit as floats; bounded value error
after collapsing; merges that reproduce the concatenated stream at the
coarser width.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.metrics import (
    DEFAULT_SKETCH_BINS,
    FleetQuantileSketch,
    LatencySummary,
    exact_quantile,
)


def fill(sketch: FleetQuantileSketch, row: int, values) -> None:
    """Feed a scalar stream into one sketch row, one add per value."""
    for value in values:
        sketch.add(np.array([row]), np.array([value]))


class TestValidation:
    def test_rows_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="rows"):
            FleetQuantileSketch(0)

    def test_bins_must_be_even_and_large_enough(self):
        with pytest.raises(ConfigurationError, match="bins"):
            FleetQuantileSketch(1, bins=6)
        with pytest.raises(ConfigurationError, match="bins"):
            FleetQuantileSketch(1, bins=9)
        FleetQuantileSketch(1, bins=8)

    def test_default_bins(self):
        assert FleetQuantileSketch(2).bins == DEFAULT_SKETCH_BINS

    def test_rejects_negative_observations(self):
        sketch = FleetQuantileSketch(2)
        with pytest.raises(ConfigurationError, match="non-negative"):
            sketch.add(np.array([0]), np.array([-1]))

    def test_rejects_non_finite_observations(self):
        sketch = FleetQuantileSketch(2)
        with pytest.raises(ConfigurationError, match="finite"):
            sketch.add(np.array([0]), np.array([float("nan")]))
        with pytest.raises(ConfigurationError, match="finite"):
            sketch.add(np.array([1]), np.array([float("inf")]))

    def test_rejects_fractional_observations(self):
        sketch = FleetQuantileSketch(2)
        with pytest.raises(ConfigurationError, match="integral"):
            sketch.add(np.array([0]), np.array([1.5]))

    def test_accepts_integral_floats(self):
        sketch = FleetQuantileSketch(1)
        sketch.add(np.array([0]), np.array([3.0]))
        assert int(sketch.count[0]) == 1
        assert sketch.row_summary(0).minimum == Fraction(3)

    def test_row_summary_bounds(self):
        sketch = FleetQuantileSketch(2)
        with pytest.raises(ConfigurationError, match="row"):
            sketch.row_summary(2)


class TestExactWhileWidthOne:
    """Values below ``bins`` never collapse: the sketch is exact."""

    def test_matches_scalar_summary_bit_for_bit(self):
        rng = random.Random(1985)
        sketch = FleetQuantileSketch(3, bins=64)
        streams = [[rng.randrange(60) for _ in range(80)] for _ in range(3)]
        for row, stream in enumerate(streams):
            fill(sketch, row, stream)
        for row, stream in enumerate(streams):
            got = sketch.row_summary(row)
            want = LatencySummary.from_values(stream)
            assert got.count == want.count
            assert got.total == want.total
            assert got.minimum == want.minimum
            assert got.maximum == want.maximum
            # Width-1 quantiles reproduce exact_quantile's rational
            # rank arithmetic: equality holds as floats, bit for bit.
            ordered = sorted(stream)
            assert float(got.p50) == exact_quantile(ordered, 0.50)
            assert float(got.p90) == exact_quantile(ordered, 0.90)
            assert float(got.p99) == exact_quantile(ordered, 0.99)

    def test_lockstep_adds_match_scalar_adds(self):
        # One vectorized add over distinct rows == per-row scalar adds.
        rng = random.Random(7)
        vectorized = FleetQuantileSketch(4, bins=32)
        scalar = FleetQuantileSketch(4, bins=32)
        per_row = [[] for _ in range(4)]
        for _ in range(50):
            rows = sorted(rng.sample(range(4), rng.randrange(1, 5)))
            values = [rng.randrange(30) for _ in rows]
            vectorized.add(np.array(rows), np.array(values))
            for row, value in zip(rows, values):
                scalar.add(np.array([row]), np.array([value]))
                per_row[row].append(value)
        assert vectorized.summaries() == scalar.summaries()
        for got, stream in zip(vectorized.summaries(), per_row):
            want = LatencySummary.from_values(stream)
            assert (got.count, got.total, got.minimum, got.maximum) == (
                want.count, want.total, want.minimum, want.maximum
            )
            # The sketch keeps exact rationals; from_values rounds its
            # interpolated quantiles through floats - equal as floats.
            for field in ("p50", "p90", "p99"):
                assert float(getattr(got, field)) == float(
                    getattr(want, field)
                )


class TestCollapsedAccuracy:
    def test_aggregates_stay_exact_after_collapse(self):
        rng = random.Random(3)
        stream = [rng.randrange(10_000) for _ in range(500)]
        sketch = FleetQuantileSketch(1, bins=32)
        fill(sketch, 0, stream)
        summary = sketch.row_summary(0)
        assert summary.count == len(stream)
        assert summary.total == Fraction(sum(stream))
        assert summary.minimum == Fraction(min(stream))
        assert summary.maximum == Fraction(max(stream))

    def test_quantile_error_bounded_by_two_max_over_bins(self):
        rng = random.Random(11)
        for bins in (32, 256):
            stream = [rng.randrange(50_000) for _ in range(2_000)]
            sketch = FleetQuantileSketch(1, bins=bins)
            fill(sketch, 0, stream)
            ordered = sorted(stream)
            bound = 2 * max(stream) / bins
            summary = sketch.row_summary(0)
            for field, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
                estimate = float(getattr(summary, field))
                exact = exact_quantile(ordered, q)
                assert abs(estimate - exact) <= bound, (bins, field)

    def test_estimates_clamped_to_observed_range(self):
        sketch = FleetQuantileSketch(1, bins=8)
        fill(sketch, 0, [0, 1_000_000])
        summary = sketch.row_summary(0)
        assert Fraction(0) <= summary.p50 <= Fraction(1_000_000)
        assert summary.maximum == Fraction(1_000_000)


class TestMerge:
    def test_merge_equals_concatenated_stream(self):
        rng = random.Random(21)
        stream = [rng.randrange(5_000) for _ in range(300)]
        whole = FleetQuantileSketch(1, bins=64)
        fill(whole, 0, stream)
        parts = []
        for chunk in (stream[:100], stream[100:180], stream[180:]):
            part = FleetQuantileSketch(1, bins=64)
            fill(part, 0, chunk)
            parts.append(part)
        merged = parts[0]
        merged.merge(parts[1])
        merged.merge(parts[2])
        assert merged.row_summary(0) == whole.row_summary(0)

    def test_merge_is_associative(self):
        rng = random.Random(33)
        chunks = [
            [rng.randrange(4_000) for _ in range(120)] for _ in range(3)
        ]

        def build(chunk):
            sketch = FleetQuantileSketch(2, bins=32)
            for value in chunk:
                sketch.add(np.array([value % 2]), np.array([value]))
            return sketch

        left = build(chunks[0])
        left.merge(build(chunks[1]))
        left.merge(build(chunks[2]))
        tail = build(chunks[1])
        tail.merge(build(chunks[2]))
        right = build(chunks[0])
        right.merge(tail)
        assert left.summaries() == right.summaries()

    def test_summaries_merge_through_latency_summary_contract(self):
        # The emitted exact-rational summaries obey LatencySummary's
        # associative count-weighted merge, like the scalar pipeline's.
        a = FleetQuantileSketch(1, bins=32)
        b = FleetQuantileSketch(1, bins=32)
        fill(a, 0, [1, 2, 3, 4])
        fill(b, 0, [10, 20])
        merged = a.row_summary(0).merge(b.row_summary(0))
        assert merged.count == 6
        assert merged.total == Fraction(40)
        assert merged.minimum == Fraction(1)
        assert merged.maximum == Fraction(20)

    def test_merge_rejects_shape_mismatch(self):
        with pytest.raises(ConfigurationError, match="identical"):
            FleetQuantileSketch(1, bins=32).merge(
                FleetQuantileSketch(2, bins=32)
            )
        with pytest.raises(ConfigurationError, match="identical"):
            FleetQuantileSketch(1, bins=32).merge(
                FleetQuantileSketch(1, bins=64)
            )

    def test_merge_rejects_non_sketch(self):
        with pytest.raises(ConfigurationError, match="merge"):
            FleetQuantileSketch(1).merge(LatencySummary())


class TestCrossValidationAgainstScalarPipeline:
    """The sketch and the scalar P^2 tracker see identical streams."""

    def test_small_stream_agrees_exactly_with_streaming_quantiles(self):
        from repro.metrics import StreamingQuantiles

        # Below StreamingQuantiles' exact_limit both pipelines compute
        # the same rational rank arithmetic: agreement is exact.
        stream = [4, 9, 2, 7, 7, 0, 12, 3]
        sketch = FleetQuantileSketch(1, bins=64)
        scalar = StreamingQuantiles(exact_limit=len(stream))
        fill(sketch, 0, stream)
        for value in stream:
            scalar.add(value)
        summary = sketch.row_summary(0)
        assert scalar.exact
        for field, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
            assert float(getattr(summary, field)) == scalar.quantile(q)

    def test_long_stream_sketch_tracks_p2_estimates(self):
        from repro.metrics import StreamingQuantiles

        # Past exact_limit the scalar pipeline switches to approximate
        # P^2 estimators while the 2048-bin sketch stays near-exact;
        # both must land close to the true order statistics.
        rng = random.Random(55)
        stream = [rng.randrange(400) for _ in range(5_000)]
        sketch = FleetQuantileSketch(1)
        scalar = StreamingQuantiles()
        fill(sketch, 0, stream)
        for value in stream:
            scalar.add(value)
        ordered = sorted(stream)
        summary = sketch.row_summary(0)
        for field, q in (("p50", 0.5), ("p90", 0.9)):
            truth = exact_quantile(ordered, q)
            # Sketch bound: width-1 buckets (400 < 2048), so exact.
            assert float(getattr(summary, field)) == truth
            # P^2 is approximate; uniform data keeps it within a few
            # percent of the range.
            assert abs(scalar.quantile(q) - truth) <= 0.05 * 400


class TestEmptyRows:
    def test_empty_row_gives_empty_summary(self):
        sketch = FleetQuantileSketch(2)
        sketch.add(np.array([0]), np.array([5]))
        assert sketch.row_summary(1) == LatencySummary()
        assert sketch.row_summary(1).count == 0

    def test_empty_add_is_a_no_op(self):
        sketch = FleetQuantileSketch(1)
        sketch.add(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert int(sketch.count[0]) == 0
