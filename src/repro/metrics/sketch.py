"""Vectorized per-row quantile sketches for lockstep fleets.

The scalar pipeline (:mod:`repro.metrics.tracker`) feeds one
:class:`~repro.metrics.quantiles.P2Quantile` trio per run; the batch
kernel (:mod:`repro.bus.batch`) completes requests for *hundreds* of
runs per bus cycle, so per-observation Python calls would erase the
vectorization win.  :class:`FleetQuantileSketch` is the fleet-scale
counterpart: one fixed-size integer histogram per fleet row, updated for
a whole cycle's completions with a handful of NumPy operations.

Design: collapsing power-of-two histograms
------------------------------------------
Bus latencies are small non-negative integers (cycle counts), so each
row keeps ``bins`` integer counters over value buckets of width
``2**shift`` starting at zero.  A row starts at width 1 (bucket ``b``
holds exactly the observations equal to ``b``); when an observation
lands beyond the last bucket the row's histogram *collapses* - adjacent
buckets pair-sum and the width doubles - until the value fits.  Updates
stay O(1) amortised per observation and the whole fleet updates with
vectorized scatters.

Accuracy contract (documented bound)
------------------------------------
The histogram stores exact ranks, so - unlike P² - the sketch has **zero
rank error**: a quantile estimate is computed from the true number of
observations at or below every bucket.  All error is *value*
quantisation from the bucket width ``w = 2**shift``:

* while ``w == 1`` (every observation seen so far is below ``bins``)
  the sketch is **exact**: estimates equal the empirical inclusive
  quantile (same rational rank arithmetic as
  :func:`repro.metrics.quantiles.exact_quantile`, property-tested
  bit-equal as floats);
* after collapsing, an order statistic is off by less than ``w``, and
  the width invariant ``w <= max(1, 2 * maximum / bins)`` bounds the
  absolute error of every reported quantile by ``2 * maximum / bins``
  (relative error ``< 2 / bins``, i.e. under 0.1% at the default 2048
  bins).  Estimates are clamped to the exact ``[minimum, maximum]``.

``count``, ``total``, ``minimum`` and ``maximum`` are tracked exactly in
integer arithmetic regardless of collapsing.

Merge story
-----------
:meth:`FleetQuantileSketch.summaries` emits one
:class:`~repro.metrics.summary.LatencySummary` per row whose fields are
exact rationals, so fleet results merge through the library's existing
exactly-associative count-weighted contract
(:meth:`LatencySummary.merge`) - sharded and parallel fleet runs combine
bit-for-bit.  Sketches themselves also merge (:meth:`merge`): widths
align by collapsing the finer operand, counters add, and the result is
the sketch the concatenated stream would have produced at the coarser
width.

NumPy is imported when a sketch is constructed, not when this module
is, so the scalar latency path never loads it.
"""

from __future__ import annotations

from fractions import Fraction

from repro.core.errors import ConfigurationError
from repro.metrics.summary import LatencySummary

DEFAULT_SKETCH_BINS = 2048
"""Histogram buckets per fleet row.

Latencies below this stay width-1 (exact); beyond it the relative
quantile error is bounded by ``2 / bins`` (< 0.1%)."""

_MIN_BINS = 8
"""Fewer buckets than this would make the collapse loop degenerate."""


class FleetQuantileSketch:
    """One collapsing integer histogram per fleet row.

    Parameters
    ----------
    rows:
        Number of fleet rows (independent latency populations).
    bins:
        Buckets per row (even; power of two recommended; ``>= 8``).
        Memory is ``rows * bins`` int64 counters.

    Observations are non-negative integers (bus-cycle counts).  The hot
    path is :meth:`add`, which consumes one observation for each of a
    set of *distinct* rows - exactly the shape of one lockstep cycle's
    completions.
    """

    def __init__(self, rows: int, bins: int = DEFAULT_SKETCH_BINS) -> None:
        import numpy as np

        self._np = np
        if rows < 1:
            raise ConfigurationError(f"rows must be >= 1, got {rows}")
        if bins < _MIN_BINS or bins % 2:
            raise ConfigurationError(
                f"bins must be an even number >= {_MIN_BINS}, got {bins}"
            )
        self.rows = int(rows)
        self.bins = int(bins)
        self.count = np.zeros(rows, dtype=np.int64)
        self.total = np.zeros(rows, dtype=np.int64)
        self._minimum = np.full(rows, np.iinfo(np.int64).max, dtype=np.int64)
        self._maximum = np.full(rows, -1, dtype=np.int64)
        self._shift = np.zeros(rows, dtype=np.int64)
        self._hist = np.zeros((rows, bins), dtype=np.int64)

    # ------------------------------------------------------------------
    def _collapse(self, rows) -> None:
        """Double the bucket width of each listed row (pair-sum fold)."""
        np = self._np
        hist = self._hist
        half = self.bins // 2
        folded = hist[rows, 0::2] + hist[rows, 1::2]
        hist[rows] = 0
        hist[rows, :half] = folded
        self._shift[rows] += 1

    def add(self, rows, values) -> None:
        """Record one observation per listed row.

        ``rows`` must be distinct row indices (one lockstep cycle
        completes at most one request per row, which is what makes the
        plain fancy-indexed scatter below correct); ``values`` are the
        matching non-negative integer observations.
        """
        np = self._np
        rows = np.asarray(rows, dtype=np.int64)
        values = np.asarray(values)
        if values.dtype.kind not in "iu":
            if not np.isfinite(values).all():
                raise ConfigurationError(
                    "latency observations must be finite numbers"
                )
            as_int = values.astype(np.int64)
            if (as_int != values).any():
                raise ConfigurationError(
                    "latency observations must be integral bus-cycle counts"
                )
            values = as_int
        else:
            values = values.astype(np.int64, copy=False)
        if values.size == 0:
            return
        if int(values.min()) < 0:
            raise ConfigurationError(
                "latency observations must be non-negative"
            )
        self.count[rows] += 1
        self.total[rows] += values
        self._minimum[rows] = np.minimum(self._minimum[rows], values)
        self._maximum[rows] = np.maximum(self._maximum[rows], values)
        buckets = values >> self._shift[rows]
        over = buckets >= self.bins
        while over.any():
            self._collapse(np.unique(rows[over]))
            buckets = values >> self._shift[rows]
            over = buckets >= self.bins
        self._hist[rows, buckets] += 1

    # ------------------------------------------------------------------
    def merge(self, other: "FleetQuantileSketch") -> None:
        """Fold ``other`` into this sketch, row by row (in place).

        Both operands collapse to the coarser of the two widths per
        row, after which the histograms add exactly - the result is the
        sketch of the concatenated stream at that width.
        """
        np = self._np
        if not isinstance(other, FleetQuantileSketch):
            raise ConfigurationError(
                f"can only merge FleetQuantileSketch values, got {other!r}"
            )
        if other.rows != self.rows or other.bins != self.bins:
            raise ConfigurationError(
                "sketch merge requires identical (rows, bins) shapes; "
                f"got ({self.rows}, {self.bins}) and "
                f"({other.rows}, {other.bins})"
            )
        while True:
            behind = np.nonzero(self._shift < other._shift)[0]
            if behind.size == 0:
                break
            self._collapse(behind)
        while True:
            behind = np.nonzero(other._shift < self._shift)[0]
            if behind.size == 0:
                break
            other._collapse(behind)
        self.count += other.count
        self.total += other.total
        self._minimum = np.minimum(self._minimum, other._minimum)
        self._maximum = np.maximum(self._maximum, other._maximum)
        self._hist += other._hist

    # ------------------------------------------------------------------
    def _order_statistic(
        self, cumulative, row: int, k: int, width: int
    ) -> Fraction:
        """The (0-based) ``k``-th order statistic of one row, exact
        while ``width == 1`` and within-bucket interpolated otherwise."""
        np = self._np
        bucket = int(np.searchsorted(cumulative, k, side="right"))
        if width == 1:
            return Fraction(bucket)
        below = int(cumulative[bucket - 1]) if bucket else 0
        occupants = int(self._hist[row, bucket])
        offset = k - below
        base = Fraction(bucket * width)
        if occupants > 1:
            # Spread the bucket's occupants evenly over its value span.
            estimate = base + Fraction((width - 1) * offset, occupants - 1)
        else:
            estimate = base + Fraction(width - 1, 2)
        low = Fraction(int(self._minimum[row]))
        high = Fraction(int(self._maximum[row]))
        return min(max(estimate, low), high)

    def _quantile(self, cumulative, row: int, percent: int) -> Fraction:
        """Inclusive-interpolation quantile ``percent/100`` of one row.

        Mirrors :func:`repro.metrics.quantiles.exact_quantile`'s integer
        rank arithmetic exactly (same ``divmod``, same unreduced
        denominator), so width-1 rows reproduce the scalar pipeline's
        values bit-for-bit when rendered as floats.
        """
        n = int(self.count[row])
        width = 1 << int(self._shift[row])
        low, remainder = divmod(percent * (n - 1), 100)
        if low >= n - 1:
            return self._order_statistic(cumulative, row, n - 1, width)
        a = self._order_statistic(cumulative, row, low, width)
        if remainder == 0:
            return a
        b = self._order_statistic(cumulative, row, low + 1, width)
        return (a * (100 - remainder) + b * remainder) / 100

    def row_summary(self, row: int) -> LatencySummary:
        """The :class:`LatencySummary` of one row (empty rows allowed)."""
        if not 0 <= row < self.rows:
            raise ConfigurationError(
                f"row must lie in 0..{self.rows - 1}, got {row}"
            )
        n = int(self.count[row])
        if n == 0:
            return LatencySummary()
        cumulative = self._np.cumsum(self._hist[row])
        return LatencySummary(
            count=n,
            total=Fraction(int(self.total[row])),
            minimum=Fraction(int(self._minimum[row])),
            maximum=Fraction(int(self._maximum[row])),
            p50=self._quantile(cumulative, row, 50),
            p90=self._quantile(cumulative, row, 90),
            p99=self._quantile(cumulative, row, 99),
        )

    def summaries(self) -> list[LatencySummary]:
        """One exact-rational :class:`LatencySummary` per fleet row.

        The emitted values carry only integers and exact fractions, so
        they merge through :meth:`LatencySummary.merge`'s associative
        count-weighted contract exactly like the scalar pipeline's.
        """
        return [self.row_summary(row) for row in range(self.rows)]
