"""Streaming quantile estimation: P-squared with an exact fallback.

The latency pipeline must summarise millions of per-request latencies
without storing them, so the workhorse here is the P² ("P-squared")
algorithm of Jain & Chlamtac (CACM 1985): five markers per tracked
quantile, updated in O(1) time and O(1) memory per observation, with
piecewise-parabolic height adjustment.

Two refinements make the estimator fit this library's determinism and
accuracy contracts:

* **Exact small-sample fallback.**  Each estimator keeps its first
  ``exact_limit`` observations verbatim; while the stream is that
  short, :meth:`P2Quantile.estimate` returns the *exact* empirical
  quantile (method="inclusive" linear interpolation, identical to
  ``statistics.quantiles(values, n=100, method="inclusive")``).  Only
  when the stream outgrows the prefix do the P² markers take over,
  seeded from the order statistics of the buffered prefix - a strictly
  better initialisation than the classic first-five rule.
* **Documented error bound.**  Beyond the exact range the estimate is
  approximate; the property suite
  (``tests/properties/test_quantile_properties.py``) enforces the bound
  this module promises: for streams up to 10^4 observations drawn from
  uniform, exponential and bimodal distributions, the empirical rank of
  the estimate stays within ``0.12 + 10/n`` of the target quantile
  ``q`` (and the estimate always lies inside ``[min, max]`` of the
  data).  In practice the rank error is far smaller (~0.01-0.03); the
  bound is deliberately loose enough to be a stable contract.

Everything here is deterministic: the same observation sequence always
produces the same estimate, so cached, sharded and parallel runs agree
bit-for-bit - however the sequence is split across
:meth:`P2Quantile.extend` calls.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from repro.core.errors import ConfigurationError

DEFAULT_EXACT_LIMIT = 64
"""Observations kept verbatim before the P² markers take over."""


def exact_quantile(ordered: Sequence[float], q: float) -> float:
    """Exact empirical quantile of a *sorted* sample.

    Uses "inclusive" linear interpolation (hydrologist's method, R
    type 7) with the same integer ``divmod`` formulation - and the same
    floating-point operation order - as the standard library, so for
    ``q = i/100`` the result is bit-identical to
    ``statistics.quantiles(values, n=100, method="inclusive")[i-1]``.
    """
    if not ordered:
        raise ConfigurationError("cannot take a quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"quantile must lie in [0, 1], got {q}")
    # Recover the intended rational rank (0.9 the float is not 9/10) so
    # the arithmetic below is exact integer arithmetic.  Percent-aligned
    # quantiles keep denominator 100 *unreduced*: statistics.quantiles
    # divides by its group count n=100, and matching its operand order
    # and denominators exactly is what makes the results bit-identical.
    percent = round(q * 100)
    if abs(q * 100 - percent) < 1e-9:
        numerator, denominator = percent, 100
    else:
        rational = Fraction(q).limit_denominator(10_000)
        numerator, denominator = rational.numerator, rational.denominator
    low, remainder = divmod(numerator * (len(ordered) - 1), denominator)
    if low >= len(ordered) - 1:
        return float(ordered[-1])
    return (
        float(ordered[low]) * (denominator - remainder)
        + float(ordered[low + 1]) * remainder
    ) / denominator


class P2Quantile:
    """One streaming quantile: exact up to ``exact_limit``, P² beyond.

    Parameters
    ----------
    q:
        Target quantile in ``(0, 1)``.
    exact_limit:
        Size of the verbatim prefix buffer (``>= 5``).  While ``count``
        is at most this, :meth:`estimate` is exact; the first
        observation beyond seeds the five P² markers from the buffered
        order statistics and frees the buffer.
    """

    __slots__ = ("q", "exact_limit", "count", "_buffer", "_heights",
                 "_positions", "_desired", "_increments")

    def __init__(self, q: float, exact_limit: int = DEFAULT_EXACT_LIMIT) -> None:
        if not 0.0 < q < 1.0:
            raise ConfigurationError(f"quantile must lie in (0, 1), got {q}")
        if exact_limit < 5:
            raise ConfigurationError(
                f"exact_limit must be >= 5, got {exact_limit}"
            )
        self.q = q
        self.exact_limit = exact_limit
        self.count = 0
        self._buffer: list[float] | None = []
        # P² state (populated on the transition out of exact mode).  Only
        # the three interior markers' desired positions are ever read.
        self._heights: list[float] = []
        self._positions: list[int] = []
        self._desired: list[float] = []
        self._increments = (0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0)

    # ------------------------------------------------------------------
    def add(self, value: float) -> None:
        """Consume one observation."""
        self.extend((value,))

    def extend(self, values: Iterable[float]) -> None:
        """Consume observations in order, exactly as one :meth:`add` each.

        The P² state lives in local variables for the whole batch, and
        the three interior-marker adjustments are written out in full.
        The parabolic and linear formulas keep their operands and their
        operation order, so the estimate is bit-identical however a
        stream is split into batches.
        """
        values = list(map(float, values))
        self.count += len(values)
        buffer = self._buffer
        if buffer is not None:
            room = self.exact_limit - len(buffer)
            if len(values) <= room:
                buffer.extend(values)
                return
            buffer.extend(values[:room])
            self._seed_markers()
            values = values[room:]
        h0, h1, h2, h3, h4 = self._heights
        n0, n1, n2, n3, n4 = self._positions
        d1, d2, d3 = self._desired
        _, i1, i2, i3, _ = self._increments
        for x in values:
            # Locate x's cell, absorbing a new extreme, and shift every
            # marker above the cell (marker 4 is above every cell).
            if x < h0:
                h0 = x
                n1 += 1
                n2 += 1
                n3 += 1
            elif x >= h4:
                h4 = x
            elif x < h1:
                n1 += 1
                n2 += 1
                n3 += 1
            elif x < h2:
                n2 += 1
                n3 += 1
            elif x < h3:
                n3 += 1
            n4 += 1
            d1 += i1
            d2 += i2
            d3 += i3
            # Move each interior marker one rank toward its desired
            # position: parabolic height, or linear when the parabola
            # leaves the neighbours' interval.
            drift = d1 - n1
            if (drift >= 1.0 and n2 - n1 > 1) or (drift <= -1.0 and n0 - n1 < -1):
                step = 1 if drift > 0 else -1
                below = n1 - n0
                above = n2 - n1
                candidate = h1 + (step / (n2 - n0)) * (
                    (below + step) * (h2 - h1) / above
                    + (above - step) * (h1 - h0) / below
                )
                if not h0 < candidate < h2:
                    if step > 0:
                        candidate = h1 + step * (h2 - h1) / (n2 - n1)
                    else:
                        candidate = h1 + step * (h0 - h1) / (n0 - n1)
                h1 = candidate
                n1 += step
            drift = d2 - n2
            if (drift >= 1.0 and n3 - n2 > 1) or (drift <= -1.0 and n1 - n2 < -1):
                step = 1 if drift > 0 else -1
                below = n2 - n1
                above = n3 - n2
                candidate = h2 + (step / (n3 - n1)) * (
                    (below + step) * (h3 - h2) / above
                    + (above - step) * (h2 - h1) / below
                )
                if not h1 < candidate < h3:
                    if step > 0:
                        candidate = h2 + step * (h3 - h2) / (n3 - n2)
                    else:
                        candidate = h2 + step * (h1 - h2) / (n1 - n2)
                h2 = candidate
                n2 += step
            drift = d3 - n3
            if (drift >= 1.0 and n4 - n3 > 1) or (drift <= -1.0 and n2 - n3 < -1):
                step = 1 if drift > 0 else -1
                below = n3 - n2
                above = n4 - n3
                candidate = h3 + (step / (n4 - n2)) * (
                    (below + step) * (h4 - h3) / above
                    + (above - step) * (h3 - h2) / below
                )
                if not h2 < candidate < h4:
                    if step > 0:
                        candidate = h3 + step * (h4 - h3) / (n4 - n3)
                    else:
                        candidate = h3 + step * (h2 - h3) / (n2 - n3)
                h3 = candidate
                n3 += step
        self._heights = [h0, h1, h2, h3, h4]
        self._positions = [n0, n1, n2, n3, n4]
        self._desired = [d1, d2, d3]

    def estimate(self) -> float:
        """Current quantile estimate (exact while in the buffered range)."""
        if self.count == 0:
            raise ConfigurationError("no observations recorded")
        if self._buffer is not None:
            return exact_quantile(sorted(self._buffer), self.q)
        return self._heights[2]

    # ------------------------------------------------------------------
    def _seed_markers(self) -> None:
        """Initialise the five P² markers from the exact prefix.

        Marker heights are order statistics of the buffered sample at
        the canonical P² rank fractions ``(0, q/2, q, (1+q)/2, 1)``;
        marker positions are the (1-based) ranks those heights hold,
        forced strictly increasing so the update invariants hold.
        """
        buffer = sorted(self._buffer or ())
        n = len(buffer)
        positions: list[int] = []
        for index, fraction in enumerate(self._increments):
            ideal = round(1 + (n - 1) * fraction)
            low = positions[-1] + 1 if positions else 1
            high = n - (4 - index)  # leave room for the markers above
            positions.append(min(max(ideal, low), high))
        self._positions = positions
        self._heights = [buffer[p - 1] for p in positions]
        self._desired = [
            1 + (n - 1) * fraction for fraction in self._increments[1:4]
        ]
        self._buffer = None
