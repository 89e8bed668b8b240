"""Streaming per-request latency collection for the simulators.

:class:`StreamingQuantiles` is the O(1)-memory collector behind one
latency population: exact ``count``/``total``/``min``/``max`` plus one
:class:`~repro.metrics.quantiles.P2Quantile` estimator per tracked
quantile (p50/p90/p99).  Recording a value costs one validated list
append; each chunk of at most :data:`CHUNK` pending values is folded
into the aggregates with builtins and fed to every estimator's
:meth:`~repro.metrics.quantiles.P2Quantile.extend`, which still sees the
values in arrival order, so chunking never moves a bit of an estimate.
A population that has held one value so far (the service time of a
constant-``r`` run) is kept as a run count instead and reaches the
estimators only if it ever varies; see :class:`StreamingQuantiles`.
:class:`LatencyTracker` bundles the three populations the bus simulator
measures (wait/service/total) into a
:class:`~repro.metrics.summary.LatencyReport`.

Integer observations (bus cycles) total as a plain ``int``; float
observations (the event-driven exponential simulator's times) are held
as exact :class:`~fractions.Fraction` values, so totals stay exact, as
the merge contract needs.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from repro.core.errors import ConfigurationError
from repro.metrics.quantiles import DEFAULT_EXACT_LIMIT, P2Quantile
from repro.metrics.summary import LatencyReport, LatencySummary

TRACKED_QUANTILES = (0.5, 0.9, 0.99)
"""The quantiles every latency summary reports (p50, p90, p99)."""

CHUNK = 256
"""Observations a :class:`StreamingQuantiles` holds before flushing."""

_FLOAT_MAX_INT = int(sys.float_info.max)
"""The largest int observation accepted: every int up to it converts to
a finite float."""


def _exact_observation(value: object) -> int | Fraction:
    """Validate an observation the int fast path passed over.

    Returns it as an exact ``int`` or :class:`~fractions.Fraction`, so
    a pending chunk totals exactly with one ``sum``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(
            f"latency observations must be numbers, got {value!r}"
        )
    if isinstance(value, int) and abs(value) > _FLOAT_MAX_INT:
        # math.isfinite would raise OverflowError, and the repr of a
        # big enough int raises ValueError.
        raise ConfigurationError(
            "latency observations must be finite, got an int of "
            f"{value.bit_length()} bits"
        )
    if not math.isfinite(value):
        raise ConfigurationError(
            f"latency observations must be finite, got {value!r}"
        )
    if value < 0:
        raise ConfigurationError(
            f"latency observations must be >= 0, got {value!r}"
        )
    return Fraction(value) if isinstance(value, float) else value


class StreamingQuantiles:
    """One latency population: exact aggregates + streaming percentiles.

    :meth:`add` validates each value and appends it to a pending chunk
    of at most :data:`CHUNK` values; a full chunk, :meth:`quantile` and
    :meth:`summary` flush it.  :attr:`count` and :attr:`exact` include
    pending values.

    **Constant runs.**  While every value flushed so far has one float
    value ``v`` (``min == max``; the estimators see ``float(value)``),
    the flushed values are only counted - a run - and not fed to the
    estimators.  The service population of a run with constant access
    time ``r`` stays in that state for its whole life.  This is exact:

    * past ``exact_limit``, the markers of a constant stream are seeded
      with five heights ``v``, and every P² update term is a difference
      of equal heights, so each height stays ``v`` and the estimate is
      ``v`` itself;
    * at the first flush that breaks the run, and at a read while
      :attr:`count` is at most ``exact_limit`` (where the estimate is
      the interpolated exact quantile, which may round away from
      ``v``), the run is replayed into the estimators before anything
      else, and :meth:`P2Quantile.extend` gives the same state however
      a stream is split.
    """

    __slots__ = ("exact_limit", "_flushed", "_total", "_minimum",
                 "_maximum", "_pending", "_estimators", "_run")

    def __init__(self, exact_limit: int = DEFAULT_EXACT_LIMIT) -> None:
        # Validate up front, exactly like P2Quantile does: a too-small
        # limit must fail here, not mid-run at the P2 transition.
        if not isinstance(exact_limit, int) or exact_limit < 5:
            raise ConfigurationError(
                f"exact_limit must be an integer >= 5, got {exact_limit!r}"
            )
        self.exact_limit = exact_limit
        self._flushed = 0
        self._total: int | Fraction = 0
        self._minimum = math.inf
        self._maximum = -math.inf
        self._pending: list[int | Fraction] = []
        self._estimators = tuple(
            P2Quantile(q, exact_limit=exact_limit) for q in TRACKED_QUANTILES
        )
        # Flushed values the estimators have not seen: a constant run,
        # every one equal to self._minimum (== self._maximum).
        self._run = 0

    # ------------------------------------------------------------------
    def add(self, value: float) -> None:
        """Consume one observation (int bus cycles or float time)."""
        if type(value) is not int or not 0 <= value <= _FLOAT_MAX_INT:
            value = _exact_observation(value)
        pending = self._pending
        pending.append(value)
        if len(pending) >= CHUNK:
            self._flush()

    def _flush(self) -> None:
        """Fold the pending chunk into the aggregates and estimators
        (or into the constant run, while there is one)."""
        pending = self._pending
        if not pending:
            return
        self._total += sum(pending)
        low = min(self._minimum, float(min(pending)))
        high = max(self._maximum, float(max(pending)))
        if low == high:
            self._run += len(pending)
        else:
            self._replay()
            for estimator in self._estimators:
                estimator.extend(pending)
        self._minimum = low
        self._maximum = high
        self._flushed += len(pending)
        pending.clear()

    def _replay(self) -> None:
        """Feed the constant run to the estimators, a chunk at a time."""
        run = self._run
        if not run:
            return
        self._run = 0
        full, rest = divmod(run, CHUNK)
        block = [self._minimum] * min(run, CHUNK)
        for estimator in self._estimators:
            for _ in range(full):
                estimator.extend(block)
            if rest:
                estimator.extend(block[:rest])

    def _estimates(self) -> tuple[float, ...]:
        """The tracked quantiles' estimates, pending values included."""
        self._flush()
        if self._run:
            if self._flushed > self.exact_limit:
                # Every P2 height of a constant stream is its value.
                return (self._minimum,) * len(TRACKED_QUANTILES)
            self._replay()
        return tuple(estimator.estimate() for estimator in self._estimators)

    @property
    def count(self) -> int:
        """Observations consumed so far, pending ones included."""
        return self._flushed + len(self._pending)

    def quantile(self, q: float) -> float:
        """Current estimate of quantile ``q`` (must be a tracked one)."""
        if q not in TRACKED_QUANTILES:
            raise ConfigurationError(
                f"quantile {q} is not tracked; tracked: {TRACKED_QUANTILES}"
            )
        return self._estimates()[TRACKED_QUANTILES.index(q)]

    @property
    def exact(self) -> bool:
        """True while all estimates are still exact (small samples)."""
        return self.count <= self.exact_limit

    def summary(self) -> LatencySummary:
        """Freeze the current state into a mergeable summary value."""
        self._flush()
        if self._flushed == 0:
            return LatencySummary()
        p50, p90, p99 = (Fraction(value) for value in self._estimates())
        return LatencySummary(
            count=self._flushed,
            total=Fraction(self._total),
            minimum=Fraction(self._minimum),
            maximum=Fraction(self._maximum),
            p50=p50,
            p90=p90,
            p99=p99,
        )


class LatencyTracker:
    """Wait/service/total collection for one simulation run.

    The bus simulator calls :meth:`record` once per completed request;
    :meth:`report` freezes the three populations.  A fresh tracker is
    installed at the start of the measurement window, so summaries never
    mix warm-up requests with measured ones.
    """

    __slots__ = ("wait", "service", "total")

    def __init__(self, exact_limit: int = DEFAULT_EXACT_LIMIT) -> None:
        self.wait = StreamingQuantiles(exact_limit)
        self.service = StreamingQuantiles(exact_limit)
        self.total = StreamingQuantiles(exact_limit)

    def record(self, wait: float, service: float, total: float) -> None:
        """Record one completed request's latency decomposition."""
        self.wait.add(wait)
        self.service.add(service)
        self.total.add(total)

    @property
    def count(self) -> int:
        """Completed requests recorded so far."""
        return self.total.count

    def report(self) -> LatencyReport:
        """Freeze the tracked populations into a mergeable report."""
        return LatencyReport(
            wait=self.wait.summary(),
            service=self.service.summary(),
            total=self.total.summary(),
        )


__all__ = [
    "CHUNK",
    "StreamingQuantiles",
    "LatencyTracker",
    "TRACKED_QUANTILES",
]
