"""The vectorized lockstep batch kernel: whole fleets as one array program.

:class:`FastBusKernel` made a *single* run roughly an order of magnitude
faster than the reference machine, but every run still pays a
Python-level cycle loop.  The sweeps that produce the paper's headline
curves (Figures 2/3/5/6, Tables 3/4) simulate the *same machine shape*
many times - across replications and across grid rows that differ only
in seed, request probability or workload parameter - and those runs are
embarrassingly parallel.  :class:`BatchBusKernel` executes such a fleet
in lockstep: one NumPy array program advances every row's machine
through the same bus cycle at once, so the per-cycle interpreter cost is
paid once per *fleet* instead of once per *run*.

State is held in arrays shaped ``(n, fleet)`` (requesting masks, wake
cycles, targets, issue stamps) and ``(m, fleet)`` (service finish
stamps, buffer occupancy, output queues); arbitration is one ranked
pick (random tie-break) or masked argmin (FCFS) per fleet row; memory
completions are comparisons of finish stamps with the cycle.

**Reproducibility contract.**  The batch kernel is *not* bit-identical
to the exact tier (the fast loop and the reference machine) -
vectorized sampling necessarily draws randomness differently
(inverse-CDF geometric think times, single-draw hot-spot targets,
counter-based bit generators).  Its contract is instead:

* **bit-reproducible against itself**: every fleet row's randomness
  comes from its own counter-based :class:`numpy.random.Philox` streams,
  keyed by the library's :func:`~repro.des.rng.derive_seed` scheme on
  the row's seed alone.  Rows never interact, so a row's result is a
  pure function of its own ``(config, workload, seed, cycles, warmup)``
  - independent of fleet composition, row order, ``--workers`` and
  ``--shard i/k`` (property-tested in
  ``tests/properties/test_batch_invariance.py``);
* **statistically equivalent** to the exact kernels: EBW and mean
  latency agree within confidence bounds over a configuration fleet
  (``tests/integration/test_batch_statistics.py``).

Because the numbers differ from the exact kernels at the bit level, the
batch kernel - unlike ``fast`` - **does enter cache keys**: its results
are stored under the
:data:`~repro.engine.evaluators.BATCH_ENGINE_TOKEN` engine namespace and
can never collide with ``simulation@1`` entries.  Its independent
oracle is the exact chain of :mod:`repro.markov.machine`
(``tests/integration/test_exact_machine.py``).

**Coverage.**  Declarative workloads only: uniform, hot-spot and trace
targets, heterogeneous per-processor ``p``, both priorities, both
tie-breaks, buffered and unbuffered modules at any depth, constant or
geometric access times (geometric draws come from the per-row
``"access-times"`` Philox stream via the inverse CDF - statistically
equivalent to the exact kernels' coin-flip loop, which is already the
batch contract).  Latency distributions are collected at fleet scale
through the vectorized per-row quantile sketch
(:class:`repro.metrics.FleetQuantileSketch`), including under
geometric access times (per-access service draws feed a third service
sketch); like every batch number they are statistically - not bit -
equivalent to the exact kernels' streaming summaries.  Custom
:class:`~repro.workloads.generators.TargetSampler` objects and
cycle-level trace sinks stay on the exact tier;
:func:`~repro.bus.check_batch_features` is the single authority that
rejects them with a message naming the unsupported feature.

**Fleet packing.**  Shape numbers - ``n``, ``m``, ``r`` and buffer
depth - are per-row state, so rows of *different* machine shapes pack
into one padded lockstep program (only :data:`PACK_FIELDS` must
match).  Every row is padded to the fleet maxima ``(max_n, max_m)``;
padded lanes are inert - never requesting, wake pinned at the never
sentinel, targets pinned to a valid module - and, crucially, **never
consume a random draw**, so each row's per-row Philox draw sequence is
bit-identical to the same row in a homogeneous fleet or alone.
Packed results therefore share the ``simulation-batch@1``
namespace with no token bump (hypothesis-proven in
``tests/properties/test_fleet_packing.py``).

**Buffered fast path.**  Input and output queues are circular-buffer
index arrays (``(slots, m * fleet)`` rings whose heads and tails are
flat ring indices, advanced through precomputed next-slot tables), so
a push or pop is a few flat gathers and scatters over the affected
modules only - no per-cycle FIFO shifting - and stall bookkeeping
travels through the same flat index lists.

NumPy is imported when a kernel is built, so the exact kernels and the
scenario coordinator never load it; the compile-time rules
(:data:`~repro.bus.PACK_FIELDS`,
:func:`~repro.bus.check_batch_features`) live in :mod:`repro.bus` for
the same reason.
"""

from __future__ import annotations

from typing import Sequence

from repro.bus import PACK_FIELDS
from repro.bus.measurement import (
    _DEFAULT_BATCHES,
    _DEFAULT_WARMUP_FRACTION,
    _resolve_request_probabilities,
)
from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError
from repro.core.policy import Priority, TieBreak
from repro.core.results import SimulationResult
from repro.des.rng import derive_seed
from repro.workloads.generators import (
    HotSpotTargets,
    TargetSampler,
    TraceTargets,
    require_library_sampler,
)

_NEVER = 1 << 30
"""Wake/resolve sentinel: a cycle index no supported run ever reaches.

Cycle-indexed state lives in ``int32`` arrays (half the memory traffic
of ``int64`` on the hot loop), so one batch run is capped at ``2**30``
bus cycles - six orders of magnitude beyond the paper's windows."""

_DRAW_CHUNK = 256
"""Uniform draws buffered per row and stream between Philox refills.

Each row consumes its stream strictly in sequence, so the size never
changes a draw, only how often a row refills.  2 KB per row and stream:
a sweep worker running the whole 70-row Table 4 super-fleet peaked at
40.1 MB, against 41.9 MB with 2048, and 512-row fleets ran no slower."""


# ----------------------------------------------------------------------
# Per-row random streams.
# ----------------------------------------------------------------------
class _PhiloxLanes:
    """Per-row sequential uniform streams with vectorized consumption.

    Row ``f`` owns the counter-based Philox stream keyed by
    ``derive_seed(seed_f, name)`` and consumes it strictly sequentially,
    so its draw sequence is a pure function of its own seed - the
    foundation of the fleet-composition invariance contract.  Draws are
    buffered per row in a ``(fleet, chunk)`` block so one cycle's
    consumption across the whole fleet is a single fancy-indexing
    gather.
    """

    def __init__(self, keys: Sequence[int], chunk: int) -> None:
        import numpy as np

        self._np = np
        self._gens = [
            np.random.Generator(np.random.Philox(key=int(key))) for key in keys
        ]
        self._chunk = chunk
        fleet = len(self._gens)
        self._buf = np.empty((fleet, chunk), dtype=np.float64)
        for f, gen in enumerate(self._gens):
            self._buf[f] = gen.random(chunk)
        self._pos = np.zeros(fleet, dtype=np.int64)
        # Draws every row is guaranteed to hold: while it stays positive
        # a one-draw-per-row call needs no exhaustion test.
        self._slack = chunk

    def _refill(self, need_mask) -> None:
        """Slide each flagged row's unconsumed tail down and top up."""
        np = self._np
        for f in np.nonzero(need_mask)[0]:
            pos = int(self._pos[f])
            remaining = self._chunk - pos
            row = self._buf[f]
            if remaining:
                row[:remaining] = row[pos:]
            row[remaining:] = self._gens[f].random(self._chunk - remaining)
            self._pos[f] = 0

    def _reserve(self, count: int) -> None:
        """Make sure every row holds ``count`` more draws.

        Only when the countdown runs out does this test the rows: those
        past half their buffer (and any that cannot serve ``count``)
        are topped up together, so the test recurs about once per half
        buffer.  Refilling moves no draw - each row still reads its
        stream in order.
        """
        if self._slack >= count:
            self._slack -= count
            return
        pos = self._pos
        keep = max(count, self._chunk // 2)
        self._refill(pos > self._chunk - keep)
        self._slack = self._chunk - int(pos.max()) - count

    def take_counts(self, counts):
        """``counts[f]`` sequential draws for row ``f`` -> (fleet, max).

        Packed fleets draw their initial targets here: row ``f``
        consumes exactly ``counts[f]`` draws, so its stream position is
        identical to an unpacked fleet's.  Column ``j`` of the result
        is row ``f``'s ``j``-th draw and is only meaningful for
        ``j < counts[f]`` (padding columns hold arbitrary buffered
        values that are never consumed).
        """
        np = self._np
        pos = self._pos
        counts = np.asarray(counts, dtype=np.int64)
        max_count = int(counts.max())
        self._reserve(max_count)
        columns = pos[:, None] + np.arange(max_count)
        # Clamp padding columns into range; the values they alias are
        # not consumed (pos only advances by counts) and callers mask
        # them out.
        values = np.take_along_axis(
            self._buf, np.minimum(columns, self._chunk - 1), axis=1
        ).copy()
        pos += counts
        return values

    def take_rows(self, rows):
        """One draw for each listed row (rows must be unique)."""
        self._reserve(1)
        pos = self._pos
        taken = pos[rows]
        values = self._buf[rows, taken]
        pos[rows] = taken + 1
        return values

    def take_rows_multi(self, rows):
        """One draw per listed row, where rows may repeat.

        A row listed ``k`` times receives its next ``k`` sequential
        draws *in list order* - the geometric-access pull sites list
        modules in ascending order per row, and the per-row draw
        sequence must not depend on how many modules pulled this cycle.
        """
        np = self._np
        pos = self._pos
        order = np.argsort(rows, kind="stable")
        sorted_rows = rows[order]
        count = len(sorted_rows)
        new_group = np.empty(count, dtype=bool)
        new_group[0] = True
        new_group[1:] = sorted_rows[1:] != sorted_rows[:-1]
        index = np.arange(count)
        offsets = index - np.maximum.accumulate(
            np.where(new_group, index, 0)
        )
        self._reserve(int(offsets.max()) + 1)
        taken = pos[sorted_rows] + offsets
        values = np.empty(count, dtype=np.float64)
        values[order] = self._buf[sorted_rows, taken]
        # Duplicate fancy writes resolve last-wins; the last occurrence
        # per row carries the highest pointer, which is what we want.
        pos[sorted_rows] = taken + 1
        return values

    def take_all(self):
        """One draw per row, for every row.

        The all-rows pointers advance in lockstep, so consumption is a
        cheap shared column read between refills.
        """
        self._reserve(1)
        pos = self._pos
        values = self._buf[:, pos[0]]
        pos += 1
        return values


# ----------------------------------------------------------------------
# Target plans: the declarative essence of one row's workload.
# ----------------------------------------------------------------------
def _plan_targets(targets: TargetSampler | None, config: SystemConfig):
    """Reduce a library sampler to ``(traces, hot_fraction, hot_module)``.

    ``traces`` is ``None`` for random-target rows.  Custom sampler
    objects are rejected - they encapsulate arbitrary Python and cannot
    be vectorized.
    """
    require_library_sampler(targets, "batch")
    if type(targets) is HotSpotTargets:
        return None, targets._hot_fraction, targets._hot_module
    if type(targets) is TraceTargets:
        return tuple(tuple(trace) for trace in targets._traces), 0.0, 0
    return None, 0.0, 0


class BatchBusKernel:
    """Lockstep NumPy implementation of a fleet of bus machines.

    Parameters
    ----------
    configs:
        One :class:`SystemConfig` per fleet row.  All rows must share
        the :data:`PACK_FIELDS` (priority, tie-break, buffering mode);
        shape numbers (``n``, ``m``, ``r``, buffer depth), request
        probabilities and workloads may differ per row - smaller rows
        are padded to the fleet maxima with inert lanes.
    seeds:
        One master seed per row; each row derives its own Philox
        streams (``targets`` / ``think`` / ``arbitration``) from it via
        :func:`~repro.des.rng.derive_seed`.
    targets:
        Optional per-row target samplers (library samplers only);
        ``None`` entries mean the paper's uniform workload.
    request_probabilities:
        Optional per-row heterogeneous-``p`` vectors, validated exactly
        like the reference machine's.
    collect_latency:
        When true, the loop carries each request's service-start stamp
        through the queue rings and records post-warmup wait/total
        observations into per-row :class:`FleetQuantileSketch`
        histograms; :meth:`run` then attaches a
        :class:`~repro.metrics.LatencyReport` to every row's result.
        Collection draws no randomness, so counters stay bit-identical
        either way.
    geometric_access_times:
        When true, every service duration on a row with ``r > 1`` is
        an inverse-CDF geometric draw with mean ``r`` from that row's
        ``"access-times"`` Philox stream instead of the constant ``r``
        (rows with ``r = 1`` keep the degenerate constant path and
        draw nothing).  Combines with ``collect_latency``: geometric
        rows' per-access durations feed a dedicated service sketch.

    :meth:`run` replicates the reference measurement protocol (warm-up
    exclusion, batch-means windows) per row and returns one
    :class:`~repro.core.results.SimulationResult` per row.
    """

    def __init__(
        self,
        configs: Sequence[SystemConfig],
        seeds: Sequence[int],
        targets: Sequence[TargetSampler | None] | None = None,
        request_probabilities: Sequence[Sequence[float] | None] | None = None,
        collect_latency: bool = False,
        geometric_access_times: bool = False,
    ) -> None:
        import numpy as np

        self._np = np
        configs = list(configs)
        seeds = [int(seed) for seed in seeds]
        if not configs:
            raise ConfigurationError("a batch fleet needs at least one row")
        if len(seeds) != len(configs):
            raise ConfigurationError(
                f"fleet lists {len(configs)} configs but {len(seeds)} seeds"
            )
        if targets is None:
            targets = [None] * len(configs)
        if request_probabilities is None:
            request_probabilities = [None] * len(configs)
        if len(targets) != len(configs) or len(request_probabilities) != len(
            configs
        ):
            raise ConfigurationError(
                "targets and request_probabilities must list one entry "
                "per fleet row (or be None)"
            )
        pack = tuple(getattr(configs[0], field) for field in PACK_FIELDS)
        for config in configs[1:]:
            if tuple(getattr(config, field) for field in PACK_FIELDS) != pack:
                raise ConfigurationError(
                    "all fleet rows must share the pack fields "
                    f"{PACK_FIELDS}; {config.describe()} differs from "
                    f"{configs[0].describe()}"
                )
        self.configs = tuple(configs)
        self.seeds = tuple(seeds)

        base = configs[0]
        fleet = len(configs)
        # Per-row shape numbers: rows of different (n, m, r, depth)
        # pack into one padded lockstep program.  The scalar n/m keep
        # the *array* dimensions (the group maxima); lanes beyond a
        # row's own bound are inert padding.
        n_rows = np.array(
            [config.processors for config in configs], dtype=np.int64
        )
        m_rows = np.array(
            [config.memories for config in configs], dtype=np.int64
        )
        r_rows = np.array(
            [config.memory_cycle_ratio for config in configs],
            dtype=np.int64,
        )
        pc_rows = np.array(
            [config.processor_cycle for config in configs], dtype=np.int64
        )
        n = int(n_rows.max())
        m = int(m_rows.max())
        self._fleet = fleet
        self._n = n
        self._m = m
        self._n_rows = n_rows
        self._m_rows = m_rows
        self._r_rows = r_rows
        self._pc_rows = pc_rows
        self._buffered = base.buffered
        depth_rows = np.array(
            [
                config.buffer_depth if config.buffered else 0
                for config in configs
            ],
            dtype=np.int64,
        )
        self._depth_rows = depth_rows
        self._capacity_rows = np.maximum(depth_rows, 1)
        self._depth = int(depth_rows.max()) if base.buffered else 0
        self._capacity = self._depth if self._depth > 0 else 1
        self._proc_first = base.priority is Priority.PROCESSORS
        self._random_tie = base.tie_break is TieBreak.RANDOM
        # Lane-validity masks: lane i of row f is real iff i < n_f (and
        # module k iff k < m_f).  Padded lanes never request, never
        # wake, and never consume a draw - the padding invariant the
        # packed == unpacked bit-identity proof rests on.
        self._lane_valid = np.arange(n)[:, None] < n_rows[None, :]
        self._mod_valid = np.arange(m)[:, None] < m_rows[None, :]
        # r = 1 makes the geometric service distribution degenerate at
        # one cycle - identical to the constant path, so such rows draw
        # no stream (matching the exact kernels' r = 1 short-circuit).
        geom_rows = (
            (r_rows > 1)
            if geometric_access_times
            else np.zeros(fleet, dtype=bool)
        )
        self._geom_rows = geom_rows
        self._geometric = bool(geom_rows.any())
        safe_r = np.where(geom_rows, r_rows, 2)
        self._log_access_rows = np.where(
            geom_rows, np.log1p(-1.0 / safe_r), 0.0
        )

        # --- per-row request probabilities (fleet x n), padded lanes
        # at p = 1 (they never issue, so the value is never consulted,
        # but 1.0 keeps the all-p1 fast-path detection per-row exact).
        self._p = np.ones((fleet, n), dtype=np.float64)
        for f, (config, probs) in enumerate(
            zip(configs, request_probabilities)
        ):
            self._p[f, : config.processors] = (
                _resolve_request_probabilities(config, probs)
            )
        self._all_p1 = bool((self._p == 1.0).all())
        with np.errstate(divide="ignore"):
            # log(1 - p) is -inf at p = 1, which the inverse-CDF think
            # draw maps to 0 extra processor cycles - exactly right.
            self._log1p_neg_p = np.log1p(-self._p)

        # --- per-row target plans.
        plans = [
            _plan_targets(sampler, config)
            for sampler, config in zip(targets, configs)
        ]
        hot_fraction = np.array([plan[1] for plan in plans])
        hot_module = np.array([plan[2] for plan in plans], dtype=np.int32)
        trace_rows = np.array(
            [plan[0] is not None for plan in plans], dtype=bool
        )
        self._any_random = bool((~trace_rows).any())
        self._any_trace = bool(trace_rows.any())
        self._trace_rows = trace_rows
        self._hot_fraction = hot_fraction
        self._hot_module = hot_module
        # Single-draw hot-spot sampling: u < f hits the hot module, the
        # remainder rescales to a uniform module choice.  f = 0 is the
        # plain uniform draw; guard the f = 1 rescale against 0/0.
        denominator = np.where(hot_fraction < 1.0, 1.0 - hot_fraction, 1.0)
        self._hot_rescale = 1.0 / denominator
        # With no hot module and no trace, (u - 0) * 1 * m is exactly
        # u * m, so the per-grant draw skips the hot-spot arithmetic.
        self._plain_uniform = not self._any_trace and not bool(
            (hot_fraction > 0.0).any()
        )
        self._m_float = m_rows.astype(np.float64)
        if self._any_trace:
            length_max = 1
            for plan, config in zip(plans, configs):
                if plan[0] is not None:
                    row_n = config.processors
                    if len(plan[0]) < row_n:
                        raise ConfigurationError(
                            f"trace workload records {len(plan[0])} "
                            f"processors but the system has {row_n}"
                        )
                    length_max = max(
                        length_max, max(len(t) for t in plan[0][:row_n])
                    )
            pad = np.zeros((fleet, n, length_max), dtype=np.int32)
            lengths = np.ones((fleet, n), dtype=np.int64)
            for f, plan in enumerate(plans):
                if plan[0] is None:
                    continue
                for i in range(configs[f].processors):
                    trace = plan[0][i]
                    lengths[f, i] = len(trace)
                    pad[f, i, : len(trace)] = trace
            self._trace_pad = pad
            self._trace_len = lengths
            self._trace_pos = np.zeros((fleet, n), dtype=np.int64)
        else:
            self._trace_pad = None
            self._trace_len = None
            self._trace_pos = None

        # --- per-row Philox streams, keyed by the derive_seed scheme.
        # One call takes at most n draws per row (initial targets) or
        # m + 2 (buffered geometric pulls), so buffers never hold less.
        chunk = max(_DRAW_CHUNK, n, m + 2)

        def lanes(stream: str, needed: bool):
            if not needed:
                return None
            keys = [derive_seed(seed, stream) for seed in seeds]
            return _PhiloxLanes(keys, chunk)

        self._targets_lanes = lanes("targets", self._any_random)
        self._think_lanes = lanes("think", not self._all_p1)
        self._arb_lanes = lanes("arbitration", self._random_tie)
        self._access_lanes = lanes("access-times", self._geometric)

        # --- processor state (n x fleet).  The fleet is the contiguous
        # axis, so every per-row reduction (any/argmax along the lane
        # axis) runs axis-0 with a vectorized contiguous inner loop.  A
        # processor's ``issue`` stamp freezes while its request is in
        # flight, so module-side copies of the issue cycle are
        # unnecessary: the response path reads it back through the
        # owning processor's lane.  Lanes travel as flat indices
        # (``lane * fleet + row``) through module state and queues.
        # Padded lanes start (and stay) inert: not requesting, wake at
        # the never sentinel, target pinned to module 0 (a valid index,
        # so dense gathers through target_gidx stay in bounds).
        self._requesting = self._lane_valid.copy()
        self._issue = np.zeros((n, fleet), dtype=np.int32)
        self._wake = np.full((n, fleet), _NEVER, dtype=np.int32)
        # Targets as flat module indices (module * fleet + row) into
        # raveled module state, maintained at each draw.
        self._target_gidx = np.zeros((n, fleet), dtype=np.int64)

        # --- module state (m x fleet; queues as flat circular buffers).
        self._collect_latency = bool(collect_latency)
        # Geometric service durations are drawn per access, so latency
        # collection must carry each request's actual duration through
        # the rings into a third sketch; constant-r rows keep the
        # exact synthesized service summary.
        self._collect_service = self._collect_latency and self._geometric
        self._sketch_wait = None
        self._sketch_total = None
        self._sketch_service = None
        flat_modules = m * fleet
        flat_rows = np.arange(flat_modules) % fleet
        self._r_flat = r_rows[flat_rows]
        # A module's service ends at the start of cycle svc_finish; the
        # stamp stays until the next service starts (unbuffered: until
        # its response is granted, which resets it to the never
        # sentinel, so "finished" is simply svc_finish < cycle).
        self._svc_finish = np.full((m, fleet), _NEVER, dtype=np.int32)
        self._svc_proc = np.zeros((m, fleet), dtype=np.int64)
        if self._buffered:
            depth = self._depth
            capacity = self._capacity
            track_ready = not self._random_tie
            # Serving or stalled: the only modules a granted request
            # queues behind (a module with queued input is always one).
            self._engaged = np.zeros((m, fleet), dtype=bool)
            # Queues are (slots, m * fleet) rings.  Heads and tails are
            # flat ring indices (slot * m * fleet + module), advanced
            # through precomputed next-slot tables that wrap at each
            # row's own depth, so a push or pop is three flat gathers
            # and scatters over the affected modules only.
            self._inq_ring = np.zeros((depth, flat_modules), dtype=np.int64)
            self._inq_next = self._next_slots(depth, self._depth_rows)
            self._inq_head = np.arange(flat_modules, dtype=np.int64)
            self._inq_tail = self._inq_head.copy()
            self._inq_len = np.zeros((m, fleet), dtype=np.int32)
            self._outq_ring = np.zeros(
                (capacity, flat_modules), dtype=np.int64
            )
            self._outq_next = self._next_slots(
                capacity, self._capacity_rows
            )
            self._outq_head = np.arange(flat_modules, dtype=np.int64)
            self._outq_tail = self._outq_head.copy()
            self._outq_len = np.zeros((m, fleet), dtype=np.int32)
            self._capacity_flat = self._capacity_rows[flat_rows]
            self._stalled = np.zeros((m, fleet), dtype=bool)
            # Modules scheduled to resolve a stall next cycle travel as
            # a flat index list (stall resolution is always "next
            # cycle", so no per-module resolve-cycle array is needed).
            # A stalled module keeps its request in the svc_* slots.
            self._resolve_flat = None
            if track_ready:
                # FCFS responses need the oldest-response ready cycle:
                # per-slot stamps in the ring plus a dense head-of-queue
                # mirror the arbiter reads, both maintained at the
                # sparse push/pop sites.
                self._outq_ready_ring = np.full(
                    (capacity, flat_modules), _NEVER, dtype=np.int32
                )
                self._head_ready = np.full(
                    (m, fleet), _NEVER, dtype=np.int32
                )
            else:
                self._outq_ready_ring = None
                self._head_ready = None
            if self._collect_latency:
                self._svc_wait_flat = np.zeros(flat_modules, dtype=np.int32)
                self._outq_wait_ring = np.zeros(
                    (capacity, flat_modules), dtype=np.int32
                )
            if self._collect_service:
                self._svc_dur_flat = np.zeros(flat_modules, dtype=np.int32)
                self._outq_dur_ring = np.zeros(
                    (capacity, flat_modules), dtype=np.int32
                )
        else:
            # Unbuffered: a module is a single request slot, so one
            # "fully idle" mask serves the whole acceptance rule and is
            # maintained incrementally at the two grant sites.
            self._module_free = np.ones((m, fleet), dtype=bool)
            if self._collect_latency:
                self._out_wait_flat = np.zeros(flat_modules, dtype=np.int32)
            if self._collect_service:
                self._out_dur_flat = np.zeros(flat_modules, dtype=np.int32)

        # --- counters (per row).  Response transfers and completions
        # are one and the same event in this machine, so only one
        # counter is kept.  Memory busy time is charged at service
        # start: constant-r rows derive it from the started services
        # (:meth:`_memory_busy`), geometric fleets add each drawn
        # duration here.
        self.cycle = 0
        self.completions = np.zeros(fleet, dtype=np.int64)
        self.request_transfers = np.zeros(fleet, dtype=np.int64)
        self.total_latency = np.zeros(fleet, dtype=np.int64)
        self._busy_accum = np.zeros(fleet, dtype=np.int64)

        # Flat views: the hot loop scatters and gathers through 1D
        # fancy indexing (index = lane * fleet + row) on raveled views
        # of the state arrays (the arrays are never reallocated, so the
        # views stay valid for the kernel's lifetime).
        self._requesting_flat = self._requesting.reshape(-1)
        self._target_gidx_flat = self._target_gidx.reshape(-1)
        self._issue_flat = self._issue.reshape(-1)
        self._wake_flat = self._wake.reshape(-1)
        self._svc_finish_flat = self._svc_finish.reshape(-1)
        self._svc_proc_flat = self._svc_proc.reshape(-1)
        if self._buffered:
            self._engaged_flat = self._engaged.reshape(-1)
            self._stalled_flat = self._stalled.reshape(-1)
            self._inq_len_flat = self._inq_len.reshape(-1)
            self._outq_len_flat = self._outq_len.reshape(-1)
        else:
            self._module_free_flat = self._module_free.reshape(-1)
        self._log1p_neg_p_flat = np.ascontiguousarray(
            self._log1p_neg_p.T
        ).reshape(-1)

        # Initial condition: every real processor issues at cycle 0,
        # its target drawn in lane order (the reference initial
        # condition); padded lanes are pinned to module 0.
        target = self._initial_targets().T
        target[~self._lane_valid] = 0
        self._target_gidx[:] = target.astype(np.int64) * fleet + np.arange(
            fleet
        )

    def _next_slots(self, slots: int, length_rows):
        """Next-slot table of a ``(slots, m * fleet)`` ring: entry
        ``slot * m * fleet + module`` holds the flat index of the slot
        after it, wrapping at the module's row length."""
        np = self._np
        flat_modules = self._m * self._fleet
        lengths = length_rows[np.arange(flat_modules) % self._fleet]
        following = np.arange(1, slots + 1)[:, None]
        following = np.where(following >= lengths, 0, following)
        return (following * flat_modules + np.arange(flat_modules)).reshape(
            -1
        )

    # ------------------------------------------------------------------
    def _initial_targets(self):
        """Every real lane's first target, drawn in lane order per row.

        Row ``f`` consumes exactly ``n_f`` draws (its own lane count),
        so its targets stream position matches an unpacked fleet's;
        padding columns carry garbage the caller masks out.
        """
        np = self._np
        if self._any_random:
            u = self._targets_lanes.take_counts(self._n_rows)
            fraction = self._hot_fraction[:, None]
            m_col = self._m_rows[:, None]
            module = np.minimum(
                ((u - fraction) * self._hot_rescale[:, None] * m_col).astype(
                    np.int32
                ),
                (m_col - 1).astype(np.int32),
            )
            new_target = np.where(
                u < fraction, self._hot_module[:, None], module
            )
        else:
            new_target = None
        if self._any_trace:
            position = self._trace_pos % self._trace_len
            traced = np.take_along_axis(
                self._trace_pad, position[:, :, None], axis=2
            )[:, :, 0]
            self._trace_pos += 1
            if new_target is None:
                new_target = traced
            else:
                new_target = np.where(
                    self._trace_rows[:, None], traced, new_target
                )
        return new_target

    def _draw_target_rows(self, rows, flat_lane):
        """Next targets, as flat module indices, for the listed lanes.

        ``flat_lane`` holds one lane of each listed row.  A row's
        targets are consumed strictly in its own grant order (one draw
        per completed request), which is row-local - the draw sequence
        never depends on fleet composition.  Drawing at response-grant
        time (instead of at the later wake cycle) keeps the hot loop
        free of masked 2D stream consumption.
        """
        np = self._np
        fleet = self._fleet
        if self._plain_uniform:
            # u < 1 - 2**-53, so u * m rounds below m: no clamp needed.
            u = self._targets_lanes.take_rows(rows)
            drawn = (u * self._m_float[rows]).astype(np.int64)
            drawn *= fleet
            drawn += rows
            return drawn
        if self._any_random:
            if self._any_trace:
                random_rows = ~self._trace_rows[rows]
                u = np.empty(len(rows), dtype=np.float64)
                u[random_rows] = self._targets_lanes.take_rows(
                    rows[random_rows]
                )
                u[~random_rows] = 0.0
            else:
                u = self._targets_lanes.take_rows(rows)
            fraction = self._hot_fraction[rows]
            m_r = self._m_rows[rows]
            module = np.minimum(
                ((u - fraction) * self._hot_rescale[rows] * m_r).astype(
                    np.int32
                ),
                (m_r - 1).astype(np.int32),
            )
            drawn = np.where(u < fraction, self._hot_module[rows], module)
        else:
            drawn = None
        if self._any_trace:
            lanes = flat_lane // fleet
            position = self._trace_pos[rows, lanes]
            traced = self._trace_pad[
                rows, lanes, position % self._trace_len[rows, lanes]
            ]
            self._trace_pos[rows, lanes] = position + 1
            if drawn is None:
                drawn = traced
            else:
                drawn = np.where(self._trace_rows[rows], traced, drawn)
        return drawn.astype(np.int64) * fleet + rows

    # ----------------------------------------------------------------------
    def _memory_busy(self):
        """Per-row module busy cycles through the last simulated cycle.

        Every service is charged its full duration when it starts -
        constant-``r`` rows as ``r`` per started service (a request
        transfer not still waiting in an input queue), geometric fleets
        through the drawn durations summed in ``_busy_accum`` - and the
        not-yet-worked remainder of in-flight services is subtracted
        here.  This matches the reference accounting (one count per
        module per cycle in service) at every measurement boundary.
        """
        np = self._np
        if self._geometric:
            charged = self._busy_accum
        else:
            started = self.request_transfers
            if self._buffered:
                started = started - self._inq_len.sum(axis=0)
            charged = started * self._r_rows
        through = self.cycle - 1
        svc_finish = self._svc_finish
        in_flight = (svc_finish > through) & (svc_finish < _NEVER)
        remainder = np.where(in_flight, svc_finish - through, 0)
        return charged - remainder.sum(axis=0)

    # ------------------------------------------------------------------
    def advance(self, count: int) -> None:
        """Advance every fleet row by ``count`` bus cycles in lockstep.

        The loop body is deliberately written as a small number of
        whole-fleet array operations - dense masked writes over
        ``(lanes, fleet)`` blocks for the frequent events and flat 1D
        fancy indexing for the sparse per-row grant bookkeeping - with
        the fleet as the contiguous axis, so per-row reductions
        vectorize across rows.  Per cycle the cost is a fixed number of
        NumPy dispatches; per *row* it therefore shrinks roughly
        linearly with fleet size.
        """
        if count <= 0:
            return
        if self.cycle + count >= _NEVER:
            raise ConfigurationError(
                f"a batch run is limited to {_NEVER} total bus cycles "
                "(int32 cycle state); split the run or use kernel='fast'"
            )
        if self._buffered:
            self._advance_buffered(count)
        else:
            self._advance_unbuffered(count)

    def _make_arbiter(self):
        """Build the per-cycle arbitration closure both loops share.

        Returns ``(arbitrate, request_cand, response_cand)``.  Each
        cycle the loop writes its candidates - ``request_cand`` ``(n,
        fleet)`` eligible requests, ``response_cand`` ``(m, fleet)``
        ready responses, 1.0 or 0.0 - and calls ``arbitrate(issue,
        ready_stamps)``; the stamps (request issue cycles, response
        ready cycles) are read only under FCFS.  The closure counts the
        granted transfers and returns ``(request_rows, request_lanes,
        response_rows, response_modules)``: the granting rows of each
        class and their winners as flat indices (``lane * fleet +
        row``).  One definition keeps the priority/tie-break semantics
        of the buffered and unbuffered loops from ever diverging.

        The two candidate blocks are stacked, the winning class on top,
        in one ``(n + m, fleet)`` float32 buffer.  Under random
        tie-break a single lower-triangular matmul (BLAS) gives every
        lane's running candidate count over the stack, so the top
        class's count is its last row and the bottom class's is the
        total less it.  A row picks ``floor(u * count)`` over the top
        class if that holds a candidate and over the total otherwise,
        and the winner is the first lane whose running count exceeds
        the pick: lanes of the empty top class all read 0.  That is the
        k-th candidate of the row's granting class, the same one a
        separate rank per class picks (counts are small integers, exact
        in float32).
        """
        np = self._np
        add = np.add
        fleet = self._fleet
        n, m = self._n, self._m
        lanes = n + m
        high = n if self._proc_first else m
        high_shift = high * fleet
        cand = np.zeros((lanes, fleet), dtype=np.float32)
        top, bottom = cand[:high], cand[high:]
        request_cand, response_cand = (
            (top, bottom) if self._proc_first else (bottom, top)
        )
        proc_first = self._proc_first
        # Grants are counted by dense mask adds, which cost less than
        # scattering += 1 over the granting rows.
        high_counter, low_counter = (
            (self.request_transfers, self.completions)
            if proc_first
            else (self.completions, self.request_transfers)
        )

        if self._random_tie:
            matmul = np.matmul
            multiply = np.multiply
            floor = np.floor
            greater = np.greater
            where = np.where
            arb_take_all = self._arb_lanes.take_all
            tril = np.tril(np.ones((lanes, lanes), dtype=np.float32))
            rank = np.empty((lanes, fleet), dtype=np.float32)
            above = np.empty((lanes, fleet), dtype=bool)
            pick = np.empty(fleet, dtype=np.float32)
            zero = np.zeros(fleet, dtype=np.float32)
            high_mask = np.empty(fleet, dtype=bool)
            columns = np.arange(fleet)
            high_count = rank[high - 1]
            total = rank[-1]

            def arbitrate(issue, ready_stamps):
                # One draw per row per cycle, used by whichever grant
                # the row makes (at most one).
                u_arb = arb_take_all()
                matmul(tril, cand, out=rank)
                greater(high_count, zero, out=high_mask)
                count = where(high_mask, high_count, total)
                low_mask = count > high_count
                # floor in float64, then float32 for a float32 compare.
                floor(multiply(u_arb, count), out=pick)
                winner = greater(rank, pick, out=above).argmax(axis=0)
                winner *= fleet
                winner += columns
                high_rows = high_mask.nonzero()[0]
                low_rows = low_mask.nonzero()[0]
                add(high_counter, high_mask, out=high_counter)
                add(low_counter, low_mask, out=low_counter)
                high_flat = winner[high_rows]
                low_flat = winner[low_rows]
                low_flat -= high_shift
                if proc_first:
                    return high_rows, high_flat, low_rows, low_flat
                return low_rows, low_flat, high_rows, high_flat

        else:

            def oldest(candidates, stamps, rows):
                if not rows.size:
                    return rows
                winner = np.where(candidates, stamps, _NEVER).argmin(axis=0)
                return winner[rows] * fleet + rows

            def arbitrate(issue, ready_stamps):
                if proc_first:
                    high_stamps, low_stamps = issue, ready_stamps
                else:
                    high_stamps, low_stamps = ready_stamps, issue
                high_mask = top.any(axis=0)
                low_mask = bottom.any(axis=0) & ~high_mask
                high_rows = high_mask.nonzero()[0]
                low_rows = low_mask.nonzero()[0]
                add(high_counter, high_mask, out=high_counter)
                add(low_counter, low_mask, out=low_counter)
                high_flat = oldest(top, high_stamps, high_rows)
                low_flat = oldest(bottom, low_stamps, low_rows)
                if proc_first:
                    return high_rows, high_flat, low_rows, low_flat
                return low_rows, low_flat, high_rows, high_flat

        return arbitrate, request_cand, response_cand

    def _complete_responses(
        self, grant_rows, flat_lane, cycle, wait=None, service=None
    ):
        """Shared response-grant tail: latency, next target, next issue.

        ``flat_lane`` holds the granted responses' processor lanes.
        ``wait`` carries the per-grant arbitration-plus-queueing delays
        (latency collection only) and ``service`` the drawn service
        durations (geometric latency collection only); the total
        latency is derived from the frozen issue stamps here either
        way.
        """
        np = self._np
        total = (cycle + 1) - self._issue_flat[flat_lane]
        self.total_latency[grant_rows] += total
        if self._sketch_total is not None:
            # Post-warmup only: run() creates the sketches at the
            # measurement boundary.  Grant rows are distinct (one
            # response per row per cycle), as the sketch requires.
            self._sketch_total.add(grant_rows, total)
            self._sketch_wait.add(grant_rows, wait)
            if self._sketch_service is not None:
                self._sketch_service.add(grant_rows, service)
        self._target_gidx_flat[flat_lane] = self._draw_target_rows(
            grant_rows, flat_lane
        )
        if self._all_p1:
            # The processor issues its next request next cycle.
            self._issue_flat[flat_lane] = cycle + 1
            self._requesting_flat[flat_lane] = True
            return
        # Inverse-CDF geometric think time: one uniform per completion
        # decides how many processor cycles the issue coin keeps
        # failing.  Wakes past the cycle cap clamp to the (unreachable)
        # never sentinel.
        u_think = self._think_lanes.take_rows(grant_rows)
        failures = (
            np.log1p(-u_think) / self._log1p_neg_p_flat[flat_lane]
        ).astype(np.int64)
        self._wake_flat[flat_lane] = np.minimum(
            cycle + 1 + failures * self._pc_rows[grant_rows], _NEVER
        )

    def _service_durations(self, rows):
        """Drawn service durations for services starting on ``rows``.

        Inverse-CDF geometric service: one uniform per start from the
        per-row access-times stream, in list order (a row listed twice
        takes two sequential draws); constant-r rows of a packed fleet
        draw nothing.  Durations are charged to the busy count here.
        """
        np = self._np
        duration = self._r_rows[rows]
        geo = self._geom_rows[rows]
        if geo.any():
            geo_rows = rows[geo]
            u_access = self._access_lanes.take_rows_multi(geo_rows)
            duration[geo] = (
                np.log1p(-u_access) / self._log_access_rows[geo_rows]
            ).astype(np.int64) + 1
        np.add.at(self._busy_accum, rows, duration)
        return duration

    def _advance_unbuffered(self, count: int) -> None:
        """The lean lockstep loop for unbuffered fleets.

        A module is free, serving (``svc_finish >= cycle``) or holding
        a finished response (``svc_finish < cycle``) until its response
        is granted, so there is no completion step: readiness is one
        comparison written straight into the arbiter's candidates.
        """
        np = self._np
        logical_and = np.logical_and
        less = np.less
        all_p1 = self._all_p1
        collect = self._collect_latency
        collect_service = self._collect_service
        geometric = self._geometric
        service_durations = self._service_durations
        r_flat = self._r_flat
        out_wait_flat = self._out_wait_flat if collect else None
        out_dur_flat = self._out_dur_flat if collect_service else None
        arbitrate, request_cand, response_cand = self._make_arbiter()

        requesting = self._requesting
        issue = self._issue
        wake = self._wake
        svc_finish = self._svc_finish
        requesting_flat = self._requesting_flat
        target_gidx = self._target_gidx
        target_gidx_flat = self._target_gidx_flat
        issue_flat = self._issue_flat
        svc_finish_flat = self._svc_finish_flat
        svc_proc_flat = self._svc_proc_flat
        module_free_flat = self._module_free_flat
        free = np.empty(target_gidx.shape, dtype=bool)

        cycle = self.cycle
        for _ in range(count):
            # 1. processor-cycle boundaries: waking processors issue
            #    (their targets were drawn when the wake was scheduled;
            #    at p = 1 everywhere the response grant re-issues).
            if not all_p1:
                waking = wake == cycle
                if waking.any():
                    issue[waking] = cycle
                    requesting |= waking
                    wake[waking] = _NEVER

            # 2. arbitration on the pre-tick state.
            module_free_flat.take(target_gidx, out=free)
            logical_and(requesting, free, out=request_cand)
            less(svc_finish, cycle, out=response_cand)
            request_rows, flat_lane, response_rows, flat_mod = arbitrate(
                issue, svc_finish
            )

            # 3. the granted transfer completes at the end of the cycle.
            if request_rows.size:
                target = target_gidx_flat[flat_lane]
                requesting_flat[flat_lane] = False
                module_free_flat[target] = False
                svc_proc_flat[target] = flat_lane
                if geometric:
                    duration = service_durations(request_rows)
                else:
                    duration = r_flat[target]
                svc_finish_flat[target] = cycle + duration
                if collect:
                    # Service starts next cycle: wait = start - issue - 1.
                    out_wait_flat[target] = cycle - issue_flat[flat_lane]
                    if collect_service:
                        out_dur_flat[target] = duration
            if response_rows.size:
                procs = svc_proc_flat[flat_mod]
                svc_finish_flat[flat_mod] = _NEVER
                module_free_flat[flat_mod] = True
                self._complete_responses(
                    response_rows,
                    procs,
                    cycle,
                    out_wait_flat[flat_mod] if collect else None,
                    out_dur_flat[flat_mod] if collect_service else None,
                )
            cycle += 1
        self.cycle = cycle

    def _advance_buffered(self, count: int) -> None:
        """The lockstep loop for buffered fleets (stalls, FIFO queues).

        Queues live in ``(slots, m * fleet)`` circular buffers: pushes
        and pops are flat fancy-indexed scatters over the modules with
        an event this cycle, so the per-cycle cost is a fixed number of
        dense ``(m, fleet)`` mask operations plus sparse index-list
        work - no per-cycle FIFO shifting, no dense stall scans (stall
        resolutions travel as a flat index list for the next cycle).
        """
        np = self._np
        concatenate = np.concatenate
        logical_and = np.logical_and
        less = np.less
        greater = np.greater
        fleet = self._fleet
        all_p1 = self._all_p1
        track_ready = not self._random_tie
        collect = self._collect_latency
        collect_service = self._collect_service
        geometric = self._geometric
        service_durations = self._service_durations
        r_flat = self._r_flat
        capacity_flat = self._capacity_flat
        depth_cols = self._depth_rows[None, :]
        arbitrate, request_cand, response_cand = self._make_arbiter()

        requesting = self._requesting
        issue = self._issue
        wake = self._wake
        requesting_flat = self._requesting_flat
        target_gidx = self._target_gidx
        target_gidx_flat = self._target_gidx_flat
        issue_flat = self._issue_flat
        engaged_flat = self._engaged_flat
        svc_finish_flat = self._svc_finish_flat
        svc_proc_flat = self._svc_proc_flat
        stalled_flat = self._stalled_flat
        inq_len = self._inq_len
        inq_len_flat = self._inq_len_flat
        inq_ring_flat = self._inq_ring.reshape(-1)
        inq_next = self._inq_next
        inq_head = self._inq_head
        inq_tail = self._inq_tail
        outq_len = self._outq_len
        outq_len_flat = self._outq_len_flat
        outq_ring_flat = self._outq_ring.reshape(-1)
        outq_next = self._outq_next
        outq_head = self._outq_head
        outq_tail = self._outq_tail
        head_ready = self._head_ready
        if track_ready:
            outq_ready_flat = self._outq_ready_ring.reshape(-1)
            head_ready_flat = head_ready.reshape(-1)
        if collect:
            svc_wait_flat = self._svc_wait_flat
            outq_wait_flat = self._outq_wait_ring.reshape(-1)
        if collect_service:
            svc_dur_flat = self._svc_dur_flat
            outq_dur_flat = self._outq_dur_ring.reshape(-1)
        # A module with queued input is always serving or stalled, so
        # "full input queue" alone decides whether it accepts a request.
        accepting = np.empty(inq_len.shape, dtype=bool)
        accepting_flat = accepting.reshape(-1)
        accepted = np.empty(target_gidx.shape, dtype=bool)

        def start_service(flat, procs, rows):
            """Start serving ``procs`` on the (idle) modules ``flat``."""
            svc_proc_flat[flat] = procs
            if geometric:
                duration = service_durations(rows)
            else:
                duration = r_flat[flat]
            svc_finish_flat[flat] = cycle + duration
            if collect:
                svc_wait_flat[flat] = cycle - issue_flat[procs]
                if collect_service:
                    svc_dur_flat[flat] = duration

        resolve = self._resolve_flat
        cycle = self.cycle
        for _ in range(count):
            # 1. processor-cycle boundaries: waking processors issue
            #    (at p = 1 everywhere the response grant re-issues).
            if not all_p1:
                waking = wake == cycle
                if waking.any():
                    issue[waking] = cycle
                    requesting |= waking
                    wake[waking] = _NEVER

            # 2. arbitration on the pre-tick state.
            less(inq_len, depth_cols, out=accepting)
            accepting_flat.take(target_gidx, out=accepted)
            logical_and(requesting, accepted, out=request_cand)
            greater(outq_len, 0, out=response_cand)
            request_rows, flat_lane, response_rows, flat_mod = arbitrate(
                issue, head_ready
            )

            # 3. module events for this cycle: services finishing now
            #    move their requests to the output rings or stall on a
            #    full one, and the stalls scheduled by last cycle's
            #    response grants resolve (that grant freed a slot, and a
            #    stalled module finishes nothing, so the push never
            #    overflows).  Each pushing module pulls its next input.
            finished = (svc_finish_flat == cycle).nonzero()[0]
            if finished.size:
                space = outq_len_flat[finished] < capacity_flat[finished]
                stalled_flat[finished] = ~space
                pushed = finished[space]
            else:
                pushed = finished
            if resolve is not None:
                stalled_flat[resolve] = False
                pushed = concatenate((resolve, pushed))
                resolve = None
            if pushed.size:
                tail = outq_tail[pushed]
                outq_ring_flat[tail] = svc_proc_flat[pushed]
                outq_tail[pushed] = outq_next[tail]
                if track_ready:
                    outq_ready_flat[tail] = cycle + 1
                    newly_headed = pushed[outq_len_flat[pushed] == 0]
                    head_ready_flat[newly_headed] = cycle + 1
                if collect:
                    outq_wait_flat[tail] = svc_wait_flat[pushed]
                    if collect_service:
                        outq_dur_flat[tail] = svc_dur_flat[pushed]
                outq_len_flat[pushed] += 1
                queued = inq_len_flat[pushed] > 0
                engaged_flat[pushed] = queued
                pulled = pushed[queued]
                if pulled.size:
                    head = inq_head[pulled]
                    procs = inq_ring_flat[head]
                    inq_head[pulled] = inq_next[head]
                    inq_len_flat[pulled] -= 1
                    start_service(
                        pulled,
                        procs,
                        pulled % fleet if geometric else None,
                    )

            # 4. the granted transfer completes at the end of the cycle.
            if request_rows.size:
                target = target_gidx_flat[flat_lane]
                requesting_flat[flat_lane] = False
                # Post-event module state decides direct service vs
                # input buffering, exactly like the exact kernels.
                busy = engaged_flat[target]
                engaged_flat[target] = True
                idle = ~busy
                idle_mod = target[idle]
                if idle_mod.size:
                    start_service(
                        idle_mod,
                        flat_lane[idle],
                        request_rows[idle] if geometric else None,
                    )
                queue_mod = target[busy]
                if queue_mod.size:
                    tail = inq_tail[queue_mod]
                    inq_ring_flat[tail] = flat_lane[busy]
                    inq_tail[queue_mod] = inq_next[tail]
                    inq_len_flat[queue_mod] += 1
            if response_rows.size:
                head = outq_head[flat_mod]
                procs = outq_ring_flat[head]
                following = outq_next[head]
                outq_head[flat_mod] = following
                outq_len_flat[flat_mod] -= 1
                if track_ready:
                    head_ready_flat[flat_mod] = np.where(
                        outq_len_flat[flat_mod] > 0,
                        outq_ready_flat[following],
                        _NEVER,
                    )
                self._complete_responses(
                    response_rows,
                    procs,
                    cycle,
                    outq_wait_flat[head] if collect else None,
                    outq_dur_flat[head] if collect_service else None,
                )
                resolving = flat_mod[stalled_flat[flat_mod]]
                if resolving.size:
                    # Stalled modules resolve exactly one cycle after
                    # the response grant that freed their slot.
                    resolve = resolving
            cycle += 1
        self.cycle = cycle
        self._resolve_flat = resolve

    def run(
        self,
        cycles: int,
        warmup: int | None = None,
        batches: int = _DEFAULT_BATCHES,
    ) -> list[SimulationResult]:
        """Simulate ``cycles`` measured bus cycles for every row.

        Parameter semantics and defaults replicate
        :meth:`repro.bus.system.MultiplexedBusSystem.run`; the return
        value is one result per fleet row, in row order.
        """
        if cycles < 1:
            raise ConfigurationError(f"cycles must be >= 1, got {cycles}")
        if warmup is None:
            warmup = int(cycles * _DEFAULT_WARMUP_FRACTION)
        if warmup < 0:
            raise ConfigurationError(f"warmup must be >= 0, got {warmup}")
        if batches < 0:
            raise ConfigurationError(f"batches must be >= 0, got {batches}")
        self.advance(warmup)
        if self._collect_latency:
            # Fresh sketches at the measurement boundary: in-flight
            # requests keep their (pre-boundary) wait stamps, exactly
            # like the exact kernels' trackers, but only post-warmup
            # completions are recorded.
            from repro.metrics import FleetQuantileSketch

            self._sketch_wait = FleetQuantileSketch(self._fleet)
            self._sketch_total = FleetQuantileSketch(self._fleet)
            if self._collect_service:
                self._sketch_service = FleetQuantileSketch(self._fleet)
        start_cycle = self.cycle
        start_completions = self.completions.copy()
        start_requests = self.request_transfers.copy()
        start_latency = self.total_latency.copy()
        start_memory_busy = self._memory_busy()

        pc_rows = self._pc_rows
        batch_ebws: list[list[float]] = [[] for _ in range(self._fleet)]
        if batches > 1:
            batch_length = cycles // batches
            remainder = cycles - batch_length * batches
            previous = self.completions.copy()
            for index in range(batches):
                length = batch_length + (1 if index < remainder else 0)
                self.advance(length)
                if length > 0:
                    for f in range(self._fleet):
                        batch_ebws[f].append(
                            int(self.completions[f] - previous[f])
                            * int(pc_rows[f])
                            / length
                        )
                previous = self.completions.copy()
        else:
            self.advance(cycles)

        measured = self.cycle - start_cycle
        memory_busy = self._memory_busy() - start_memory_busy
        reports = (
            self._latency_reports() if self._collect_latency else None
        )
        return [
            SimulationResult(
                config=self.configs[f],
                cycles=measured,
                completions=int(self.completions[f] - start_completions[f]),
                request_transfers=int(
                    self.request_transfers[f] - start_requests[f]
                ),
                response_transfers=int(
                    self.completions[f] - start_completions[f]
                ),
                memory_busy_cycles=int(memory_busy[f]),
                total_latency=int(self.total_latency[f] - start_latency[f]),
                seed=self.seeds[f],
                warmup_cycles=warmup,
                batch_ebws=tuple(batch_ebws[f]),
                latency=None if reports is None else reports[f],
            )
            for f in range(self._fleet)
        ]

    def _latency_reports(self):
        """One :class:`LatencyReport` per row from the fleet sketches.

        Wait and total populations come from the vectorized sketches.
        A constant-``r`` row's service population is synthesised
        exactly (the degenerate distribution at its own ``r``); a
        geometric row's per-access service draws flow through a third
        sketch, so its summary carries the same sketch error bound as
        the wait and total populations.
        """
        from fractions import Fraction

        from repro.metrics import LatencyReport, LatencySummary

        assert self._sketch_wait is not None
        wait_rows = self._sketch_wait.summaries()
        total_rows = self._sketch_total.summaries()
        service_rows = (
            self._sketch_service.summaries()
            if self._sketch_service is not None
            else None
        )
        reports = []
        for f, (wait, total) in enumerate(zip(wait_rows, total_rows)):
            if service_rows is not None and self._geom_rows[f]:
                service = service_rows[f]
            elif total.count:
                value = Fraction(int(self._r_rows[f]))
                service = LatencySummary(
                    count=total.count,
                    total=value * total.count,
                    minimum=value,
                    maximum=value,
                    p50=value,
                    p90=value,
                    p99=value,
                )
            else:
                service = LatencySummary()
            reports.append(
                LatencyReport(wait=wait, service=service, total=total)
            )
        return reports


def run_batch(
    config: SystemConfig,
    cycles: int = 100_000,
    seed: int = 0,
    warmup: int | None = None,
    targets: TargetSampler | None = None,
    request_probabilities: Sequence[float] | None = None,
    collect_latency: bool = False,
    geometric_access_times: bool = False,
) -> SimulationResult:
    """Run one configuration through a single-row batch fleet.

    The ``kernel="batch"`` entry point of :func:`repro.bus.simulate`.
    A one-row fleet produces exactly the bytes the same row produces
    inside any larger fleet (rows are independent; property-tested), so
    cached batch results never depend on how runs were grouped.

    ``collect_latency`` attaches the sketch-based
    :class:`~repro.metrics.LatencyReport` (statistically - not bit -
    equivalent to the exact kernels' streaming summaries).
    """
    kernel = BatchBusKernel(
        [config],
        [seed],
        targets=[targets],
        request_probabilities=[request_probabilities],
        collect_latency=collect_latency,
        geometric_access_times=geometric_access_times,
    )
    return kernel.run(cycles, warmup=warmup)[0]
