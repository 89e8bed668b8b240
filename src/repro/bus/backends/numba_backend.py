"""The JIT batch backends: one scalar loop source, compiled two ways.

The numpy backend pays a fixed number of array-op dispatches per cycle;
for the fleet sizes the paper's figures need, most of that is still
interpreter overhead.  These backends replace the per-cycle dispatch
sequence with two self-contained scalar loops (one per buffering mode)
that ``numba.njit`` compiles to native code operating on **the exact
same state arrays** the numpy program uses.

The loops run fleet rows outermost.  Rows are **fully independent** by
the reproducibility contract - each row owns its counter-based Philox
streams, its buffers and positions, and every state array is
row-indexed - so the row loop is a ``prange``.  ``numba`` compiles the
loops with ``parallel=False``, where ``prange`` is ``range``;
``numba-parallel`` compiles the same source with ``parallel=True`` and
distributes rows over ``NUMBA_NUM_THREADS`` threads.  Either way each
row executes exactly the statement sequence the numpy program executes
for it.

**Bit-identity contract.**  The scalar loops consume the per-row
Philox streams in exactly the numpy program's order and reproduce its
arithmetic exactly (left-associative hot-spot products, truncating
inverse-CDF casts, first-minimum FCFS scans, ``floor(u * count)``
tie-break picks), so every counter, EBW, latency sketch and RNG
end-state is bit-identical to the numpy backend - proven by
``tests/properties/test_backend_equivalence.py`` - and all three share
the ``simulation-batch@1`` cache namespace.

The loops are also valid plain Python (``prange`` degrades to ``range``
outside JIT compilation, and a plain ``range`` stands in where numba is
not importable): ``NumbaBackend(jit=False)`` runs them interpreted, so
the bit-identity suite executes even where numba is not installed (the
registry's default instances always JIT and raise a
:class:`ConfigurationError` naming the ``[batch-jit]`` extra when numba
is missing).

**Segments.**  Rows running concurrently cannot coordinate a mid-loop
early exit, so the loops have no stop conditions.  The driver instead
refills every row without headroom for one cycle, then **precomputes**
the largest segment every row can run safely - ``min((chunk - pos) //
margin)`` over rows and streams, capped by the per-row event stride -
and enters the loop for exactly that many cycles.  Because
``Generator.random(k)`` splits compose sequentially, moving refills
earlier never changes the values drawn.

Latency events are spilled into **per-row slices** of a flat buffer
(row ``f`` owns ``[f * stride, f * stride + row_nev[f])``), so threads
never contend on one cursor; the host replay gathers the slices in
ascending-row order, stable-sorts by cycle, and feeds the sketches the
exact per-cycle, rows-ascending, total-then-wait add sequence the numpy
program performs.
"""

from __future__ import annotations

import functools
import math

from repro.bus.backends.base import BatchBackend

try:  # pragma: no cover - exercised only where numba is installed
    from numba import prange
except ImportError:  # numba.prange behaves as range outside JIT anyway
    prange = range

_NEVER = 1 << 30


# ----------------------------------------------------------------------
# The scalar cycle loops, rows outermost.  Each is one self-contained
# function (njit cannot call back into plain Python) covering every
# feature flag via branches on loop-invariant booleans; absent features
# receive dummy arrays that the guarded branches never touch.  The last
# six arguments are the per-row event slices (ev_cycle, ev_wait,
# ev_total, ev_serv, ev_stride, row_nev).  The driver guarantees the
# segment fits every stream and event slice, so there are no in-loop
# stop checks.
# ----------------------------------------------------------------------
def _unbuffered_loop(
    count,
    cycle0,
    n_arr,
    m_arr,
    fleet,
    r_arr,
    pc_arr,
    proc_first,
    random_tie,
    track_ready,
    collect,
    collect_serv,
    record,
    geom_arr,
    requesting,
    target,
    issue,
    wake,
    svc_finish,
    svc_proc,
    module_free,
    out_full,
    out_proc,
    out_ready,
    out_wait,
    out_dur,
    completions,
    request_transfers,
    total_latency,
    busy_accum,
    trace_rows,
    trace_pad,
    trace_len,
    trace_pos,
    hot_fraction,
    hot_module,
    hot_rescale,
    log1p_neg_p,
    log_access_arr,
    targets_buf,
    targets_pos,
    has_think,
    think_buf,
    think_pos,
    arb_buf,
    arb_pos,
    access_buf,
    access_pos,
    ev_cycle,
    ev_wait,
    ev_total,
    ev_serv,
    ev_stride,
    row_nev,
):
    for f in prange(fleet):
        # Per-row shape bounds: a packed fleet pads every row to the
        # group maximum, but padded lanes/modules stay inert because
        # the loops never scan past the row's own extent.
        n = n_arr[f]
        m = m_arr[f]
        nev = 0
        base = f * ev_stride
        cycle = cycle0
        for _ in range(count):
            # 1. processor-cycle boundaries: waking processors issue.
            for i in range(n):
                if wake[i, f] == cycle:
                    issue[i, f] = cycle
                    requesting[i, f] = True
                    wake[i, f] = _NEVER

            # 2. arbitration on the pre-tick state (winners are fixed
            #    before this cycle's completions mutate the slots).
            n_count = 0
            for i in range(n):
                if requesting[i, f] and module_free[target[i, f], f]:
                    n_count += 1
            m_count = 0
            for k in range(m):
                if out_full[k, f]:
                    m_count += 1
            u_arb = 0.0
            if random_tie:
                # One draw per row per cycle, consumed unconditionally
                # (the numpy arbiter's take_all does the same).
                u_arb = arb_buf[f, arb_pos[f]]
                arb_pos[f] += 1
            if proc_first:
                do_request = n_count > 0
                do_response = m_count > 0 and n_count == 0
            else:
                do_response = m_count > 0
                do_request = n_count > 0 and m_count == 0
            win_i = 0
            if do_request:
                if random_tie:
                    pick = int(u_arb * n_count)
                    seen = 0
                    for i in range(n):
                        if requesting[i, f] and module_free[target[i, f], f]:
                            if seen == pick:
                                win_i = i
                                break
                            seen += 1
                else:
                    best = _NEVER
                    for i in range(n):
                        if (
                            requesting[i, f]
                            and module_free[target[i, f], f]
                            and issue[i, f] < best
                        ):
                            best = issue[i, f]
                            win_i = i
            win_k = 0
            if do_response:
                if random_tie:
                    pick = int(u_arb * m_count)
                    seen = 0
                    for k in range(m):
                        if out_full[k, f]:
                            if seen == pick:
                                win_k = k
                                break
                            seen += 1
                else:
                    best = _NEVER
                    for k in range(m):
                        if out_full[k, f] and out_ready[k, f] < best:
                            best = out_ready[k, f]
                            win_k = k

            # 3. module completions this cycle.
            for k in range(m):
                if svc_finish[k, f] == cycle:
                    out_full[k, f] = True
                    out_proc[k, f] = svc_proc[k, f]
                    if track_ready:
                        out_ready[k, f] = cycle + 1

            # 4. the granted transfer completes at the end of the cycle.
            if do_request:
                i = win_i
                k = target[i, f]
                requesting[i, f] = False
                request_transfers[f] += 1
                module_free[k, f] = False
                svc_proc[k, f] = i
                if geom_arr[f]:
                    u = access_buf[f, access_pos[f]]
                    access_pos[f] += 1
                    dur = 1 + int(math.log1p(-u) / log_access_arr[f])
                else:
                    dur = r_arr[f]
                svc_finish[k, f] = cycle + dur
                if collect:
                    out_wait[k, f] = cycle - issue[i, f]
                    if collect_serv:
                        out_dur[k, f] = dur
                busy_accum[f] += dur
            if do_response:
                k = win_k
                i = out_proc[k, f]
                out_full[k, f] = False
                module_free[k, f] = True
                completions[f] += 1
                total = (cycle + 1) - issue[i, f]
                total_latency[f] += total
                if record:
                    ev_cycle[base + nev] = cycle
                    ev_wait[base + nev] = out_wait[k, f]
                    ev_total[base + nev] = total
                    if collect_serv:
                        ev_serv[base + nev] = out_dur[k, f]
                    nev += 1
                if trace_rows[f]:
                    position = trace_pos[f, i]
                    tgt = trace_pad[f, i, position % trace_len[f, i]]
                    trace_pos[f, i] = position + 1
                else:
                    u = targets_buf[f, targets_pos[f]]
                    targets_pos[f] += 1
                    fraction = hot_fraction[f]
                    if u < fraction:
                        tgt = hot_module[f]
                    else:
                        drawn = int((u - fraction) * hot_rescale[f] * m)
                        if drawn > m - 1:
                            drawn = m - 1
                        tgt = drawn
                target[i, f] = tgt
                if has_think:
                    u = think_buf[f, think_pos[f]]
                    think_pos[f] += 1
                    failures = int(math.log1p(-u) / log1p_neg_p[f, i])
                    w = cycle + 1 + failures * pc_arr[f]
                    if w > _NEVER:
                        w = _NEVER
                    wake[i, f] = w
                else:
                    wake[i, f] = cycle + 1
            cycle += 1
        row_nev[f] = nev


def _buffered_loop(
    count,
    cycle0,
    n_arr,
    m_arr,
    fleet,
    r_arr,
    pc_arr,
    depth_arr,
    capacity_arr,
    proc_first,
    random_tie,
    track_ready,
    collect,
    collect_serv,
    record,
    geom_arr,
    requesting,
    target,
    issue,
    wake,
    svc_finish,
    svc_proc,
    svc_active,
    stalled,
    stalled_proc,
    resolve,
    inq_ring,
    inq_head,
    inq_len,
    outq_ring,
    outq_head,
    outq_len,
    outq_ready,
    head_ready,
    svc_wait,
    stalled_wait,
    outq_wait,
    svc_dur,
    stalled_dur,
    outq_dur,
    completions,
    request_transfers,
    total_latency,
    busy_accum,
    trace_rows,
    trace_pad,
    trace_len,
    trace_pos,
    hot_fraction,
    hot_module,
    hot_rescale,
    log1p_neg_p,
    log_access_arr,
    targets_buf,
    targets_pos,
    has_think,
    think_buf,
    think_pos,
    arb_buf,
    arb_pos,
    access_buf,
    access_pos,
    ev_cycle,
    ev_wait,
    ev_total,
    ev_serv,
    ev_stride,
    row_nev,
):
    for f in prange(fleet):
        # Per-row shape bounds (see the unbuffered loop): the ring
        # arrays are dimensioned to the pack maxima, but wraps use the
        # row's own depth/capacity so indices replay the unpacked
        # fleet's exactly.
        n = n_arr[f]
        m = m_arr[f]
        depth = depth_arr[f]
        capacity = capacity_arr[f]
        nev = 0
        base = f * ev_stride
        cycle = cycle0
        for _ in range(count):
            # 1. processor-cycle boundaries: waking processors issue.
            for i in range(n):
                if wake[i, f] == cycle:
                    issue[i, f] = cycle
                    requesting[i, f] = True
                    wake[i, f] = _NEVER

            # Busy accounting: one count per module serving this cycle
            # (pre-tick, like the vector loop's svc_active reduction).
            active = 0
            for k in range(m):
                if svc_active[k, f]:
                    active += 1
            busy_accum[f] += active

            # 2. arbitration on the pre-tick state.
            n_count = 0
            for i in range(n):
                k = target[i, f]
                if requesting[i, f] and not (
                    (svc_active[k, f] or stalled[k, f])
                    and inq_len[k, f] >= depth
                ):
                    n_count += 1
            m_count = 0
            for k in range(m):
                if outq_len[k, f] > 0:
                    m_count += 1
            u_arb = 0.0
            if random_tie:
                u_arb = arb_buf[f, arb_pos[f]]
                arb_pos[f] += 1
            if proc_first:
                do_request = n_count > 0
                do_response = m_count > 0 and n_count == 0
            else:
                do_response = m_count > 0
                do_request = n_count > 0 and m_count == 0
            win_i = 0
            if do_request:
                if random_tie:
                    pick = int(u_arb * n_count)
                    seen = 0
                    for i in range(n):
                        k = target[i, f]
                        if requesting[i, f] and not (
                            (svc_active[k, f] or stalled[k, f])
                            and inq_len[k, f] >= depth
                        ):
                            if seen == pick:
                                win_i = i
                                break
                            seen += 1
                else:
                    best = _NEVER
                    for i in range(n):
                        k = target[i, f]
                        if (
                            requesting[i, f]
                            and not (
                                (svc_active[k, f] or stalled[k, f])
                                and inq_len[k, f] >= depth
                            )
                            and issue[i, f] < best
                        ):
                            best = issue[i, f]
                            win_i = i
            win_k = 0
            if do_response:
                if random_tie:
                    pick = int(u_arb * m_count)
                    seen = 0
                    for k in range(m):
                        if outq_len[k, f] > 0:
                            if seen == pick:
                                win_k = k
                                break
                            seen += 1
                else:
                    best = _NEVER
                    for k in range(m):
                        if outq_len[k, f] > 0 and head_ready[k, f] < best:
                            best = head_ready[k, f]
                            win_k = k

            # 3. module events: stall resolutions scheduled by last
            #    cycle's response grants, then service completions.
            for k in range(m):
                if resolve[k, f]:
                    resolve[k, f] = False
                    length = outq_len[k, f]
                    slot = outq_head[k, f] + length
                    if slot >= capacity:
                        slot -= capacity
                    outq_ring[slot, k, f] = stalled_proc[k, f]
                    if track_ready:
                        outq_ready[slot, k, f] = cycle + 1
                        if length == 0:
                            head_ready[k, f] = cycle + 1
                    if collect:
                        outq_wait[slot, k, f] = stalled_wait[k, f]
                        if collect_serv:
                            outq_dur[slot, k, f] = stalled_dur[k, f]
                    outq_len[k, f] = length + 1
                    stalled[k, f] = False
                    if inq_len[k, f] > 0:
                        head = inq_head[k, f]
                        lane = inq_ring[head, k, f]
                        svc_active[k, f] = True
                        svc_proc[k, f] = lane
                        if geom_arr[f]:
                            u = access_buf[f, access_pos[f]]
                            access_pos[f] += 1
                            dur = 1 + int(math.log1p(-u) / log_access_arr[f])
                        else:
                            dur = r_arr[f]
                        svc_finish[k, f] = cycle + dur
                        if collect:
                            svc_wait[k, f] = cycle - issue[lane, f]
                            if collect_serv:
                                svc_dur[k, f] = dur
                        head += 1
                        if head >= depth:
                            head -= depth
                        inq_head[k, f] = head
                        inq_len[k, f] -= 1
            for k in range(m):
                if svc_finish[k, f] == cycle:
                    svc_active[k, f] = False
                    length = outq_len[k, f]
                    if length < capacity:
                        slot = outq_head[k, f] + length
                        if slot >= capacity:
                            slot -= capacity
                        outq_ring[slot, k, f] = svc_proc[k, f]
                        if track_ready:
                            outq_ready[slot, k, f] = cycle + 1
                            if length == 0:
                                head_ready[k, f] = cycle + 1
                        if collect:
                            outq_wait[slot, k, f] = svc_wait[k, f]
                            if collect_serv:
                                outq_dur[slot, k, f] = svc_dur[k, f]
                        outq_len[k, f] = length + 1
                        if inq_len[k, f] > 0:
                            head = inq_head[k, f]
                            lane = inq_ring[head, k, f]
                            svc_active[k, f] = True
                            svc_proc[k, f] = lane
                            if geom_arr[f]:
                                u = access_buf[f, access_pos[f]]
                                access_pos[f] += 1
                                dur = 1 + int(
                                    math.log1p(-u) / log_access_arr[f]
                                )
                            else:
                                dur = r_arr[f]
                            svc_finish[k, f] = cycle + dur
                            if collect:
                                svc_wait[k, f] = cycle - issue[lane, f]
                                if collect_serv:
                                    svc_dur[k, f] = dur
                            head += 1
                            if head >= depth:
                                head -= depth
                            inq_head[k, f] = head
                            inq_len[k, f] -= 1
                    else:
                        stalled[k, f] = True
                        stalled_proc[k, f] = svc_proc[k, f]
                        if collect:
                            stalled_wait[k, f] = svc_wait[k, f]
                            if collect_serv:
                                stalled_dur[k, f] = svc_dur[k, f]

            # 4. the granted transfer completes at the end of the cycle.
            if do_request:
                i = win_i
                k = target[i, f]
                requesting[i, f] = False
                request_transfers[f] += 1
                # Post-event module state decides direct service vs
                # input buffering, exactly like the vector loop.
                if not (svc_active[k, f] or stalled[k, f]):
                    svc_active[k, f] = True
                    svc_proc[k, f] = i
                    if geom_arr[f]:
                        u = access_buf[f, access_pos[f]]
                        access_pos[f] += 1
                        dur = 1 + int(math.log1p(-u) / log_access_arr[f])
                    else:
                        dur = r_arr[f]
                    svc_finish[k, f] = cycle + dur
                    if collect:
                        svc_wait[k, f] = cycle - issue[i, f]
                        if collect_serv:
                            svc_dur[k, f] = dur
                else:
                    slot = inq_head[k, f] + inq_len[k, f]
                    if slot >= depth:
                        slot -= depth
                    inq_ring[slot, k, f] = i
                    inq_len[k, f] += 1
            if do_response:
                k = win_k
                head = outq_head[k, f]
                i = outq_ring[head, k, f]
                new_length = outq_len[k, f] - 1
                outq_len[k, f] = new_length
                nhead = head + 1
                if nhead >= capacity:
                    nhead -= capacity
                outq_head[k, f] = nhead
                if track_ready:
                    if new_length > 0:
                        head_ready[k, f] = outq_ready[nhead, k, f]
                    else:
                        head_ready[k, f] = _NEVER
                completions[f] += 1
                total = (cycle + 1) - issue[i, f]
                total_latency[f] += total
                if record:
                    ev_cycle[base + nev] = cycle
                    ev_wait[base + nev] = outq_wait[head, k, f]
                    ev_total[base + nev] = total
                    if collect_serv:
                        ev_serv[base + nev] = outq_dur[head, k, f]
                    nev += 1
                if trace_rows[f]:
                    position = trace_pos[f, i]
                    tgt = trace_pad[f, i, position % trace_len[f, i]]
                    trace_pos[f, i] = position + 1
                else:
                    u = targets_buf[f, targets_pos[f]]
                    targets_pos[f] += 1
                    fraction = hot_fraction[f]
                    if u < fraction:
                        tgt = hot_module[f]
                    else:
                        drawn = int((u - fraction) * hot_rescale[f] * m)
                        if drawn > m - 1:
                            drawn = m - 1
                        tgt = drawn
                target[i, f] = tgt
                if has_think:
                    u = think_buf[f, think_pos[f]]
                    think_pos[f] += 1
                    failures = int(math.log1p(-u) / log1p_neg_p[f, i])
                    w = cycle + 1 + failures * pc_arr[f]
                    if w > _NEVER:
                        w = _NEVER
                    wake[i, f] = w
                else:
                    wake[i, f] = cycle + 1
                if stalled[k, f]:
                    # Stalled modules resolve exactly one cycle after
                    # the response grant that freed their slot.
                    resolve[k, f] = True
            cycle += 1
        row_nev[f] = nev


EVENT_STRIDE = 1024
"""Latency events each row can spill per segment (one per cycle max,
so segments are capped at this many cycles when recording)."""


@functools.cache
def _jit_loops(parallel: bool):
    """Compile the scalar loops once per process and ``parallel`` flag."""
    import numba

    jit = numba.njit(parallel=parallel, cache=False, nogil=True)
    return jit(_unbuffered_loop), jit(_buffered_loop)


class NumbaBackend(BatchBackend):
    """JIT substrate (optional ``[batch-jit]`` extra, bit-identical).

    ``jit=False`` runs the same loop source interpreted - slower than
    the numpy program, but byte-for-byte the same results, which is how
    the equivalence suite exercises this backend without numba.
    """

    name = "numba"
    extra = "batch-jit"
    parallel = False
    """Whether the JIT distributes the row loop over threads."""

    def __init__(self, jit: bool = True) -> None:
        self._jit = bool(jit)

    def available(self) -> bool:
        try:
            import numba  # noqa: F401
        except ImportError:
            return False
        return True

    def require(self):
        import numpy as np

        if self._jit:
            try:
                import numba  # noqa: F401
            except ImportError:
                self._missing("numba")
        return np

    def _loops(self):
        if self._jit:
            return _jit_loops(self.parallel)
        return (_unbuffered_loop, _buffered_loop)

    # ------------------------------------------------------------------
    def _segment_state(self, kernel):
        """The driver's streams plus the loop's static argument prefix.

        Returns ``(streams, prefix)``: ``streams`` is the ``(lanes,
        per-cycle margin)`` list the driver refills between segments,
        and ``prefix`` is every loop argument after ``count, cycle0``
        and before the event slices.
        """
        np = kernel._np
        fleet = kernel._fleet
        m = kernel._m
        collect = kernel._collect_latency
        collect_serv = kernel._collect_service
        record = kernel._sketch_total is not None
        random_tie = kernel._random_tie
        track_ready = not random_tie

        # A buffered row can draw up to one access time per module
        # (resolve or finish pulls) plus one direct service per cycle;
        # the kernel sizes every buffer to hold m + 2 draws.
        lanes_list = [
            (kernel._targets_lanes, 1),
            (kernel._think_lanes, 1),
            (kernel._arb_lanes, 1),
            (kernel._access_lanes, 1 if not kernel._buffered else m + 2),
        ]
        streams = [(ln, margin) for ln, margin in lanes_list if ln is not None]

        dummy_buf = np.zeros((1, 1), dtype=np.float64)
        dummy_pos = np.zeros(1, dtype=np.int64)

        def stream_args(lanes):
            if lanes is None:
                return dummy_buf, dummy_pos
            return lanes._buf, lanes._pos

        targets_buf, targets_pos = stream_args(kernel._targets_lanes)
        think_buf, think_pos = stream_args(kernel._think_lanes)
        arb_buf, arb_pos = stream_args(kernel._arb_lanes)
        access_buf, access_pos = stream_args(kernel._access_lanes)

        if kernel._trace_pad is not None:
            trace_pad = kernel._trace_pad
            trace_len = kernel._trace_len
            trace_pos = kernel._trace_pos
        else:
            trace_pad = np.zeros((1, 1, 1), dtype=np.int32)
            trace_len = np.ones((1, 1), dtype=np.int64)
            trace_pos = np.zeros((1, 1), dtype=np.int64)

        workload_args = (
            kernel._trace_rows,
            trace_pad,
            trace_len,
            trace_pos,
            kernel._hot_fraction,
            kernel._hot_module,
            kernel._hot_rescale,
            kernel._log1p_neg_p,
            kernel._log_access_rows,
            targets_buf,
            targets_pos,
            kernel._think_lanes is not None,
            think_buf,
            think_pos,
            arb_buf,
            arb_pos,
            access_buf,
            access_pos,
        )
        counter_args = (
            kernel.completions,
            kernel.request_transfers,
            kernel.total_latency,
            kernel._busy_accum,
        )
        proc_args = (
            kernel._requesting,
            kernel._target,
            kernel._issue,
            kernel._wake,
        )
        if kernel._buffered:
            capacity = kernel._capacity
            depth = kernel._depth
            resolve = getattr(kernel, "_nb_resolve", None)
            if resolve is None:
                resolve = np.zeros((m, fleet), dtype=bool)
                kernel._nb_resolve = resolve
            dummy_ring = np.zeros((1, 1, 1), dtype=np.int32)
            dummy_mf = np.zeros((1, 1), dtype=np.int32)
            prefix = (
                kernel._n_rows,
                kernel._m_rows,
                fleet,
                kernel._r_rows,
                kernel._pc_rows,
                kernel._depth_rows,
                kernel._capacity_rows,
                kernel._proc_first,
                random_tie,
                track_ready,
                collect,
                collect_serv,
                record,
                kernel._geom_rows,
                *proc_args,
                kernel._svc_finish,
                kernel._svc_proc,
                kernel._svc_active,
                kernel._stalled,
                kernel._stalled_proc_flat.reshape(m, fleet),
                resolve,
                kernel._inq_ring.reshape(depth, m, fleet),
                kernel._inq_head.reshape(m, fleet),
                kernel._inq_len,
                kernel._outq_ring.reshape(capacity, m, fleet),
                kernel._outq_head.reshape(m, fleet),
                kernel._outq_len,
                kernel._outq_ready_ring.reshape(capacity, m, fleet)
                if track_ready
                else dummy_ring,
                kernel._head_ready if track_ready else dummy_mf,
                kernel._svc_wait_flat.reshape(m, fleet)
                if collect
                else dummy_mf,
                kernel._stalled_wait_flat.reshape(m, fleet)
                if collect
                else dummy_mf,
                kernel._outq_wait_ring.reshape(capacity, m, fleet)
                if collect
                else dummy_ring,
                kernel._svc_dur_flat.reshape(m, fleet)
                if collect_serv
                else dummy_mf,
                kernel._stalled_dur_flat.reshape(m, fleet)
                if collect_serv
                else dummy_mf,
                kernel._outq_dur_ring.reshape(capacity, m, fleet)
                if collect_serv
                else dummy_ring,
                *counter_args,
                *workload_args,
            )
        else:
            dummy_mf = np.zeros((1, 1), dtype=np.int32)
            prefix = (
                kernel._n_rows,
                kernel._m_rows,
                fleet,
                kernel._r_rows,
                kernel._pc_rows,
                kernel._proc_first,
                random_tie,
                track_ready,
                collect,
                collect_serv,
                record,
                kernel._geom_rows,
                *proc_args,
                kernel._svc_finish,
                kernel._svc_proc,
                kernel._module_free,
                kernel._out_full,
                kernel._out_proc,
                kernel._out_ready,
                kernel._out_wait_flat.reshape(m, fleet)
                if collect
                else dummy_mf,
                kernel._out_dur_flat.reshape(m, fleet)
                if collect_serv
                else dummy_mf,
                *counter_args,
                *workload_args,
            )
        return streams, prefix

    def advance(self, kernel, count: int) -> None:
        """Run ``count`` cycles in driver-precomputed segments."""
        np = kernel._np
        unbuffered_fn, buffered_fn = self._loops()
        loop = buffered_fn if kernel._buffered else unbuffered_fn
        fleet = kernel._fleet
        record = kernel._sketch_total is not None
        streams, prefix = self._segment_state(kernel)

        row_nev = getattr(kernel, "_nb_row_nev", None)
        if row_nev is None or len(row_nev) != fleet:
            row_nev = np.zeros(fleet, dtype=np.int64)
            kernel._nb_row_nev = row_nev
        if record:
            ev_stride = EVENT_STRIDE
            events = getattr(kernel, "_nb_events", None)
            if events is None or len(events[0]) != fleet * ev_stride:
                events = tuple(
                    np.empty(fleet * ev_stride, dtype=np.int64)
                    for _ in range(4)
                )
                kernel._nb_events = events
        else:
            ev_stride = 1
            events = tuple(np.empty(1, dtype=np.int64) for _ in range(4))

        done = 0
        while done < count:
            # Refill rows without headroom for even one cycle, then run
            # the largest segment every stream can sustain, so rows
            # need no global coordination inside the loop.
            seg = count - done
            for lanes, margin in streams:
                need = lanes._pos > lanes._chunk - margin
                if need.any():
                    lanes._refill(need)
                per_row = (lanes._chunk - lanes._pos) // margin
                seg = min(seg, int(per_row.min()))
            if record:
                seg = min(seg, ev_stride)
            if seg <= 0:
                raise RuntimeError(
                    f"{self.name} batch loop made no progress; this is a bug"
                )
            loop(seg, kernel.cycle, *prefix, *events, ev_stride, row_nev)
            kernel.cycle += seg
            done += seg
            if record:
                self._replay_events(kernel, events, ev_stride, row_nev)

    @staticmethod
    def _replay_events(kernel, events, ev_stride, row_nev):
        """Feed the per-row event slices into the host-side sketches.

        Gathers slices in ascending-row order and stable-sorts by
        cycle, which reproduces the numpy program's exact add sequence:
        cycles increasing, rows ascending within each cycle (each row
        records at most one event per cycle, so rows stay distinct per
        add call), totals before waits.
        """
        np = kernel._np
        if int(row_nev.sum()) == 0:
            return
        ev_cycle, ev_wait, ev_total, ev_serv = events
        pieces = [
            (f, int(row_nev[f]))
            for f in range(kernel._fleet)
            if row_nev[f] > 0
        ]
        rows = np.repeat(
            np.array([f for f, _ in pieces], dtype=np.int64),
            np.array([count for _, count in pieces], dtype=np.int64),
        )

        def gather(buffer):
            return np.concatenate(
                [buffer[f * ev_stride : f * ev_stride + c] for f, c in pieces]
            )

        cycles = gather(ev_cycle)
        order = np.argsort(cycles, kind="stable")
        cycles = cycles[order]
        rows = rows[order]
        waits = gather(ev_wait)[order]
        totals = gather(ev_total)[order]
        sketch_service = kernel._sketch_service
        if sketch_service is not None:
            servs = gather(ev_serv)[order]
        boundaries = np.flatnonzero(np.diff(cycles)) + 1
        starts = np.concatenate((np.zeros(1, dtype=np.int64), boundaries))
        ends = np.concatenate(
            (boundaries, np.array([len(cycles)], dtype=np.int64))
        )
        sketch_total = kernel._sketch_total
        sketch_wait = kernel._sketch_wait
        for start, end in zip(starts, ends):
            sketch_total.add(rows[start:end], totals[start:end])
            sketch_wait.add(rows[start:end], waits[start:end])
            if sketch_service is not None:
                sketch_service.add(rows[start:end], servs[start:end])


class NumbaParallelBackend(NumbaBackend):
    """Threaded JIT substrate: the same loops compiled ``parallel=True``.

    ``NUMBA_NUM_THREADS`` bounds the thread pool as usual.
    """

    name = "numba-parallel"
    parallel = True
