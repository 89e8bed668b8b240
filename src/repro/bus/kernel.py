"""The fast simulation kernel: a flattened, bit-identical cycle loop.

:class:`MultiplexedBusSystem` is written for clarity: processors,
modules and the arbiter are objects, every cycle rebuilds candidate
lists of NamedTuples, and every module is ticked even when idle.  That
is the right shape for the state-machine property tests - and the wrong
shape for million-cycle sweeps, where the per-cycle object churn and
method dispatch dominate wall-clock time.

:class:`FastBusKernel` runs the *same machine* on preallocated arrays:

* processor state lives in flat lists (``target``, ``issue``, a sorted
  ``requesting`` index list) instead of objects;
* thinking processors sit in a wake calendar (``{cycle: [processor]}``)
  instead of being polled every cycle;
* memory service is event-scheduled: a service started at the end of
  cycle ``T`` finishes during cycle ``T + r``, so idle modules are never
  touched and busy modules are touched once, at completion;
* buffered-mode stalls resolve through a one-shot calendar entry armed
  by the response transfer that frees the output slot - the only event
  that can unblock a stalled module;
* random draws go straight to the underlying :class:`random.Random`
  objects of the same named streams the reference machine uses, and
  uniform picks (targets, random tie-breaks) call the stream's
  ``getrandbits`` in ``randrange``'s own loop (:func:`_randbelow`).

**Bit-identical contract.**  For every supported configuration the
kernel performs *exactly the same random draws in exactly the same
order* and produces *exactly the same counters* as
``MultiplexedBusSystem.run`` - completions, transfer counts, memory busy
cycles, total latency, batch EBWs and streaming latency summaries are
equal as Python values, and the final RNG states match.  The contract is
enforced by the hypothesis fleet in
``tests/properties/test_kernel_equivalence.py``; because of it, which
of the two loops ran never shows in a result or a cache key.

**Coverage.**  The kernel supports the library's own target samplers
(uniform, hot-spot, trace - hence every declarative workload, including
heterogeneous ``p``), both priorities, both tie-breaks, buffered and
unbuffered modules at any depth, and geometric access times (the
Section 6 product-form comparison lever).  It does not support custom
:class:`~repro.workloads.generators.TargetSampler` objects or
cycle-level trace sinks: :func:`repro.bus.simulate` runs custom samplers
on the reference machine
(:func:`~repro.workloads.generators.is_library_sampler` decides), and
the tests keep that machine as the oracle.

Geometric access times draw one service duration per access from the
same ``"access-times"`` stream the reference machine uses.  Because the
reference machine draws at service start while sweeping modules in
index order, the kernel processes each cycle's stall-resolution and
completion events merged in module-index order whenever the durations
are random - with constant durations no event draws anything and the
cheaper split processing is kept.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import Sequence

from repro.bus.measurement import (
    _DEFAULT_BATCHES,
    _DEFAULT_WARMUP_FRACTION,
    _resolve_request_probabilities,
)
from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError
from repro.core.policy import Priority, TieBreak
from repro.core.results import SimulationResult
from repro.des.rng import RandomStream, derive_seed
from repro.workloads.generators import (
    HotSpotTargets,
    TargetSampler,
    TraceTargets,
    require_library_sampler,
)

_UNIFORM, _HOT_SPOT, _TRACE = 0, 1, 2


def _stream_random(stream: RandomStream):
    """The underlying :class:`random.Random` of a named stream."""
    return stream._random


def _randbelow(getrandbits, n: int) -> int:
    """``randrange(n)`` of the stream ``getrandbits`` belongs to, ``n >= 1``.

    The same draws and the same final stream state: CPython's
    ``Random.randrange(n)`` is ``Random._randbelow_with_getrandbits``,
    unchanged from 3.8 to 3.13, which draws ``n.bit_length()`` bits and
    redraws while the value is ``>= n``.  Calling ``getrandbits``
    directly skips two Python-level calls per draw;
    :meth:`FastBusKernel.advance` inlines the same loop.
    """
    bits = n.bit_length()
    value = getrandbits(bits)
    while value >= n:
        value = getrandbits(bits)
    return value


class FastBusKernel:
    """Flattened, preallocated-array implementation of the bus machine.

    Construction mirrors :class:`~repro.bus.system.MultiplexedBusSystem`
    (same parameters, same initial draws); :meth:`run` mirrors its
    measurement protocol.  See the module docstring for the equivalence
    contract and the supported configuration space.
    """

    def __init__(
        self,
        config: SystemConfig,
        seed: int = 0,
        targets: TargetSampler | None = None,
        request_probabilities: Sequence[float] | None = None,
        collect_latency: bool = False,
        geometric_access_times: bool = False,
    ) -> None:
        self.config = config
        self.seed = seed
        self._collect_latency = collect_latency
        self.latency = None
        self._geometric = geometric_access_times

        n = config.processors
        m = config.memories
        self._p = _resolve_request_probabilities(config, request_probabilities)

        # --- random streams (same derivation as the reference machine).
        # The uniform default draws from the "targets" stream the system
        # would create; workload-built samplers bring their own stream
        # (e.g. "hot-spot"), which the kernel consumes *in place* so the
        # object's post-run state matches the reference run's.
        import random as _random_module

        require_library_sampler(targets, "fast")
        self._trace_positions: list[int] | None = None
        self._traces: list[list[int]] | None = None
        self._hot_fraction = 0.0
        self._hot_module = 0
        if targets is None:
            self._mode = _UNIFORM
            self._targets_rnd = _random_module.Random(
                derive_seed(seed, "targets")
            )
        elif type(targets) is TraceTargets:
            self._mode = _TRACE
            self._targets_rnd = None
            self._traces = targets._traces
            self._trace_positions = targets._positions
        else:
            self._mode = _UNIFORM
            self._targets_rnd = _stream_random(targets._stream)
            m = targets._modules
            if type(targets) is HotSpotTargets:
                self._mode = _HOT_SPOT
                self._hot_fraction = targets._hot_fraction
                self._hot_module = targets._hot_module
        self._target_modules = m
        self._think_rnd = _random_module.Random(derive_seed(seed, "think"))
        self._arb_rnd = _random_module.Random(derive_seed(seed, "arbitration"))
        # Geometric access times: the reference machine's StreamFactory
        # creates the "access-times" stream at construction; seeding is
        # per-name (derive_seed), so creation order is irrelevant.
        self._access_rnd = (
            _random_module.Random(derive_seed(seed, "access-times"))
            if geometric_access_times
            else None
        )
        self._access_p = 1.0 / config.memory_cycle_ratio

        # --- processor state.
        self._target = [0] * n
        self._issue = [0] * n
        self._requesting: list[int] = list(range(n))
        self._wake: dict[int, list[int]] = {}

        # --- module state.
        depth = config.buffer_depth if config.buffered else 0
        self._depth = depth
        self._capacity = depth if depth > 0 else 1
        self._svc_active = [False] * config.memories
        self._svc_finish = [0] * config.memories
        self._svc_start = [0] * config.memories
        self._svc_proc = [0] * config.memories
        self._svc_issue = [0] * config.memories
        self._stalled: list[tuple[int, int, int, int] | None] = (
            [None] * config.memories
        )
        self._inq: list[deque] = [deque() for _ in range(config.memories)]
        self._outq: list[deque] = [deque() for _ in range(config.memories)]
        self._ready_modules: list[int] = []
        self._busy_accum = [0] * config.memories
        self._finish: dict[int, list[int]] = {}
        self._resolve: dict[int, list[int]] = {}

        # --- counters.
        self.cycle = 0
        self.completions = 0
        self.request_transfers = 0
        self.response_transfers = 0
        self.total_latency = 0

        # Initial condition: every processor issues at cycle 0, drawing
        # its target in processor-index order (matches Processor.start).
        for i in range(n):
            self._target[i] = self._draw_target(i)

    # ------------------------------------------------------------------
    def _draw_target(self, processor: int) -> int:
        """One target draw, identical to the sampler the mode mirrors."""
        mode = self._mode
        if mode == _UNIFORM:
            return _randbelow(
                self._targets_rnd.getrandbits, self._target_modules
            )
        if mode == _HOT_SPOT:
            hot_fraction = self._hot_fraction
            rnd = self._targets_rnd
            # RandomStream.bernoulli: probability 1.0 short-circuits
            # without a draw; anything below draws exactly once.
            if hot_fraction == 1.0 or rnd.random() < hot_fraction:
                return self._hot_module
            return _randbelow(rnd.getrandbits, self._target_modules)
        assert self._traces is not None and self._trace_positions is not None
        trace = self._traces[processor]
        position = self._trace_positions[processor]
        self._trace_positions[processor] = (position + 1) % len(trace)
        return trace[position]

    def rng_states(self) -> dict[str, object]:
        """Final state of each consumed stream (equivalence tests)."""
        states: dict[str, object] = {
            "think": self._think_rnd.getstate(),
            "arbitration": self._arb_rnd.getstate(),
        }
        if self._targets_rnd is not None:
            states["targets"] = self._targets_rnd.getstate()
        if self._access_rnd is not None:
            states["access-times"] = self._access_rnd.getstate()
        if self._trace_positions is not None:
            states["trace_positions"] = tuple(self._trace_positions)
        return states

    # ------------------------------------------------------------------
    def _memory_busy(self) -> int:
        """Total module busy cycles through the last simulated cycle.

        Matches ``sum(module.busy_cycles)`` of the reference machine:
        completed services contribute their full length (accumulated at
        completion), in-flight services contribute the cycles already
        ticked.
        """
        through = self.cycle - 1
        total = sum(self._busy_accum)
        svc_active = self._svc_active
        svc_start = self._svc_start
        for k in range(self.config.memories):
            if svc_active[k] and svc_start[k] <= through:
                # An active service always finishes after `through`
                # (finish events for earlier cycles were processed).
                total += through - svc_start[k] + 1
        return total

    def advance(self, count: int) -> None:
        """Run ``count`` bus cycles of the flattened loop.

        The kernel counterpart of calling
        :meth:`~repro.bus.system.MultiplexedBusSystem.step` ``count``
        times (without the per-step grant return); used by :meth:`run`
        and the kernel microbenchmarks."""
        if count <= 0:
            return
        # Local aliases: the loop body runs hundreds of thousands of
        # times, and global/attribute lookups dominate otherwise.
        config = self.config
        r = config.memory_cycle_ratio
        pc = config.processor_cycle
        depth = self._depth
        buffered = depth > 0
        capacity = self._capacity
        proc_first = config.priority is Priority.PROCESSORS
        random_tie = config.tie_break is TieBreak.RANDOM
        p_values = self._p
        uniform_p = all(p == p_values[0] for p in p_values)
        p_common = p_values[0] if uniform_p else -1.0
        mode = self._mode
        modules = self._target_modules
        targets_rnd = self._targets_rnd
        targets_random = targets_rnd.random if targets_rnd is not None else None
        # Uniform picks inline _randbelow: the loops below are
        # randrange(modules) and randrange(len(candidates)).
        targets_getrandbits = (
            targets_rnd.getrandbits if targets_rnd is not None else None
        )
        target_bits = modules.bit_length()
        hot_fraction = self._hot_fraction
        hot_module = self._hot_module
        traces = self._traces
        trace_positions = self._trace_positions
        think_random = self._think_rnd.random
        arb_getrandbits = self._arb_rnd.getrandbits
        geometric = self._geometric
        access_p = self._access_p
        if geometric:
            access_random = self._access_rnd.random

            def draw_duration() -> int:
                """One access duration: ``1 + geometric_failures(1/r)``.

                Mirrors the reference sampler exactly, including the
                ``p == 1`` (r == 1) short-circuit that draws nothing.
                """
                if access_p == 1.0:
                    return 1
                duration = 1
                while not access_random() < access_p:
                    duration += 1
                return duration
        else:
            draw_duration = None
        target = self._target
        issue = self._issue
        requesting = self._requesting
        wake = self._wake
        svc_active = self._svc_active
        svc_finish = self._svc_finish
        svc_start = self._svc_start
        svc_proc = self._svc_proc
        svc_issue = self._svc_issue
        stalled = self._stalled
        inq = self._inq
        outq = self._outq
        ready_modules = self._ready_modules
        busy_accum = self._busy_accum
        finish = self._finish
        resolve = self._resolve
        tracker = self.latency
        record = tracker.record if tracker is not None else None

        cycle = self.cycle
        completions = self.completions
        request_transfers = self.request_transfers
        response_transfers = self.response_transfers
        total_latency = self.total_latency

        for _ in range(count):
            # 1. processor-cycle boundaries: waking processors issue,
            #    in processor-index order (Processor.on_cycle_start).
            bucket = wake.pop(cycle, None)
            if bucket is not None:
                if len(bucket) > 1:
                    bucket.sort()
                for i in bucket:
                    if mode == _TRACE:
                        trace = traces[i]
                        position = trace_positions[i]
                        trace_positions[i] = (position + 1) % len(trace)
                        target[i] = trace[position]
                    elif mode == _HOT_SPOT and (
                        hot_fraction == 1.0 or targets_random() < hot_fraction
                    ):
                        target[i] = hot_module
                    else:
                        drawn = targets_getrandbits(target_bits)
                        while drawn >= modules:
                            drawn = targets_getrandbits(target_bits)
                        target[i] = drawn
                    issue[i] = cycle
                    insort(requesting, i)

            # 2. arbitration on the pre-tick state (BusArbiter.arbitrate).
            grant_request = -1
            grant_response = -1
            want_request = True
            if not proc_first and ready_modules:
                want_request = False
            if want_request and requesting:
                eligible: list[int] = []
                append = eligible.append
                if buffered:
                    for i in requesting:
                        k = target[i]
                        if (
                            not svc_active[k] and stalled[k] is None
                        ) or len(inq[k]) < depth:
                            append(i)
                else:
                    for i in requesting:
                        k = target[i]
                        if not svc_active[k] and not outq[k]:
                            append(i)
                if eligible:
                    if len(eligible) == 1:
                        grant_request = eligible[0]
                    elif random_tie:
                        choices = len(eligible)
                        bits = choices.bit_length()
                        pick = arb_getrandbits(bits)
                        while pick >= choices:
                            pick = arb_getrandbits(bits)
                        grant_request = eligible[pick]
                    else:
                        best = eligible[0]
                        best_issue = issue[best]
                        for i in eligible[1:]:
                            if issue[i] < best_issue:
                                best, best_issue = i, issue[i]
                        grant_request = best
            if grant_request < 0 and ready_modules:
                if len(ready_modules) == 1:
                    grant_response = ready_modules[0]
                elif random_tie:
                    choices = len(ready_modules)
                    bits = choices.bit_length()
                    pick = arb_getrandbits(bits)
                    while pick >= choices:
                        pick = arb_getrandbits(bits)
                    grant_response = ready_modules[pick]
                else:
                    best = ready_modules[0]
                    best_ready = outq[best][0][2]
                    for k in ready_modules[1:]:
                        ready_cycle = outq[k][0][2]
                        if ready_cycle < best_ready:
                            best, best_ready = k, ready_cycle
                    grant_response = best

            # 3. module events for this cycle (MemoryModule.tick).
            if not geometric:
                events = resolve.pop(cycle, None)
                if events is not None:
                    for k in events:
                        held = stalled[k]
                        stalled[k] = None
                        if not outq[k]:
                            insort(ready_modules, k)
                        outq[k].append(
                            (held[0], held[1], cycle + 1, held[2], held[3])
                        )
                        if inq[k]:
                            proc_i, issue_i = inq[k].popleft()
                            svc_active[k] = True
                            svc_proc[k] = proc_i
                            svc_issue[k] = issue_i
                            svc_start[k] = cycle + 1
                            finish_cycle = cycle + r
                            svc_finish[k] = finish_cycle
                            finish.setdefault(finish_cycle, []).append(k)
                events = finish.pop(cycle, None)
                if events is not None:
                    for k in events:
                        svc_active[k] = False
                        busy_accum[k] += r
                        if len(outq[k]) < capacity:
                            if not outq[k]:
                                insort(ready_modules, k)
                            outq[k].append(
                                (
                                    svc_proc[k],
                                    svc_issue[k],
                                    cycle + 1,
                                    svc_start[k],
                                    cycle,
                                )
                            )
                            if buffered and inq[k]:
                                proc_i, issue_i = inq[k].popleft()
                                svc_active[k] = True
                                svc_proc[k] = proc_i
                                svc_issue[k] = issue_i
                                svc_start[k] = cycle + 1
                                finish_cycle = cycle + r
                                svc_finish[k] = finish_cycle
                                finish.setdefault(finish_cycle, []).append(k)
                        else:
                            stalled[k] = (
                                svc_proc[k],
                                svc_issue[k],
                                svc_start[k],
                                cycle,
                            )
            else:
                # Geometric durations draw at every service start, so
                # events must replay in the reference machine's tick
                # order: modules ascending, whatever the event kind (a
                # module never resolves and finishes in one cycle).
                resolve_bucket = resolve.pop(cycle, None)
                finish_bucket = finish.pop(cycle, None)
                merged: list[tuple[int, bool]] = []
                if resolve_bucket is not None:
                    merged.extend((k, True) for k in resolve_bucket)
                if finish_bucket is not None:
                    merged.extend((k, False) for k in finish_bucket)
                if len(merged) > 1:
                    merged.sort()
                for k, is_resolve in merged:
                    if is_resolve:
                        held = stalled[k]
                        stalled[k] = None
                        if not outq[k]:
                            insort(ready_modules, k)
                        outq[k].append(
                            (held[0], held[1], cycle + 1, held[2], held[3])
                        )
                        start_next = bool(inq[k])
                    else:
                        svc_active[k] = False
                        busy_accum[k] += cycle - svc_start[k] + 1
                        start_next = False
                        if len(outq[k]) < capacity:
                            if not outq[k]:
                                insort(ready_modules, k)
                            outq[k].append(
                                (
                                    svc_proc[k],
                                    svc_issue[k],
                                    cycle + 1,
                                    svc_start[k],
                                    cycle,
                                )
                            )
                            start_next = buffered and bool(inq[k])
                        else:
                            stalled[k] = (
                                svc_proc[k],
                                svc_issue[k],
                                svc_start[k],
                                cycle,
                            )
                    if start_next:
                        proc_i, issue_i = inq[k].popleft()
                        svc_active[k] = True
                        svc_proc[k] = proc_i
                        svc_issue[k] = issue_i
                        svc_start[k] = cycle + 1
                        finish_cycle = cycle + draw_duration()
                        svc_finish[k] = finish_cycle
                        finish.setdefault(finish_cycle, []).append(k)

            # 4. the granted transfer completes at the end of the cycle.
            if grant_request >= 0:
                i = grant_request
                k = target[i]
                requesting.remove(i)
                request_transfers += 1
                if not svc_active[k] and stalled[k] is None:
                    svc_active[k] = True
                    svc_proc[k] = i
                    svc_issue[k] = issue[i]
                    svc_start[k] = cycle + 1
                    if geometric:
                        finish_cycle = cycle + draw_duration()
                    else:
                        finish_cycle = cycle + r
                    svc_finish[k] = finish_cycle
                    finish.setdefault(finish_cycle, []).append(k)
                else:
                    inq[k].append((i, issue[i]))
            elif grant_response >= 0:
                k = grant_response
                proc_i, issue_i, _ready, s0, s1 = outq[k].popleft()
                if not outq[k]:
                    ready_modules.remove(k)
                completions += 1
                response_transfers += 1
                total = cycle - issue_i + 1
                total_latency += total
                if record is not None:
                    # wait: issue to access start, minus the request
                    # transfer cycle itself; service: access-stage span;
                    # total: the paper's issue-to-response latency.
                    record(s0 - issue_i - 1, s1 - s0 + 1, total)
                p = p_common if uniform_p else p_values[proc_i]
                if p < 1.0:
                    # RandomStream.geometric_failures: one uniform draw
                    # per boundary until the issue coin lands.
                    failures = 0
                    while not think_random() < p:
                        failures += 1
                    wake_cycle = cycle + 1 + failures * pc
                else:
                    wake_cycle = cycle + 1
                entry = wake.get(wake_cycle)
                if entry is None:
                    wake[wake_cycle] = [proc_i]
                else:
                    entry.append(proc_i)
                if stalled[k] is not None:
                    resolve.setdefault(cycle + 1, []).append(k)
            cycle += 1

        self.cycle = cycle
        self.completions = completions
        self.request_transfers = request_transfers
        self.response_transfers = response_transfers
        self.total_latency = total_latency

    # ------------------------------------------------------------------
    def run(
        self,
        cycles: int,
        warmup: int | None = None,
        batches: int = _DEFAULT_BATCHES,
    ) -> SimulationResult:
        """Simulate ``cycles`` measured bus cycles and report.

        Parameter semantics, defaults and the measurement protocol
        (warm-up exclusion, batch-means windows, fresh latency
        collectors) replicate
        :meth:`~repro.bus.system.MultiplexedBusSystem.run` exactly.
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
            # Fresh collectors: summaries cover the measurement window
            # only, mirroring the reference machine's warm-up exclusion.
            from repro.metrics import LatencyTracker

            self.latency = LatencyTracker()
        start_cycle = self.cycle
        start_completions = self.completions
        start_requests = self.request_transfers
        start_responses = self.response_transfers
        start_latency = self.total_latency
        start_memory_busy = self._memory_busy()

        batch_ebws: list[float] = []
        if batches > 1:
            batch_length = cycles // batches
            remainder = cycles - batch_length * batches
            previous = self.completions
            for index in range(batches):
                length = batch_length + (1 if index < remainder else 0)
                self.advance(length)
                if length > 0:
                    batch_ebws.append(
                        (self.completions - previous)
                        * self.config.processor_cycle
                        / length
                    )
                previous = self.completions
        else:
            self.advance(cycles)

        return SimulationResult(
            config=self.config,
            cycles=self.cycle - start_cycle,
            completions=self.completions - start_completions,
            request_transfers=self.request_transfers - start_requests,
            response_transfers=self.response_transfers - start_responses,
            memory_busy_cycles=self._memory_busy() - start_memory_busy,
            total_latency=self.total_latency - start_latency,
            seed=self.seed,
            warmup_cycles=warmup,
            batch_ebws=tuple(batch_ebws),
            latency=self.latency.report() if self.latency is not None else None,
        )


def run_fast(
    config: SystemConfig,
    cycles: int = 100_000,
    seed: int = 0,
    warmup: int | None = None,
    targets: TargetSampler | None = None,
    request_probabilities: Sequence[float] | None = None,
    collect_latency: bool = False,
    geometric_access_times: bool = False,
) -> SimulationResult:
    """Build a :class:`FastBusKernel` and run it once.

    Raises :class:`ConfigurationError` for configurations outside the
    kernel's coverage (custom target samplers), which
    :func:`repro.bus.simulate` runs on the reference machine instead.
    ``geometric_access_times`` mirrors the reference machine's lever of
    the same name bit-for-bit (same draws from the same
    ``"access-times"`` stream).
    """
    kernel = FastBusKernel(
        config,
        seed=seed,
        targets=targets,
        request_probabilities=request_probabilities,
        collect_latency=collect_latency,
        geometric_access_times=geometric_access_times,
    )
    return kernel.run(cycles, warmup=warmup)
