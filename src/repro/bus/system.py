"""The multiplexed single-bus multiprocessor simulator.

:class:`MultiplexedBusSystem` wires processors, memory modules and the
bus arbiter into the synchronous machine of the paper's Figure 1 (plus
the Figure 4 buffers when configured) and advances it one bus cycle at a
time.  The machine is fully synchronous - every component steps on the
common bus clock (hypothesis (d)) - so the simulator is a deterministic
cycle loop rather than an event-heap program; the heap-based kernel in
:mod:`repro.des` is used by the asynchronous exponential-service
simulator of :mod:`repro.queueing`.

One simulated bus cycle ``T`` proceeds as:

1. processor-cycle boundaries: thinking processors whose boundary
   arrived issue new requests (eligible this cycle);
2. arbitration: deliverable requests (target module can accept) and
   ready responses compete under the configured priority (hypotheses
   (g), (h));
3. memory access stages advance through cycle ``T``;
4. the granted transfer completes at the end of ``T``: a request enters
   its module (access starts at ``T+1``) or a response returns to its
   processor (which may re-issue from ``T+1``).

This ordering reproduces the paper's timing: a request transferred in
cycle ``T`` is answered, at the earliest, by a response transfer in
cycle ``T + r + 1``, giving the minimum processor cycle ``r + 2``.
"""

from __future__ import annotations

from typing import Sequence

from repro.bus.arbiter import (
    BusArbiter,
    Grant,
    GrantKind,
    RequestCandidate,
    ResponseCandidate,
)
from repro.bus.measurement import (
    _DEFAULT_BATCHES,
    _DEFAULT_WARMUP_FRACTION,
    _resolve_request_probabilities,
)
from repro.bus.memory import MemoryModule, PendingRequest
from repro.bus.processor import Processor, ProcessorState
from repro.bus.trace import NullTrace, TraceEvent, TraceEventKind, TraceSink
from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError, SimulationError
from repro.core.results import SimulationResult
from repro.des.rng import StreamFactory
from repro.workloads.generators import TargetSampler, UniformTargets


class MultiplexedBusSystem:
    """A runnable instance of the paper's machine.

    Parameters
    ----------
    config:
        The system description (Section 2 / Section 6 hypotheses).
    seed:
        Master seed for the deterministic random streams.
    targets:
        Request-target workload; defaults to the paper's uniform model
        (hypothesis (e)).
    trace:
        Optional cycle-level trace sink (see :mod:`repro.bus.trace`).
    geometric_access_times:
        When true, each memory access lasts a geometric number of cycles
        with mean ``r`` (support >= 1) instead of the constant ``r`` of
        hypothesis (c).  This is the discrete-time analogue of the
        exponential service characterisation discussed in Section 6 and
        exists to regenerate the paper's ">25% discrepancy" comparison;
        all headline experiments use constant times.
    request_probabilities:
        Optional per-processor request probabilities (heterogeneous
        ``p``), one value per processor, overriding the single
        ``config.request_probability`` of hypothesis (f).  ``None``
        keeps the paper's homogeneous behaviour bit-for-bit.
    collect_latency:
        When true, every completed request's wait/service/total latency
        feeds a :class:`repro.metrics.LatencyTracker` (O(1) memory,
        streaming percentiles); :meth:`run` then attaches the resulting
        :class:`~repro.metrics.LatencyReport` to the
        :class:`~repro.core.results.SimulationResult`.  Collection is
        pure bookkeeping - it draws no random numbers - so enabling it
        never changes any simulated counter.
    """

    def __init__(
        self,
        config: SystemConfig,
        seed: int = 0,
        targets: TargetSampler | None = None,
        trace: TraceSink | None = None,
        geometric_access_times: bool = False,
        request_probabilities: Sequence[float] | None = None,
        collect_latency: bool = False,
    ) -> None:
        self.config = config
        self.seed = seed
        self._trace = trace if trace is not None else NullTrace()
        self.latency = None
        if collect_latency:
            from repro.metrics import LatencyTracker

            self.latency = LatencyTracker()
        streams = StreamFactory(seed)
        # Kept for the kernel-equivalence tests, which compare the
        # final state of every consumed stream across implementations.
        self._streams = streams
        if targets is None:
            targets = UniformTargets(config.memories, streams.get("targets"))
        per_processor_p = _resolve_request_probabilities(
            config, request_probabilities
        )
        think_stream = streams.get("think")
        self.processors = [
            Processor(
                index=i,
                request_probability=per_processor_p[i],
                processor_cycle=config.processor_cycle,
                targets=targets,
                think_stream=think_stream,
            )
            for i in range(config.processors)
        ]
        depth = config.buffer_depth if config.buffered else 0
        access_sampler = None
        if geometric_access_times:
            access_stream = streams.get("access-times")
            mean = config.memory_cycle_ratio

            def access_sampler() -> int:
                return 1 + access_stream.geometric_failures(1.0 / mean)

        self.modules = [
            MemoryModule(
                index=k,
                access_cycles=config.memory_cycle_ratio,
                input_depth=depth,
                output_depth=depth,
                access_sampler=access_sampler,
            )
            for k in range(config.memories)
        ]
        self.arbiter = BusArbiter(
            config.priority, config.tie_break, streams.get("arbitration")
        )
        self.cycle = 0
        self.completions = 0
        self.request_transfers = 0
        self.response_transfers = 0
        self.total_latency = 0
        for processor in self.processors:
            processor.start(cycle=0)

    # ------------------------------------------------------------------
    def step(self) -> Grant | None:
        """Advance the machine by one bus cycle; returns the grant."""
        cycle = self.cycle
        for processor in self.processors:
            processor.on_cycle_start(cycle)
        grant = self.arbiter.arbitrate(
            self._request_candidates(), self._response_candidates()
        )
        for module in self.modules:
            module.tick(cycle)
        if grant is None:
            self._trace.record(TraceEvent(cycle, TraceEventKind.BUS_IDLE))
        elif grant.kind is GrantKind.REQUEST:
            self._complete_request_transfer(grant, cycle)
        else:
            self._complete_response_transfer(grant, cycle)
        self.cycle = cycle + 1
        return grant

    def run(
        self,
        cycles: int,
        warmup: int | None = None,
        batches: int = _DEFAULT_BATCHES,
    ) -> SimulationResult:
        """Simulate ``cycles`` measured bus cycles and report.

        Parameters
        ----------
        cycles:
            Length of the measurement window in bus cycles.
        warmup:
            Cycles simulated (and discarded) before measuring; defaults
            to 25% of the measurement window.
        batches:
            Number of equal batches for the batch-means EBW confidence
            interval (0 or 1 disables batching).
        """
        if cycles < 1:
            raise ConfigurationError(f"cycles must be >= 1, got {cycles}")
        if warmup is None:
            warmup = int(cycles * _DEFAULT_WARMUP_FRACTION)
        if warmup < 0:
            raise ConfigurationError(f"warmup must be >= 0, got {warmup}")
        if batches < 0:
            raise ConfigurationError(f"batches must be >= 0, got {batches}")
        collecting = self.latency is not None
        if collecting:
            # Warm-up completions are discarded anyway; don't pay the
            # streaming-estimator cost for them.
            self.latency = None
        for _ in range(warmup):
            self.step()
        if collecting:
            # Fresh collectors: summaries cover the measurement window
            # only, mirroring every other counter's warm-up exclusion.
            from repro.metrics import LatencyTracker

            self.latency = LatencyTracker()
        start_cycle = self.cycle
        start_completions = self.completions
        start_requests = self.request_transfers
        start_responses = self.response_transfers
        start_latency = self.total_latency
        start_memory_busy = sum(module.busy_cycles for module in self.modules)

        batch_ebws: list[float] = []
        if batches > 1:
            batch_length = cycles // batches
            remainder = cycles - batch_length * batches
            previous = self.completions
            for index in range(batches):
                length = batch_length + (1 if index < remainder else 0)
                for _ in range(length):
                    self.step()
                if length > 0:
                    batch_ebws.append(
                        (self.completions - previous)
                        * self.config.processor_cycle
                        / length
                    )
                previous = self.completions
        else:
            for _ in range(cycles):
                self.step()

        memory_busy = (
            sum(module.busy_cycles for module in self.modules) - start_memory_busy
        )
        return SimulationResult(
            config=self.config,
            cycles=self.cycle - start_cycle,
            completions=self.completions - start_completions,
            request_transfers=self.request_transfers - start_requests,
            response_transfers=self.response_transfers - start_responses,
            memory_busy_cycles=memory_busy,
            total_latency=self.total_latency - start_latency,
            seed=self.seed,
            warmup_cycles=warmup,
            batch_ebws=tuple(batch_ebws),
            latency=self.latency.report() if self.latency is not None else None,
        )

    # ------------------------------------------------------------------
    def _request_candidates(self) -> list[RequestCandidate]:
        candidates = []
        for processor in self.processors:
            if not processor.has_pending_request:
                continue
            target = processor.target
            if target is None or processor.issue_cycle is None:
                raise SimulationError(
                    f"processor {processor.index} is requesting without a target"
                )
            if self.modules[target].can_accept():
                candidates.append(
                    RequestCandidate(
                        processor=processor.index,
                        module=target,
                        issue_cycle=processor.issue_cycle,
                    )
                )
        return candidates

    def _response_candidates(self) -> list[ResponseCandidate]:
        return [
            ResponseCandidate(
                module=module.index,
                ready_cycle=module.oldest_response_ready_cycle,
            )
            for module in self.modules
            if module.response_ready
        ]

    def _complete_request_transfer(self, grant: Grant, cycle: int) -> None:
        if grant.processor is None:
            raise SimulationError("request grant without a processor")
        processor = self.processors[grant.processor]
        issue_cycle = processor.issue_cycle
        if issue_cycle is None:
            raise SimulationError(
                f"processor {processor.index} lost its issue cycle mid-transfer"
            )
        processor.request_delivered()
        self.modules[grant.module].deliver_request(
            PendingRequest(processor=grant.processor, issue_cycle=issue_cycle)
        )
        self.request_transfers += 1
        self._trace.record(
            TraceEvent(
                cycle,
                TraceEventKind.REQUEST_TRANSFER,
                processor=grant.processor,
                module=grant.module,
            )
        )

    def _complete_response_transfer(self, grant: Grant, cycle: int) -> None:
        module = self.modules[grant.module]
        record = module.take_response_record()
        request = record.request
        self.processors[request.processor].response_received(cycle)
        self.completions += 1
        self.response_transfers += 1
        total = cycle - request.issue_cycle + 1
        self.total_latency += total
        if self.latency is not None:
            # wait: issue to access start, minus the request transfer
            # cycle itself; service: cycles the access stage worked on
            # the request; total: the paper's issue-to-response latency.
            self.latency.record(
                record.service_start - request.issue_cycle - 1,
                record.service_end - record.service_start + 1,
                total,
            )
        self._trace.record(
            TraceEvent(
                cycle,
                TraceEventKind.RESPONSE_TRANSFER,
                processor=request.processor,
                module=grant.module,
            )
        )

    # ------------------------------------------------------------------
    def audit(self) -> None:
        """Verify conservation invariants; raises on inconsistency.

        Intended for tests: every awaiting processor must have exactly
        one request inside exactly one module, and requesting/thinking
        processors must have none.
        """
        inside: dict[int, int] = {}
        for module in self.modules:
            for request in _module_requests(module):
                if request.processor in inside:
                    raise SimulationError(
                        f"processor {request.processor} present in two modules"
                    )
                inside[request.processor] = module.index
        for processor in self.processors:
            awaiting = processor.state is ProcessorState.AWAITING
            if awaiting and processor.index not in inside:
                raise SimulationError(
                    f"processor {processor.index} awaits a vanished request"
                )
            if not awaiting and processor.index in inside:
                raise SimulationError(
                    f"processor {processor.index} has a stray in-flight request"
                )


def _module_requests(module: MemoryModule) -> list[PendingRequest]:
    """All requests currently inside ``module`` (test helper)."""
    requests = list(module._input)
    if module._in_service is not None:
        requests.append(module._in_service)
    if module._stalled is not None:
        requests.append(module._stalled)
    requests.extend(entry.request for entry in module._output)
    return requests
