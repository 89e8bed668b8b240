"""Span recorder and layer wrappers for the benchmark's traced run.

Nothing under ``src/`` carries tracing code.  Instead, a traced process
(see ``traced_entry.py``) installs an import hook before it imports
``repro``; as each layer module finishes loading, the hook replaces the
layer's public functions and methods with timing wrappers.  Every
wrapper pushes a frame on one per-process stack, so a span's *self* time
is its duration minus the time spent in the wrapped calls it made.

Layer names (the metric names without their ``_s`` suffix) are listed
in :data:`LAYERS`.  Timestamps come from ``time.perf_counter_ns``, which
reads ``CLOCK_MONOTONIC`` on Linux, so spans written by the coordinator
and by its workers share one time base and merge into one timeline.

Spans stay in memory and are written once, as JSON, when the process
ends (:meth:`Recorder.dump`).
"""

from __future__ import annotations

import functools
import importlib
import importlib.abc
import importlib.machinery
import json
import os
import sys
import time

_now = time.perf_counter_ns

HOT_LAYER = "metrics.record"
"""The one layer called per simulated request.  Its calls are summed in
place instead of stored as spans; the timeline charges them to the
enclosing span, and :mod:`layers` moves that time back."""

LAYERS = (
    "startup.import",
    "cache.code_version",
    "compiler.compile",
    "backends.numpy_require",
    "cache.get_many",
    "cache.put",
    "execute.run_units",
    "execute.evaluate_unit",
    "execute.decode",
    "execute.render",
    "fast.run",
    HOT_LAYER,
    "metrics.report",
    "fleet.run_fleet",
    "batch.init",
    "batch.advance",
    "batch.run_other",
    "plan.probe",
    "plan.carve",
)
"""Every timed layer; their self times partition the covered wall time."""

SUBCOMMAND_MODULES = {
    "scenario": "repro.scenarios.cli",
    "sweep-work": "repro.service.cli",
}
"""The module each ``repro-experiments`` subcommand imports first."""


class Recorder:
    """Spans, counters and service events of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int]] = []
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.hot_in: dict[str, int] = {}
        """Hot-layer time spent inside each enclosing layer's spans."""
        self.counts: dict[str, float] = {}
        self.events: list[tuple[str, int, dict]] = []
        self._stack: list[list] = []  # [layer, start_ns, child_ns, hot_ns]
        self._hot_calls = 0
        self._hot_ns = 0

    def enter(self, layer: str) -> None:
        self._stack.append([layer, _now(), 0, 0])

    def leave(self) -> None:
        end = _now()
        layer, start, child, hot = self._stack.pop()
        duration = end - start
        self.self_ns[layer] = self.self_ns.get(layer, 0) + duration - child
        self.calls[layer] = self.calls.get(layer, 0) + 1
        if hot:
            self.hot_in[layer] = self.hot_in.get(layer, 0) + hot
        if self._stack:
            self._stack[-1][2] += duration
        self.spans.append((layer, start, end))

    def add_hot(self, duration: int) -> None:
        """Sum one hot-layer call and charge it to the enclosing span."""
        self._hot_calls += 1
        self._hot_ns += duration
        if self._stack:
            frame = self._stack[-1]
            frame[2] += duration
            frame[3] += duration

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def event(self, name: str, **attrs) -> None:
        self.events.append((name, _now(), attrs))

    def dump(self, path: str) -> None:
        if self._hot_calls:
            self.calls[HOT_LAYER] = self._hot_calls
            self.self_ns[HOT_LAYER] = self._hot_ns
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "pid": os.getpid(),
                    "spans": self.spans,
                    "self_ns": self.self_ns,
                    "calls": self.calls,
                    "hot_in": self.hot_in,
                    "counts": self.counts,
                    "events": self.events,
                },
                handle,
            )


def timed(recorder: Recorder, layer: str, fn, after=None):
    """Wrap ``fn`` in a ``layer`` span; ``after(result, args, kwargs)``
    then records the call's counters."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.leave()
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapper


def lane_stats(shapes) -> tuple[int, int]:
    """Valid and padded ``(n, m)`` lanes of one packed batch fleet.

    ``shapes`` lists each row's ``(processors, memories)``.  A packed
    fleet pads every row to the fleet's largest ``n`` and ``m``.
    """
    shapes = list(shapes)
    valid = sum(n + m for n, m in shapes)
    padded = len(shapes) * (
        max(n for n, _ in shapes) + max(m for _, m in shapes)
    )
    return valid, padded


# ----------------------------------------------------------------------
# Per-module patches, applied right after each module finishes loading.
# ----------------------------------------------------------------------
def _patch_compiler(module, rec: Recorder, trace_dir: str) -> None:
    module.compile_scenario = timed(
        rec,
        "compiler.compile",
        module.compile_scenario,
        lambda units, a, k: rec.count("compiler.units", len(units)),
    )


def _patch_execute(module, rec: Recorder, trace_dir: str) -> None:
    def task(result, args, kwargs):
        rec.count("execute.tasks")

    module.run_units = timed(rec, "execute.run_units", module.run_units)
    module.evaluate_unit = timed(
        rec, "execute.evaluate_unit", module.evaluate_unit, task
    )
    module.evaluate_fleet = timed(
        rec, "execute.evaluate_unit", module.evaluate_fleet, task
    )
    module.result_from_metrics = timed(
        rec, "execute.decode", module.result_from_metrics
    )
    module.unit_line = timed(rec, "execute.render", module.unit_line)


def _patch_plan(module, rec: Recorder, trace_dir: str) -> None:
    def carved(leases, args, kwargs):
        rec.count("plan.leases", len(leases))
        rec.count("plan.leased_units", sum(len(lease) for lease in leases))

    module.probe_cached = timed(rec, "plan.probe", module.probe_cached)
    module.carve_leases = timed(
        rec, "plan.carve", module.carve_leases, carved
    )


def _patch_cache(module, rec: Recorder, trace_dir: str) -> None:
    module.code_version_tag = timed(
        rec, "cache.code_version", module.code_version_tag
    )
    cls = module.ResultCache
    get_many = timed(rec, "cache.get_many", cls.get_many)

    @functools.wraps(cls.get_many)
    def probed(self, keys):
        misses, transient = self.stats.misses, self.stats.transient_errors
        found = get_many(self, keys)
        rec.count("cache.misses", self.stats.misses - misses)
        rec.count(
            "cache.transient_errors",
            self.stats.transient_errors - transient,
        )
        return found

    cls.get_many = probed
    cls.put = timed(
        rec, "cache.put", cls.put, lambda r, a, k: rec.count("cache.puts")
    )


def _patch_fleet(module, rec: Recorder, trace_dir: str) -> None:
    module.run_fleet = timed(rec, "fleet.run_fleet", module.run_fleet)


def _patch_kernel(module, rec: Recorder, trace_dir: str) -> None:
    cls = module.FastBusKernel
    run = timed(rec, "fast.run", cls.run)

    @functools.wraps(cls.run)
    def counted(self, *args, **kwargs):
        start = self.cycle
        try:
            return run(self, *args, **kwargs)
        finally:
            rec.count("fast.cycles", self.cycle - start)

    cls.run = counted


def _patch_batch(module, rec: Recorder, trace_dir: str) -> None:
    cls = module.BatchBusKernel

    def built(result, args, kwargs):
        kernel = args[0]
        valid, padded = lane_stats(
            (config.processors, config.memories) for config in kernel.configs
        )
        rec.count("fleet.kernels")
        rec.count("fleet.rows", len(kernel.configs))
        rec.count("fleet.valid_lanes", valid)
        rec.count("fleet.padded_lanes", padded)

    cls.__init__ = timed(rec, "batch.init", cls.__init__, built)
    advance = timed(rec, "batch.advance", cls.advance)

    @functools.wraps(cls.advance)
    def counted(self, count):
        start = self.cycle
        try:
            return advance(self, count)
        finally:
            cycles = self.cycle - start
            rec.count("batch.cycles", cycles)
            rec.count("batch.row_cycles", cycles * len(self.configs))

    cls.advance = counted
    cls.run = timed(rec, "batch.run_other", cls.run)


def _patch_numpy_backend(module, rec: Recorder, trace_dir: str) -> None:
    cls = module.NumpyBackend
    cls.require = timed(rec, "backends.numpy_require", cls.require)


def _patch_tracker(module, rec: Recorder, trace_dir: str) -> None:
    cls = module.LatencyTracker
    record = cls.record
    now = _now

    @functools.wraps(record)
    def hot_record(self, wait, service, total):
        start = now()
        record(self, wait, service, total)
        rec.add_hot(now() - start)

    cls.record = hot_record
    cls.report = timed(rec, "metrics.report", cls.report)


def _patch_transports(module, rec: Recorder, trace_dir: str) -> None:
    original_argv = module.sweep_work_argv

    @functools.wraps(original_argv)
    def traced_argv(*args, **kwargs):
        argv = original_argv(*args, **kwargs)
        if argv[1:3] != ["-m", "repro.experiments"]:
            raise RuntimeError(f"unexpected worker argv {argv!r}")
        entry = os.path.join(os.path.dirname(__file__), "traced_entry.py")
        return [argv[0], entry, trace_dir, *argv[3:]]

    module.sweep_work_argv = traced_argv
    cls = module.SubprocessTransport
    init, send, receive = cls.__init__, cls.send, cls.receive

    @functools.wraps(init)
    def started(self, *args, **kwargs):
        rec.event("spawn")
        init(self, *args, **kwargs)

    @functools.wraps(send)
    def sent(self, message):
        if message.get("type") == "lease":
            rec.event("lease", lease=message["lease_id"])
        send(self, message)

    @functools.wraps(receive)
    def received(self):
        message = receive(self)
        if message is not None and message.get("type") in (
            "ready",
            "lease_done",
        ):
            rec.event(message["type"], lease=message.get("lease_id"))
        return message

    cls.__init__, cls.send, cls.receive = started, sent, received


def _patch_coordinator(module, rec: Recorder, trace_dir: str) -> None:
    cls = module.Coordinator
    run = cls.run

    @functools.wraps(run)
    def counted(self):
        try:
            return run(self)
        finally:
            rec.count("service.leases_issued", self.leases_issued)
            rec.count("service.leases_retried", self.leases_retried)
            rec.count("service.dispatched", self.units_dispatched)

    cls.run = counted


PATCHES = {
    "repro.scenarios.compiler": _patch_compiler,
    "repro.scenarios.execute": _patch_execute,
    "repro.scenarios.plan": _patch_plan,
    "repro.parallel.cache": _patch_cache,
    "repro.parallel.fleet": _patch_fleet,
    "repro.bus.kernel": _patch_kernel,
    "repro.bus.batch": _patch_batch,
    "repro.bus.backends.numpy_backend": _patch_numpy_backend,
    "repro.metrics.tracker": _patch_tracker,
    "repro.service.transports": _patch_transports,
    "repro.service.coordinator": _patch_coordinator,
}
"""Module name -> patch applied once that module has executed."""


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Patches each listed module as soon as it has finished executing.

    Patching before anything can ``from module import name`` it means
    every caller, whenever it imports, binds the wrapped function - and
    modules a run never imports are never loaded for tracing's sake.
    """

    def __init__(self, rec: Recorder, trace_dir: str) -> None:
        self._pending = dict(PATCHES)
        self._rec = rec
        self._trace_dir = trace_dir

    def find_spec(self, name, path, target=None):
        patch = self._pending.pop(name, None)
        if patch is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            patch(module, self._rec, self._trace_dir)

        spec.loader.exec_module = exec_and_patch
        return spec


def install(rec: Recorder, trace_dir: str) -> None:
    """Wrap every layer of :data:`PATCHES` as its module loads."""
    loaded = [name for name in PATCHES if name in sys.modules]
    if loaded:
        raise RuntimeError(f"install() must run before importing {loaded}")
    sys.meta_path.insert(0, _PatchOnImport(rec, trace_dir))


def run_traced(trace_dir: str, argv: list[str]) -> int:
    """Run ``repro-experiments <argv>`` traced; spans go to ``trace_dir``."""
    rec = Recorder()
    install(rec, trace_dir)
    code = 1
    try:
        rec.enter("startup.import")
        try:
            from repro.experiments.runner import main

            importlib.import_module(SUBCOMMAND_MODULES[argv[0]])
        finally:
            rec.leave()
        code = main(argv)
    finally:
        rec.dump(os.path.join(trace_dir, f"{os.getpid()}.json"))
    return code
