"""Lower a :class:`~repro.scenarios.spec.ScenarioSpec` into work units.

The compiler is the bridge between the declarative scenario layer and
the :mod:`repro.parallel` execution substrate.  It produces a
*deterministic, stably-ordered* tuple of :class:`WorkUnit` items:

* ordering is row-major over the grid axes in declaration order, with
  replication seeds varying fastest - i.e. exactly the nested loop a
  hand-written experiment would contain;
* each unit owns a dense ``index`` (its position in the unsharded
  order) and a content-addressed :meth:`WorkUnit.payload` that covers
  every byte-relevant field (configuration, workload, method, cycles,
  warmup, seed) and deliberately excludes the index and scenario name,
  so identical computations share cache entries across scenarios;
* :func:`shard_units` partitions the list round-robin so ``k`` shards
  run on ``k`` machines and merge - by sorting on ``index`` - into the
  byte-identical unsharded result (property-tested in
  ``tests/properties/test_scenario_sharding.py``).
"""

from __future__ import annotations

import dataclasses
import re
from typing import Any, Iterable, Sequence

from repro.bus import DEFAULT_KERNEL, check_batch_features, check_kernel
from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError
from repro.engine.base import EvalRequest
from repro.engine.evaluators import get_evaluator
from repro.scenarios.spec import EvaluationMethod, ScenarioSpec
from repro.workloads.spec import WorkloadSpec

_SHARD_RE = re.compile(r"^(\d+)/(\d+)$")


@dataclasses.dataclass(frozen=True)
class WorkUnit:
    """One fully-specified evaluation of one grid point under one seed."""

    index: int
    scenario: str
    config: SystemConfig
    workload: WorkloadSpec | None
    method: EvaluationMethod
    cycles: int
    warmup: int | None
    seed: int
    replication: int
    metrics: tuple[str, ...] = ()
    """Extra metric families this unit collects (e.g. ``("latency",)``)."""
    kernel: str = DEFAULT_KERNEL
    """Simulation tier (``"fast"``, the exact one, or ``"batch"``).
    Exact units cache under ``simulation@1``.  Batch results are
    reproducible in themselves but not bit-identical, so their payloads
    carry the ``simulation-batch@1`` engine token instead."""
    geometric_access_times: bool = False
    """Geometric instead of constant memory access times (simulation
    only; part of :meth:`payload` only when set)."""

    @property
    def collects_latency(self) -> bool:
        """Whether this unit records per-request latency distributions."""
        return "latency" in self.metrics

    def request(self) -> EvalRequest:
        """The engine-layer request this unit evaluates."""
        return EvalRequest(
            config=self.config,
            workload=self.workload,
            cycles=self.cycles,
            warmup=self.warmup,
            seed=self.seed,
            metrics=self.metrics,
            kernel=self.kernel,
            geometric_access_times=self.geometric_access_times,
        )

    def payload(self) -> dict[str, Any]:
        """Content-addressed identity of the computation.

        Excludes ``index``, ``scenario``, ``replication`` and
        ``kernel``: two units that perform the same computation hash
        identically wherever they appear, which is what lets shards and
        unrelated scenarios share cache entries.  The encoding is
        delegated to the unit's evaluator's ``cache_payload``
        (:mod:`repro.engine.evaluators`), which adds its versioned
        engine token: simulation units cover the full request
        (config, workload, seed, cycles, warmup, versioned metrics
        field); analytic methods are deterministic functions of the
        configuration alone, so their keys exclude seed/cycles/warmup -
        replications and ``--cycles`` overrides then hit the same entry
        instead of recomputing the identical closed-form value.
        """
        return get_evaluator(self.method).cache_payload(self.request())


def compile_scenario(
    spec: ScenarioSpec,
    kernel: str = DEFAULT_KERNEL,
) -> tuple[WorkUnit, ...]:
    """Lower ``spec`` into its canonical ordered work-unit tuple.

    The order is total and reproducible: grid points in the spec's
    row-major axis order, and within each point the replication seeds in
    plan order.  Compiling the same spec twice yields equal tuples.

    Every grid point is validated against the method's evaluator
    capabilities (:class:`~repro.engine.base.EvaluatorCapabilities`), so
    a sweep that would fail mid-run - e.g. the combinational bandwidth
    model over a buffered configuration - is rejected here, at scenario
    load time, with a message naming the offending point.

    ``kernel`` selects the simulation tier for every compiled unit:
    ``"fast"`` is exact; ``"batch"`` (vectorized lockstep fleets)
    changes bytes within statistical equivalence and is validated here
    against its capability set
    (:func:`repro.bus.check_batch_features`) - e.g. latency metrics
    compile (sketch-based percentiles).  Unknown kernel names are
    rejected here too, so a typo fails at scenario load time instead of
    mid-sweep - never a silent fallback.
    """
    check_kernel(kernel)
    capabilities = get_evaluator(spec.method).capabilities
    if kernel == "batch" and spec.method is EvaluationMethod.SIMULATION:
        try:
            check_batch_features(metrics=spec.metrics)
        except ConfigurationError as exc:
            raise ConfigurationError(
                f"scenario {spec.name!r} cannot run under "
                f"kernel='batch': {exc}"
            ) from exc
    units: list[WorkUnit] = []
    seeds = spec.plan.seeds
    index = 0
    for config, workload in spec.points():
        try:
            capabilities.check_workload_kind(workload.kind)
            capabilities.check_config(config)
        except ConfigurationError as exc:
            raise ConfigurationError(
                f"scenario {spec.name!r} grid point {config.describe()} "
                f"is not evaluable: {exc}"
            ) from exc
        for replication, seed in enumerate(seeds):
            units.append(
                WorkUnit(
                    index=index,
                    scenario=spec.name,
                    config=config,
                    workload=workload,
                    method=spec.method,
                    cycles=spec.cycles,
                    warmup=spec.warmup,
                    seed=seed,
                    replication=replication,
                    metrics=spec.metrics,
                    geometric_access_times=spec.geometric_access_times,
                    kernel=kernel,
                )
            )
            index += 1
    if not units:
        raise ConfigurationError(
            f"scenario {spec.name!r} compiles to zero work units"
        )
    return tuple(units)


def compile_specs(
    specs: Sequence[ScenarioSpec],
    kernel: str = DEFAULT_KERNEL,
    shard: tuple[int, int] | None = None,
) -> tuple[WorkUnit, ...]:
    """Compile ``specs`` into one unit list, each spec's units in turn.

    The one list a run executes and its sweep workers compile again
    from ``hello``, so a position means the same unit on both sides.
    Each unit keeps the ``index`` its own spec gave it, so ``shard``
    takes one shard of a single spec only.
    """
    if shard is not None and len(specs) != 1:
        raise ConfigurationError(
            f"a shard takes exactly one scenario, got {len(specs)}"
        )
    units = tuple(
        unit
        for spec in specs
        for unit in compile_scenario(spec, kernel=kernel)
    )
    return units if shard is None else shard_units(units, *shard)


def parse_shard(text: str) -> tuple[int, int]:
    """Parse a ``--shard i/k`` designator (1-based, ``1 <= i <= k``)."""
    match = _SHARD_RE.match(text.strip())
    if not match:
        raise ConfigurationError(
            f"shard designator must look like 'i/k' (e.g. '2/4'), got {text!r}"
        )
    shard_index, shard_count = int(match.group(1)), int(match.group(2))
    if shard_count < 1:
        raise ConfigurationError(
            f"shard count must be >= 1, got {shard_count}"
        )
    if not 1 <= shard_index <= shard_count:
        raise ConfigurationError(
            f"shard index must lie in 1..{shard_count}, got {shard_index}"
        )
    return shard_index, shard_count


def shard_units(
    units: Sequence[WorkUnit], shard_index: int, shard_count: int
) -> tuple[WorkUnit, ...]:
    """The subsequence of ``units`` owned by shard ``shard_index`` of
    ``shard_count`` (1-based).

    Units are dealt round-robin on their compiled index, so adjacent
    (similar-cost) units spread across shards and every shard's length
    differs by at most one.  The union of all ``shard_count`` shards is
    exactly ``units``, each appearing once.
    """
    if not 1 <= shard_index <= shard_count:
        raise ConfigurationError(
            f"shard index must lie in 1..{shard_count}, got {shard_index}"
        )
    return tuple(
        unit for unit in units if unit.index % shard_count == shard_index - 1
    )


def merge_by_index(entries: Iterable[tuple[int, Any]], what: str) -> list[Any]:
    """Reassemble ``(unit index, item)`` pairs into canonical order.

    The one validation used by every shard-merging surface (work-unit
    lists, report lines): indices must neither collide nor leave holes -
    merging half a sweep must fail loudly, not silently produce a
    shorter result.  Raises :class:`ConfigurationError` otherwise.
    """
    merged: dict[int, Any] = {}
    for index, item in entries:
        if index in merged:
            raise ConfigurationError(
                f"duplicate {what} for unit index {index} across shards"
            )
        merged[index] = item
    missing = [i for i in range(len(merged)) if i not in merged]
    if missing:
        raise ConfigurationError(
            f"merged shards leave missing unit indices: {missing[:10]}"
        )
    return [merged[i] for i in sorted(merged)]


def merge_units(shards: Iterable[Sequence[WorkUnit]]) -> tuple[WorkUnit, ...]:
    """Reassemble shard outputs into the canonical unsharded order."""
    return tuple(
        merge_by_index(
            ((unit.index, unit) for shard in shards for unit in shard),
            "work unit",
        )
    )
