"""Frozen, validated scenario specifications.

A :class:`ScenarioSpec` is the declarative unit of this library's
design-space exploration: it composes

* a *base* configuration (fixed :class:`~repro.core.config.SystemConfig`
  field values),
* a *grid* of axes over configuration - and workload - fields
  (:class:`GridAxis`),
* a *workload* spec (:mod:`repro.workloads.spec`),
* an *evaluation method* (:class:`EvaluationMethod`: cycle-accurate bus
  simulation, reduced Markov chain, product-form MVA, the closed-form
  crossbar model, or the Section 3.2 combinational bandwidth model),
* a *replication plan* (:class:`ReplicationPlan`: how many seeds),
* optional extra *metrics* (currently ``latency``: streaming
  wait/service/total percentile summaries per work unit), and
* the memory access-time law (``geometric_access_times``: constant
  ``r`` cycles, the paper's machine, or geometric with mean ``r``).

Every figure and table of the paper is one such sweep; so are the
non-paper studies (hot-spot severity, buffer-depth scaling, ...).  The
compiler (:mod:`repro.scenarios.compiler`) lowers a spec into a
deterministic, stably-ordered work-unit list;
:func:`repro.scenarios.registry.load_scenario_file` loads specs from
TOML/JSON files with the same field names used here.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Iterator, Mapping, Sequence

from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError
from repro.core.policy import Priority, TieBreak
from repro.engine.base import ALL_WORKLOAD_KINDS, EvaluationMethod
from repro.workloads.spec import (
    UniformWorkload,
    WorkloadSpec,
    workload_payload,
)

CONFIG_FIELDS: tuple[str, ...] = tuple(
    field.name for field in dataclasses.fields(SystemConfig)
)
"""The :class:`SystemConfig` field names a grid axis or base may set."""

WORKLOAD_FIELD_PREFIX = "workload."
"""Axis fields starting with this prefix override workload-spec fields."""

KNOWN_METRICS: frozenset[str] = frozenset({"latency"})
"""Metric families a scenario may request (currently only latency)."""


def _coerce_config_value(field: str, value: Any) -> Any:
    """Convert TOML-friendly strings to the enum types config expects."""
    if field == "priority" and isinstance(value, str):
        try:
            return Priority(value)
        except ValueError:
            raise ConfigurationError(
                f"unknown priority {value!r}; known: "
                f"{', '.join(p.value for p in Priority)}"
            ) from None
    if field == "tie_break" and isinstance(value, str):
        try:
            return TieBreak(value)
        except ValueError:
            raise ConfigurationError(
                f"unknown tie_break {value!r}; known: "
                f"{', '.join(t.value for t in TieBreak)}"
            ) from None
    return value


def _json_value(value: Any) -> Any:
    """Canonical JSON form of an axis/base value (enums become strings)."""
    if isinstance(value, enum.Enum):
        return str(value.value)
    if isinstance(value, tuple):
        return [_json_value(item) for item in value]
    return value


@dataclasses.dataclass(frozen=True)
class GridAxis:
    """One axis of a scenario grid.

    ``fields`` names one or more :class:`SystemConfig` fields (or
    ``workload.<field>`` entries); ``values`` lists the points of the
    axis, each a tuple with one entry per field.  Joint multi-field axes
    express paired sweeps such as the paper's ``(n, m)`` system list
    without producing the unwanted full cross product.

    Single-field axes accept the obvious shorthand::

        GridAxis("memory_cycle_ratio", (2, 4, 8))
        GridAxis(("processors", "memories"), ((4, 4), (8, 8)))
    """

    fields: tuple[str, ...]
    values: tuple[tuple[Any, ...], ...]

    def __post_init__(self) -> None:
        fields = self.fields
        if isinstance(fields, str):
            fields = (fields,)
        fields = tuple(fields)
        if not fields:
            raise ConfigurationError("a grid axis needs at least one field")
        if len(set(fields)) != len(fields):
            raise ConfigurationError(
                f"grid axis repeats a field: {', '.join(fields)}"
            )
        for field in fields:
            if field.startswith(WORKLOAD_FIELD_PREFIX):
                continue
            if field not in CONFIG_FIELDS:
                raise ConfigurationError(
                    f"unknown grid field {field!r}; config fields: "
                    f"{', '.join(CONFIG_FIELDS)} (or workload.<field>)"
                )
        raw_values = tuple(self.values)
        if not raw_values:
            raise ConfigurationError(
                f"grid axis over {', '.join(fields)} needs at least one value"
            )
        values = []
        for value in raw_values:
            if len(fields) == 1 and not isinstance(value, (tuple, list)):
                value = (value,)
            value = tuple(value)
            if len(value) != len(fields):
                raise ConfigurationError(
                    f"axis value {value!r} does not match fields "
                    f"({', '.join(fields)})"
                )
            values.append(
                tuple(
                    _coerce_config_value(field, item)
                    for field, item in zip(fields, value)
                )
            )
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "values", tuple(values))

    def payload(self) -> dict[str, Any]:
        """Canonical JSON-able description of this axis."""
        return {
            "fields": list(self.fields),
            "values": [_json_value(value) for value in self.values],
        }


@dataclasses.dataclass(frozen=True)
class ReplicationPlan:
    """How many independent replications each grid point runs.

    Seeds follow the library-wide convention ``base_seed + i`` (see
    :func:`repro.des.replications.replication_seeds`), so scenario
    replications land on the same seeds the replication machinery uses.
    """

    replications: int = 1
    base_seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.replications, int) or self.replications < 1:
            raise ConfigurationError(
                f"replications must be a positive integer, got "
                f"{self.replications!r}"
            )
        if not isinstance(self.base_seed, int) or isinstance(
            self.base_seed, bool
        ):
            raise ConfigurationError(
                f"base_seed must be an integer, got {self.base_seed!r}"
            )

    @property
    def seeds(self) -> tuple[int, ...]:
        """The seed of each replication, in replication order."""
        return tuple(self.base_seed + i for i in range(self.replications))

    def payload(self) -> dict[str, Any]:
        """Canonical JSON-able description of this plan."""
        return {"replications": self.replications, "base_seed": self.base_seed}


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """A complete, declarative description of one design-space sweep."""

    name: str
    base: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    grid: tuple[GridAxis, ...] = ()
    workload: WorkloadSpec = UniformWorkload()
    method: EvaluationMethod = EvaluationMethod.SIMULATION
    cycles: int = 50_000
    warmup: int | None = None
    plan: ReplicationPlan = ReplicationPlan()
    description: str = ""
    metrics: tuple[str, ...] = ()
    """Extra per-unit metric families (:data:`KNOWN_METRICS`), e.g.
    ``("latency",)`` for streaming wait/service/total percentiles.
    Stored sorted and deduplicated so equal requests hash equally."""
    geometric_access_times: bool = False
    """Simulate geometric memory access times of mean ``r`` instead of
    the constant ``r`` cycles (simulation only); enters unit payloads
    and report lines only when set."""

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name.strip():
            raise ConfigurationError(
                f"scenario name must be a non-empty string, got {self.name!r}"
            )
        base = dict(self.base)
        for field in base:
            if field not in CONFIG_FIELDS:
                raise ConfigurationError(
                    f"unknown base field {field!r}; config fields: "
                    f"{', '.join(CONFIG_FIELDS)}"
                )
        base = {
            field: _coerce_config_value(field, value)
            for field, value in base.items()
        }
        object.__setattr__(self, "base", base)
        grid = tuple(self.grid)
        seen: set[str] = set()
        for axis in grid:
            if not isinstance(axis, GridAxis):
                raise ConfigurationError(
                    f"grid entries must be GridAxis instances, got {axis!r}"
                )
            duplicate = seen.intersection(axis.fields)
            if duplicate:
                raise ConfigurationError(
                    f"field(s) {', '.join(sorted(duplicate))} appear on "
                    "more than one grid axis"
                )
            seen.update(axis.fields)
        object.__setattr__(self, "grid", grid)
        if not isinstance(self.method, EvaluationMethod):
            raise ConfigurationError(
                f"method must be an EvaluationMethod, got {self.method!r}"
            )
        if not isinstance(self.cycles, int) or self.cycles < 1:
            raise ConfigurationError(
                f"cycles must be a positive integer, got {self.cycles!r}"
            )
        if self.warmup is not None and (
            not isinstance(self.warmup, int) or self.warmup < 0
        ):
            raise ConfigurationError(
                f"warmup must be None or a non-negative integer, got "
                f"{self.warmup!r}"
            )
        if not isinstance(self.plan, ReplicationPlan):
            raise ConfigurationError(
                f"plan must be a ReplicationPlan, got {self.plan!r}"
            )
        if isinstance(self.metrics, str):
            raise ConfigurationError(
                "metrics must be a sequence of metric names, not a string"
            )
        if isinstance(self.metrics, Mapping):
            # A TOML inline table like `metrics = {latency = false}`
            # would otherwise iterate into its keys and silently ENABLE
            # the metric the user tried to toggle off.
            raise ConfigurationError(
                f"metrics must be a sequence of metric names, got the "
                f"table {dict(self.metrics)!r}"
            )
        try:
            raw_metrics = tuple(self.metrics)
        except TypeError:
            raise ConfigurationError(
                f"metrics must be a sequence of metric names, got "
                f"{self.metrics!r}"
            ) from None
        for metric in raw_metrics:
            if not isinstance(metric, str) or metric not in KNOWN_METRICS:
                raise ConfigurationError(
                    f"unknown metric {metric!r}; known: "
                    f"{', '.join(sorted(KNOWN_METRICS))}"
                )
        metrics = tuple(sorted(set(raw_metrics)))
        object.__setattr__(self, "metrics", metrics)
        # Capability validation: each method's evaluator declares what
        # it can evaluate, so unsupported metric families and workload
        # kinds are rejected here - at spec-construction (hence
        # scenario-load) time - with a message naming the constraint.
        from repro.engine.evaluators import get_evaluator

        capabilities = get_evaluator(self.method).capabilities
        capabilities.check_metrics(metrics)
        if not isinstance(self.geometric_access_times, bool):
            raise ConfigurationError(
                "geometric_access_times must be true or false, got "
                f"{self.geometric_access_times!r}"
            )
        if self.geometric_access_times and capabilities.analytic:
            raise ConfigurationError(
                f"method {self.method} is analytic; geometric access "
                "times need the simulation method"
            )
        workload_fields = [
            field
            for axis in grid
            for field in axis.fields
            if field.startswith(WORKLOAD_FIELD_PREFIX)
        ]
        capabilities.check_workload_kind(self.workload.kind)
        if workload_fields and capabilities.workloads != ALL_WORKLOAD_KINDS:
            raise ConfigurationError(
                f"method {self.method} is analytic and supports only the "
                "uniform workload (hypothesis (e)); it cannot sweep "
                f"workload field(s) {', '.join(workload_fields)}"
            )

    # ------------------------------------------------------------------
    def points(self) -> Iterator[tuple[SystemConfig, WorkloadSpec]]:
        """Enumerate grid points in canonical (row-major) order.

        Axes vary like a nested loop written in declaration order: the
        last axis fastest.  Each point yields the fully-built
        configuration and workload with every axis override applied.
        """
        import itertools

        for combo in itertools.product(*(axis.values for axis in self.grid)):
            config_overrides: dict[str, Any] = {}
            workload_overrides: dict[str, Any] = {}
            for axis, values in zip(self.grid, combo):
                for field, value in zip(axis.fields, values):
                    if field.startswith(WORKLOAD_FIELD_PREFIX):
                        workload_overrides[
                            field[len(WORKLOAD_FIELD_PREFIX):]
                        ] = value
                    else:
                        config_overrides[field] = value
            try:
                config = SystemConfig(**{**self.base, **config_overrides})
            except TypeError as exc:
                raise ConfigurationError(
                    f"scenario {self.name!r} does not fully specify a "
                    f"system configuration: {exc}"
                ) from exc
            workload = self.workload
            if workload_overrides:
                try:
                    workload = dataclasses.replace(
                        workload, **workload_overrides
                    )
                except TypeError as exc:
                    raise ConfigurationError(
                        f"workload kind {workload.kind!r} does not accept "
                        f"override(s) {sorted(workload_overrides)}: {exc}"
                    ) from exc
            workload.validate(config)
            yield config, workload

    def grid_size(self) -> int:
        """Number of grid points (excluding replications)."""
        size = 1
        for axis in self.grid:
            size *= len(axis.values)
        return size

    def payload(self) -> dict[str, Any]:
        """Canonical JSON-able description of the whole spec."""
        payload = {
            "name": self.name,
            "base": {
                field: _json_value(value)
                for field, value in sorted(self.base.items())
            },
            "grid": [axis.payload() for axis in self.grid],
            "workload": workload_payload(self.workload),
            "method": str(self.method),
            "cycles": self.cycles,
            "warmup": self.warmup,
            "plan": self.plan.payload(),
            "metrics": list(self.metrics),
        }
        if self.geometric_access_times:
            payload["geometric_access_times"] = True
        return payload


def _parse_axis(entry: Mapping[str, Any]) -> GridAxis:
    if not isinstance(entry, Mapping):
        raise ConfigurationError(f"grid entries must be tables, got {entry!r}")
    data = dict(entry)
    fields: Sequence[str] | str
    if "field" in data and "fields" in data:
        raise ConfigurationError("a grid axis takes 'field' or 'fields', not both")
    if "field" in data:
        fields = data.pop("field")
    elif "fields" in data:
        fields = data.pop("fields")
    else:
        raise ConfigurationError("a grid axis needs a 'field' or 'fields' key")
    values = data.pop("values", None)
    if values is None:
        raise ConfigurationError("a grid axis needs a 'values' list")
    if data:
        raise ConfigurationError(
            f"unknown grid axis key(s): {', '.join(sorted(data))}"
        )
    if isinstance(fields, str):
        fields = (fields,)
    return GridAxis(tuple(fields), tuple(values))


def spec_from_mapping(data: Mapping[str, Any]) -> ScenarioSpec:
    """Build a :class:`ScenarioSpec` from a plain mapping.

    The mapping uses exactly the TOML/JSON file schema (see
    ``SCENARIOS.md``): ``name``, ``description``, ``method``, ``cycles``,
    ``warmup``, a ``base`` table, a ``grid`` list of axis tables, a
    ``workload`` table, a ``replications`` table, ``metrics`` and
    ``geometric_access_times``.
    """
    from repro.workloads.spec import workload_from_payload

    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"a scenario definition must be a mapping, got {data!r}"
        )
    data = dict(data)
    known = {
        "name",
        "description",
        "method",
        "cycles",
        "warmup",
        "base",
        "grid",
        "workload",
        "replications",
        "metrics",
        "geometric_access_times",
    }
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigurationError(
            f"unknown scenario key(s): {', '.join(unknown)}"
        )
    if "name" not in data:
        raise ConfigurationError("a scenario definition needs a 'name'")
    method = data.get("method", "simulation")
    if isinstance(method, str):
        try:
            method = EvaluationMethod(method)
        except ValueError:
            known_methods = ", ".join(m.value for m in EvaluationMethod)
            raise ConfigurationError(
                f"unknown method {method!r}; known: {known_methods}"
            ) from None
    grid = tuple(_parse_axis(entry) for entry in data.get("grid", ()))
    workload: WorkloadSpec = UniformWorkload()
    if "workload" in data:
        workload = workload_from_payload(data["workload"])
    plan = ReplicationPlan()
    if "replications" in data:
        plan_data = dict(data["replications"])
        unknown = sorted(set(plan_data) - {"count", "base_seed"})
        if unknown:
            raise ConfigurationError(
                f"unknown replications key(s): {', '.join(unknown)}"
            )
        plan = ReplicationPlan(
            replications=plan_data.get("count", 1),
            base_seed=plan_data.get("base_seed", 0),
        )
    metrics = data.get("metrics", ())
    if isinstance(metrics, str):
        raise ConfigurationError(
            "the 'metrics' key takes a list of metric names, "
            f"got the string {metrics!r}"
        )
    kwargs: dict[str, Any] = {
        "name": data["name"],
        "base": data.get("base", {}),
        "grid": grid,
        "workload": workload,
        "method": method,
        "plan": plan,
        "description": data.get("description", ""),
        # Validated (shape and names) by ScenarioSpec itself.
        "metrics": metrics,
    }
    if "cycles" in data:
        kwargs["cycles"] = data["cycles"]
    if "warmup" in data:
        kwargs["warmup"] = data["warmup"]
    if "geometric_access_times" in data:
        kwargs["geometric_access_times"] = data["geometric_access_times"]
    return ScenarioSpec(**kwargs)
