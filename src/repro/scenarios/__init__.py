"""Declarative scenario subsystem with a shardable sweep compiler.

Every evaluation in this library - each paper figure and table, and
every exploration beyond them - is a sweep over ``(n, m, r, p, policy,
buffering)`` axes under some workload and evaluation method.  This
package makes that sweep a *value*:

* :class:`ScenarioSpec` (:mod:`repro.scenarios.spec`) declares the
  sweep: base configuration, grid axes (including joint axes and
  ``workload.*`` fields), workload spec, evaluation method, and a
  replication plan.  Specs load from TOML/JSON files or come from the
  built-in registry (:mod:`repro.scenarios.registry`).
* :func:`compile_scenario` (:mod:`repro.scenarios.compiler`) lowers a
  spec into a deterministic, stably-ordered tuple of :class:`WorkUnit`
  items with content-addressed cache keys; :func:`compile_specs`
  concatenates several specs' lists into one, and :func:`shard_units`
  splits a list for multi-machine execution.
* :func:`run_scenarios` / :func:`run_scenario` / :func:`run_units`
  (:mod:`repro.scenarios.execute`) execute units in-process or on the
  sweep service's local workers (:mod:`repro.service`), through the
  result cache, and render mergeable reports whose sharded outputs
  recombine byte-identically (:func:`merge_reports`).

The paper experiments (:mod:`repro.experiments`) declare their specs
and run through this subsystem as one unit list; ``repro-experiments
scenario`` exposes it on the command line.
"""

from repro.scenarios.compiler import (
    WorkUnit,
    compile_scenario,
    compile_specs,
    merge_units,
    parse_shard,
    shard_units,
)
from repro.scenarios.execute import (
    UnitResult,
    evaluate_unit,
    merge_reports,
    render_report,
    run_scenario,
    run_scenarios,
    run_units,
    unit_line,
)
from repro.scenarios.registry import (
    all_scenarios,
    get_scenario,
    load_scenario,
    load_scenario_file,
    register_scenario,
)
from repro.scenarios.spec import (
    EvaluationMethod,
    GridAxis,
    ReplicationPlan,
    ScenarioSpec,
    spec_from_mapping,
)

__all__ = [
    "ScenarioSpec",
    "GridAxis",
    "ReplicationPlan",
    "EvaluationMethod",
    "spec_from_mapping",
    "WorkUnit",
    "compile_scenario",
    "compile_specs",
    "shard_units",
    "merge_units",
    "parse_shard",
    "UnitResult",
    "evaluate_unit",
    "run_units",
    "run_scenario",
    "run_scenarios",
    "unit_line",
    "render_report",
    "merge_reports",
    "register_scenario",
    "get_scenario",
    "all_scenarios",
    "load_scenario",
    "load_scenario_file",
]
