"""Built-in scenario specifications.

Two families register here:

* **Paper scenarios** - the exact sweep grids behind the paper's
  figures 2/3/5/6 and tables 3/4 (plus the hot-spot extension that
  shipped with the seed).  The experiment modules under
  :mod:`repro.experiments` run *through* these specs, so the registry is
  the single source of truth for every published grid.
* **Exploration scenarios** - non-paper studies opened up by the
  declarative layer: hot-spot severity, buffer-depth scaling,
  heterogeneous per-processor ``p``, and a saturation stress sweep.

Every spec here is reachable from the command line::

    repro-experiments scenario                      # list them
    repro-experiments scenario figure2 --workers 8
    repro-experiments scenario buffer-depth-scaling --shard 1/4
"""

from __future__ import annotations

import dataclasses

from repro.core.policy import Priority
from repro.experiments import paper_data
from repro.experiments.grids import mr_grid_scenario
from repro.scenarios.registry import register_scenario
from repro.scenarios.spec import (
    EvaluationMethod,
    GridAxis,
    ReplicationPlan,
    ScenarioSpec,
)
from repro.workloads.spec import HotSpotWorkload, RequestMixWorkload

PAPER_SEED = 1985
"""The seed every paper experiment runs under (one replication)."""

HOT_SPOT_FRACTIONS: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.5)
"""Hot fractions of the seed hot-spot extension experiment."""

HOT_SPOT_SYSTEMS: tuple[tuple[int, int, int], ...] = (
    (8, 8, 8),
    (8, 16, 8),
    (8, 16, 12),
)
"""``(n, m, r)`` systems of the seed hot-spot extension experiment."""

HETEROGENEOUS_P_MIX: tuple[float, ...] = (
    1.0, 1.0, 0.8, 0.8, 0.5, 0.5, 0.2, 0.2,
)
"""Per-processor request probabilities of the heterogeneous-p scenario."""


# ----------------------------------------------------------------------
# Paper scenarios (grids identical to the hand-coded experiment loops).
# ----------------------------------------------------------------------
FIGURE2 = register_scenario(
    ScenarioSpec(
        name="figure2",
        description="Figure 2: EBW vs r, both priorities, p = 1",
        grid=(
            GridAxis(("processors", "memories"), paper_data.FIGURE2_SYSTEMS),
            GridAxis("priority", (Priority.PROCESSORS, Priority.MEMORIES)),
            GridAxis("memory_cycle_ratio", paper_data.FIGURE2_R_VALUES),
        ),
        cycles=50_000,
        plan=ReplicationPlan(1, PAPER_SEED),
    )
)

FIGURE3 = register_scenario(
    ScenarioSpec(
        name="figure3",
        description="Figure 3: processor utilisation vs p, unbuffered",
        base={
            "processors": paper_data.FIGURE3_PROCESSORS,
            "memories": paper_data.FIGURE3_MEMORIES,
            "priority": Priority.PROCESSORS,
        },
        grid=(
            GridAxis("memory_cycle_ratio", paper_data.FIGURE3_R_VALUES),
            GridAxis("request_probability", paper_data.FIGURE3_P_VALUES),
        ),
        cycles=60_000,
        plan=ReplicationPlan(1, PAPER_SEED),
    )
)

FIGURE5 = register_scenario(
    ScenarioSpec(
        name="figure5",
        description="Figure 5: EBW with and without buffers, p = 1",
        base={"priority": Priority.PROCESSORS},
        grid=(
            GridAxis(("processors", "memories"), paper_data.FIGURE5_SYSTEMS),
            GridAxis("buffered", (True, False)),
            GridAxis("memory_cycle_ratio", paper_data.FIGURE5_R_VALUES),
        ),
        cycles=50_000,
        plan=ReplicationPlan(1, PAPER_SEED),
    )
)

FIGURE6 = register_scenario(
    ScenarioSpec(
        name="figure6",
        description="Figure 6: processor utilisation vs p, buffered",
        base={
            "processors": paper_data.FIGURE6_PROCESSORS,
            "memories": paper_data.FIGURE6_MEMORIES,
            "priority": Priority.PROCESSORS,
            "buffered": True,
        },
        grid=(
            GridAxis("memory_cycle_ratio", paper_data.FIGURE6_R_VALUES),
            GridAxis("request_probability", paper_data.FIGURE6_P_VALUES),
        ),
        cycles=60_000,
        plan=ReplicationPlan(1, PAPER_SEED),
    )
)

TABLE3A = register_scenario(
    dataclasses.replace(
        mr_grid_scenario(
            "table3a",
            paper_data.TABLE3_M_VALUES,
            paper_data.TABLE3_R_VALUES,
            {
                "processors": paper_data.TABLE3_PROCESSORS,
                "priority": Priority.PROCESSORS,
            },
            cycles=100_000,
            seed=PAPER_SEED,
        ),
        description="Table 3(a): simulated EBW grid, priority to "
        "processors, n = 8",
    )
)

TABLE3B = register_scenario(
    dataclasses.replace(
        mr_grid_scenario(
            "table3b",
            paper_data.TABLE3_M_VALUES,
            paper_data.TABLE3_R_VALUES,
            {
                "processors": paper_data.TABLE3_PROCESSORS,
                "priority": Priority.PROCESSORS,
            },
            cycles=100_000,
            seed=PAPER_SEED,
        ),
        method=EvaluationMethod.MARKOV,
        description="Table 3(b): Section 4 reduced Markov chain over the "
        "Table 3 grid",
    )
)

TABLE4 = register_scenario(
    dataclasses.replace(
        mr_grid_scenario(
            "table4",
            paper_data.TABLE4_M_VALUES,
            paper_data.TABLE4_R_VALUES,
            {
                "processors": paper_data.TABLE4_PROCESSORS,
                "priority": Priority.PROCESSORS,
                "buffered": True,
            },
            cycles=100_000,
            seed=PAPER_SEED,
        ),
        description="Table 4: simulated EBW grid, buffered system, n = 8",
    )
)

HOT_SPOT = register_scenario(
    ScenarioSpec(
        name="hot_spot",
        description="Seed extension: EBW degradation under hot-spot "
        "traffic (hypothesis (e) violated)",
        base={"priority": Priority.PROCESSORS},
        grid=(
            GridAxis(
                ("processors", "memories", "memory_cycle_ratio"),
                HOT_SPOT_SYSTEMS,
            ),
            GridAxis("buffered", (False, True)),
            GridAxis("workload.hot_fraction", HOT_SPOT_FRACTIONS),
        ),
        workload=HotSpotWorkload(hot_fraction=0.0),
        cycles=50_000,
        plan=ReplicationPlan(1, PAPER_SEED),
    )
)


# ----------------------------------------------------------------------
# Exploration scenarios (non-paper axes opened by the scenario layer).
# ----------------------------------------------------------------------
HOT_SPOT_SEVERITY = register_scenario(
    ScenarioSpec(
        name="hot-spot-severity",
        description="Fine-grained hot-spot severity sweep on the paper's "
        "running 8x16 system, buffered and unbuffered",
        base={
            "processors": 8,
            "memories": 16,
            "memory_cycle_ratio": 8,
            "priority": Priority.PROCESSORS,
        },
        grid=(
            GridAxis("buffered", (False, True)),
            GridAxis(
                "workload.hot_fraction",
                (0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9),
            ),
        ),
        workload=HotSpotWorkload(hot_fraction=0.0),
        cycles=30_000,
        plan=ReplicationPlan(1, PAPER_SEED),
    )
)

BUFFER_DEPTH_SCALING = register_scenario(
    ScenarioSpec(
        name="buffer-depth-scaling",
        description="Does deepening the Section 6 buffers beyond the "
        "paper's depth 1 keep paying off?",
        base={
            "processors": 8,
            "memories": 8,
            "priority": Priority.PROCESSORS,
            "buffered": True,
        },
        grid=(
            GridAxis("memory_cycle_ratio", (4, 8, 16)),
            GridAxis("buffer_depth", (1, 2, 4, 8)),
        ),
        cycles=30_000,
        plan=ReplicationPlan(1, PAPER_SEED),
    )
)

HETEROGENEOUS_P = register_scenario(
    ScenarioSpec(
        name="heterogeneous-p",
        description="Per-processor request-probability mix vs the "
        "homogeneous p of hypothesis (f) at equal offered load",
        base={
            "processors": 8,
            "memories": 16,
            "priority": Priority.PROCESSORS,
            "request_probability": sum(HETEROGENEOUS_P_MIX)
            / len(HETEROGENEOUS_P_MIX),
        },
        grid=(
            GridAxis("buffered", (False, True)),
            GridAxis("memory_cycle_ratio", (4, 8, 12, 16)),
        ),
        workload=RequestMixWorkload(HETEROGENEOUS_P_MIX),
        cycles=30_000,
        plan=ReplicationPlan(1, PAPER_SEED),
    )
)

SATURATION_STRESS = register_scenario(
    ScenarioSpec(
        name="saturation-stress",
        description="Bus saturation stress: many processors on few "
        "modules at p = 1, replicated across seeds",
        base={"priority": Priority.PROCESSORS},
        grid=(
            GridAxis(
                ("processors", "memories"),
                ((8, 4), (16, 4), (16, 8), (32, 8)),
            ),
            GridAxis("memory_cycle_ratio", (2, 8)),
            GridAxis("buffered", (False, True)),
        ),
        cycles=20_000,
        plan=ReplicationPlan(3, PAPER_SEED),
    )
)

LATENCY_TAIL = register_scenario(
    ScenarioSpec(
        name="latency-tail",
        description="Wait/service/total latency percentiles (p50/p90/p99) "
        "with and without Section 6 buffers: the tail-latency view of "
        "the buffering decision",
        base={
            "processors": 8,
            "memories": 8,
            "priority": Priority.PROCESSORS,
        },
        grid=(
            GridAxis("buffered", (False, True)),
            GridAxis("memory_cycle_ratio", (2, 4, 8, 16)),
            GridAxis("request_probability", (0.5, 1.0)),
        ),
        metrics=("latency",),
        cycles=30_000,
        plan=ReplicationPlan(3, PAPER_SEED),
    )
)

BANDWIDTH_VS_SIMULATION = register_scenario(
    ScenarioSpec(
        name="bandwidth-vs-simulation",
        description="Section 3.2 combinational bandwidth model over the "
        "Table 3 (m, r) grid - diff against 'table3a' to see the "
        "memoryless profile's error",
        base={
            "processors": paper_data.TABLE3_PROCESSORS,
            "priority": Priority.PROCESSORS,
        },
        grid=(
            GridAxis("memories", paper_data.TABLE3_M_VALUES),
            GridAxis("memory_cycle_ratio", paper_data.TABLE3_R_VALUES),
        ),
        method=EvaluationMethod.BANDWIDTH,
        plan=ReplicationPlan(1, PAPER_SEED),
    )
)

PRODUCT_FORM_MVA = register_scenario(
    ScenarioSpec(
        name="product-form-mva",
        description="Product-form MVA EBW over the Table 4 buffered grid "
        "(the model the paper rejects as >25% pessimistic)",
        base={
            "processors": paper_data.TABLE4_PROCESSORS,
            "priority": Priority.PROCESSORS,
            "buffered": True,
        },
        grid=(
            GridAxis("memories", (4, 8, 16)),
            GridAxis("memory_cycle_ratio", (6, 12, 24)),
        ),
        method=EvaluationMethod.MVA,
        plan=ReplicationPlan(1, PAPER_SEED),
    )
)

BOUNDS_ENVELOPE = register_scenario(
    ScenarioSpec(
        name="bounds-envelope",
        description="Balanced-job bound midpoints over the product-form "
        "grid - the zero-cost envelope a designer checks before "
        "simulating anything",
        base={
            "processors": paper_data.TABLE4_PROCESSORS,
            "priority": Priority.PROCESSORS,
            "buffered": True,
        },
        grid=(
            GridAxis("memories", (4, 8, 16)),
            GridAxis("memory_cycle_ratio", (6, 12, 24)),
        ),
        method=EvaluationMethod.BOUNDS,
        plan=ReplicationPlan(1, PAPER_SEED),
    )
)

APPROX_VS_EXACT = register_scenario(
    ScenarioSpec(
        name="approx-vs-exact",
        description="Section 3.2/4 approximations over the Table 1 grid, "
        "priority to memories - diff against the markov method to see "
        "the combinational profile's error",
        base={
            "memory_cycle_ratio": 9,
            "priority": Priority.MEMORIES,
        },
        grid=(
            GridAxis("processors", (2, 4, 6, 8)),
            GridAxis("memories", (2, 4, 6, 8)),
        ),
        method=EvaluationMethod.APPROX,
        plan=ReplicationPlan(1, PAPER_SEED),
    )
)
