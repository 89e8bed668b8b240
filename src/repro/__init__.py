"""repro - reproduction of "Analysis and Simulation of Multiplexed
Single-Bus Networks With and Without Buffering" (ISCA 1985).

Public API tour
---------------
* :class:`SystemConfig` describes a system (n, m, r, p, priority,
  buffering);
* :func:`simulate` runs the cycle-accurate machine simulator;
* :mod:`repro.engine` is the unified evaluation layer: every method
  (simulation, markov, mva, crossbar, bandwidth, bounds, approx) is one
  entry of a fixed method table, with capability declarations - see
  ``ARCHITECTURE.md``;
* :mod:`repro.models` evaluates the paper's analytical models;
* :mod:`repro.queueing` solves the Section 6 product-form comparison;
* :mod:`repro.experiments` regenerates every table and figure
  (``repro-experiments all`` or ``python -m repro.experiments all``);
* :mod:`repro.parallel` holds the seeded simulation tasks, batch
  fleets and the content-addressed result cache; scenario grids run on
  forked sweep workers through ``run_scenario(spec, workers=N)``
  (``repro-experiments scenario figure2 --workers 8``), without
  changing a single output byte;
* :mod:`repro.scenarios` declares whole design-space sweeps as
  validated specs, compiles them to shardable work-unit lists, and runs
  them - see ``SCENARIOS.md`` (``repro-experiments scenario``);
* :mod:`repro.workloads` provides the request-target generators and the
  declarative workload specs (uniform, hot-spot, trace, heterogeneous
  per-processor p) the scenario layer composes.

Quick start::

    from repro import SystemConfig, Priority, simulate
    config = SystemConfig(processors=8, memories=16, memory_cycle_ratio=8,
                          priority=Priority.PROCESSORS)
    print(simulate(config, cycles=100_000, seed=1).summary())

The names above load their modules on first use (:mod:`repro._lazy`),
so ``import repro`` alone imports no simulator.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.bus": ("simulate",),
        "repro.bus.system": ("MultiplexedBusSystem",),
        "repro.core": (
            "ConfigurationError",
            "ExperimentError",
            "ModelError",
            "ModelResult",
            "Priority",
            "ReproError",
            "SimulationError",
            "SimulationResult",
            "SystemConfig",
            "TieBreak",
        ),
    },
)

__version__ = "1.0.0"

__all__ = [
    "SystemConfig",
    "Priority",
    "TieBreak",
    "simulate",
    "MultiplexedBusSystem",
    "ModelResult",
    "SimulationResult",
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "ModelError",
    "ExperimentError",
    "__version__",
]
