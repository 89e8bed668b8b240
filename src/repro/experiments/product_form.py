"""Section 6 side claim: the exponential (product-form) characterisation
is heavily pessimistic for the buffered constant-service system.

The paper: "by using simulation techniques we have been able to measure
the numerical differences between the two service times
characterizations.  The results obtained show large discrepancies, which
exceeded 25% difference.  Pessimistic results are obtained when an
exponential distribution is assumed in the model."

This experiment regenerates the comparison three ways per (m, r):

* ``machine`` - the buffered machine with constant service (ground truth);
* ``geom-machine`` - the same machine with geometric (memoryless) access
  times, the discrete analogue of the exponential characterisation;
* ``mva`` - the exact product-form solution (exponential, infinite
  queues); the exponential-service event simulation of
  :mod:`repro.queueing.exponential_sim` converges to this value and is
  cross-checked in the test suite.

Two discrepancy metrics are reported, both with the exponential side
pessimistic:

* ``ebw-pess%`` - EBW shortfall of the exponential model (peaks around
  15-21% on this grid);
* ``delay-disc%`` - discrepancy of the mean queueing delay (response
  time beyond the uncontended ``r + 2``), obtained from Little's law;
  this exceeds 25% over much of the grid and is the reading under which
  the paper's ">25%" figure reproduces (the paper does not name its
  metric; ``tests/integration/test_paper_claims.py`` pins both readings).
"""

from __future__ import annotations

import dataclasses

from repro.core.policy import Priority
from repro.engine.base import EvaluationMethod
from repro.experiments.grids import mr_grid_scenario
from repro.experiments.registry import ExperimentResult, ExperimentSpec, register

_M_VALUES = (4, 6, 8, 16)
_R_VALUES = (4, 8, 12, 16)
_PROCESSORS = 8


def _queueing_delay(ebw: float, processors: int, r: int) -> float:
    """Mean queueing delay via Little's law: ``n (r+2) / EBW - (r+2)``."""
    response = processors * (r + 2) / ebw
    return response - (r + 2)


def scenarios(cycles: int, seed: int):
    """The Section 6 grid three ways: the constant-service machine, the
    geometric-access machine and product-form MVA."""
    machine = mr_grid_scenario(
        "product_form",
        _M_VALUES,
        _R_VALUES,
        {
            "processors": _PROCESSORS,
            "priority": Priority.PROCESSORS,
            "buffered": True,
        },
        cycles,
        seed,
    )
    return (
        machine,
        dataclasses.replace(
            machine, name="product_form-geometric", geometric_access_times=True
        ),
        dataclasses.replace(
            machine, name="product_form-mva", method=EvaluationMethod.MVA
        ),
    )


def render(results) -> ExperimentResult:
    """Constant-vs-exponential discrepancies on the Section 6 grid."""
    measured: dict[tuple[str, str], float] = {}
    rows = []
    for constant, geometric_result, mva_result in zip(*results):
        r = constant.unit.config.memory_cycle_ratio
        row = f"m={constant.unit.config.memories} r={r}"
        rows.append(row)
        machine = constant.ebw
        geometric = geometric_result.ebw
        mva = mva_result.ebw
        exponential_ebw = min(geometric, mva)
        measured[(row, "machine")] = machine
        measured[(row, "geom-machine")] = geometric
        measured[(row, "mva")] = mva
        measured[(row, "ebw-pess%")] = 100.0 * (machine - exponential_ebw) / machine
        delay_machine = _queueing_delay(machine, _PROCESSORS, r)
        delay_exponential = _queueing_delay(exponential_ebw, _PROCESSORS, r)
        if delay_machine > 0:
            measured[(row, "delay-disc%")] = (
                100.0 * (delay_exponential - delay_machine) / delay_machine
            )
        else:
            measured[(row, "delay-disc%")] = 0.0
    return ExperimentResult(
        experiment_id="product_form",
        title="Section 6 - constant vs exponential service characterisation "
        "(buffered system, n = 8)",
        row_label="system",
        column_label="metric",
        rows=tuple(rows),
        columns=("machine", "geom-machine", "mva", "ebw-pess%", "delay-disc%"),
        measured=measured,
        notes="exponential characterisation is pessimistic everywhere; the "
        "paper's '>25% discrepancy' reproduces on the queueing-delay "
        "metric (the paper does not name its metric)",
    )


SPEC = register(
    ExperimentSpec(
        experiment_id="product_form",
        title="Product-form comparison (Section 6)",
        paper_artifact="Section 6 (>25% claim)",
        scenarios=scenarios,
        render=render,
        cycles=60_000,
    )
)
