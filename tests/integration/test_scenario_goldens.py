"""Golden-output pin: every registered scenario through the engine layer.

Runs every scenario in the registry - every evaluation method, workload
and metric family the declarative layer exposes - in ``--fast`` mode
(fast kernel, reduced cycles, no cache) and asserts the rendered report
matches ``tests/golden/scenario_goldens.txt`` byte for byte.  The
simulation-method scenarios run again under ``kernel="batch"`` against
``tests/golden/scenario_goldens_batch.txt``: batch bytes are not the
exact tier's, but they must not move between versions either.  This is
the guard rail for the engine refactor and every future one: any change
that perturbs dispatch, kernels, caching glue or report rendering shows
up as a golden diff.

Regenerate after an *intentional* output change with::

    REPRO_REGENERATE_GOLDENS=1 python -m pytest \
        tests/integration/test_scenario_goldens.py -q

and commit the updated golden files alongside the change.  The same
variable regenerates ``tests/golden/unit_payloads.txt``, the pin on
every registered scenario's cache keys.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pathlib

import pytest

GOLDEN_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "golden"
    / "scenario_goldens.txt"
)
GOLDEN_PATHS = {
    "fast": GOLDEN_PATH,
    "batch": GOLDEN_PATH.with_name("scenario_goldens_batch.txt"),
}
PAYLOAD_GOLDEN_PATH = GOLDEN_PATH.with_name("unit_payloads.txt")
GOLDEN_CYCLES = 1_200
"""Cycles per unit: small enough for CI, long enough to exercise
warm-up, batching and the latency pipeline."""

_HEADER = "== "


def generate_report(kernel: str = "fast") -> str:
    """One deterministic text block per registered scenario; the batch
    kernel covers the simulation-method scenarios only (the analytic
    ones do not depend on the kernel)."""
    from repro.engine.base import EvaluationMethod
    from repro.scenarios.execute import render_report, run_scenario
    from repro.scenarios.registry import all_scenarios

    blocks = []
    for spec in all_scenarios():
        if kernel == "batch" and spec.method is not EvaluationMethod.SIMULATION:
            continue
        runnable = dataclasses.replace(spec, cycles=GOLDEN_CYCLES)
        report = render_report(run_scenario(runnable, kernel=kernel))
        blocks.append(f"{_HEADER}{spec.name} cycles={GOLDEN_CYCLES}\n{report}")
    return "\n".join(blocks) + "\n"


@pytest.mark.parametrize("kernel", sorted(GOLDEN_PATHS))
def test_all_registered_scenarios_match_golden(kernel):
    golden = GOLDEN_PATHS[kernel]
    actual = generate_report(kernel)
    if os.environ.get("REPRO_REGENERATE_GOLDENS"):
        golden.parent.mkdir(parents=True, exist_ok=True)
        golden.write_text(actual, encoding="utf-8")
    expected = golden.read_text(encoding="utf-8")
    if actual != expected:
        actual_blocks = {
            block.splitlines()[0]: block
            for block in actual.split(_HEADER)
            if block
        }
        expected_blocks = {
            block.splitlines()[0]: block
            for block in expected.split(_HEADER)
            if block
        }
        changed = sorted(
            name
            for name in set(actual_blocks) | set(expected_blocks)
            if actual_blocks.get(name) != expected_blocks.get(name)
        )
        raise AssertionError(
            f"scenario reports diverge from tests/golden/{golden.name} "
            f"for: {', '.join(changed)}; if the change is intentional, "
            "regenerate with REPRO_REGENERATE_GOLDENS=1 (see module docstring)"
        )


def generate_payload_digests() -> str:
    """One line per registered scenario and kernel: the unit count and
    the sha256 over the compiled units' payload fingerprints, in unit
    order."""
    from repro.parallel.cache import fingerprint
    from repro.scenarios.compiler import compile_scenario
    from repro.scenarios.registry import all_scenarios

    lines = []
    for spec in all_scenarios():
        for kernel in ("fast", "batch"):
            units = compile_scenario(spec, kernel=kernel)
            digest = hashlib.sha256()
            for unit in units:
                digest.update(f"{fingerprint(unit.payload())}\n".encode())
            lines.append(
                f"{spec.name} {kernel} {len(units)} {digest.hexdigest()}"
            )
    return "\n".join(lines) + "\n"


def test_all_registered_unit_payloads_match_golden():
    """Every registered scenario's cache keys, under both kernels, match
    ``tests/golden/unit_payloads.txt``.  Renaming, dropping or
    re-encoding a payload field fails here even when no printed byte
    moves, because it would orphan every stored result."""
    actual = generate_payload_digests()
    if os.environ.get("REPRO_REGENERATE_GOLDENS"):
        PAYLOAD_GOLDEN_PATH.write_text(actual, encoding="utf-8")
    expected = PAYLOAD_GOLDEN_PATH.read_text(encoding="utf-8")
    changed = sorted(
        set(actual.splitlines()) ^ set(expected.splitlines())
    )
    assert actual == expected, (
        "unit payloads diverge from tests/golden/unit_payloads.txt: "
        + "; ".join(changed)
    )


def test_fast_and_reference_kernels_share_report_bytes(
    monkeypatch, run_on_reference_machine
):
    """Spot-check the kernel contract at the report level (one scenario):
    the same units run on the reference machine render the same bytes."""
    from repro.parallel import workers
    from repro.scenarios.execute import render_report, run_scenario
    from repro.scenarios.registry import get_scenario

    spec = dataclasses.replace(get_scenario("hot_spot"), cycles=400)
    fast = render_report(run_scenario(spec, kernel="fast"))
    monkeypatch.setattr(workers, "run_case", run_on_reference_machine)
    reference = render_report(run_scenario(spec))
    assert fast == reference
