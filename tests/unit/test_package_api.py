"""The public API surface: imports, exports, and the one-call entry point."""

from __future__ import annotations

import importlib
import json
import subprocess
import sys

import pytest

import repro
from repro import Priority, SystemConfig, simulate

LAZY_EXPORTS = {
    "repro": ("repro.bus", "repro.bus.system", "repro.core"),
    "repro.bus": (
        "repro.bus.arbiter",
        "repro.bus.memory",
        "repro.bus.processor",
        "repro.bus.system",
        "repro.bus.trace",
    ),
    "repro.des": (
        "repro.des.engine",
        "repro.des.events",
        "repro.des.processes",
        "repro.des.replications",
        "repro.des.rng",
        "repro.des.stats",
    ),
    "repro.experiments": ("repro.experiments.registry",),
    "repro.metrics": (
        "repro.metrics.quantiles",
        "repro.metrics.sketch",
        "repro.metrics.summary",
        "repro.metrics.tracker",
    ),
    "repro.parallel": (
        "repro.parallel.cache",
        "repro.parallel.fleet",
        "repro.parallel.workers",
    ),
    "repro.workloads": (
        "repro.workloads.generators",
        "repro.workloads.spec",
        "repro.workloads.trace",
    ),
}
"""Each package whose re-exports load on first use, and the modules
those re-exports live in."""


def fresh_interpreter(script: str, *args: str) -> str:
    """Run ``script`` in a new interpreter; its stdout."""
    completed = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackages_import(self):
        import repro.analysis
        import repro.bus
        import repro.core
        import repro.des
        import repro.experiments
        import repro.markov
        import repro.models
        import repro.queueing
        import repro.workloads

        for module in (
            repro.analysis,
            repro.bus,
            repro.core,
            repro.des,
            repro.experiments,
            repro.markov,
            repro.models,
            repro.queueing,
            repro.workloads,
        ):
            assert module.__doc__, f"{module.__name__} lacks a docstring"

    def test_subpackage_alls_resolve(self):
        import repro.analysis
        import repro.bus
        import repro.des
        import repro.markov
        import repro.models
        import repro.queueing
        import repro.workloads

        for module in (
            repro.analysis,
            repro.bus,
            repro.des,
            repro.markov,
            repro.models,
            repro.queueing,
            repro.workloads,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"


@pytest.mark.parametrize("name", sorted(LAZY_EXPORTS))
class TestLazyExports:
    def test_every_export_resolves(self, name):
        package = importlib.import_module(name)
        for export in package.__all__:
            assert hasattr(package, export), f"{name}.{export}"
            assert export in dir(package)

    def test_star_import_binds_every_export(self, name):
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        package = importlib.import_module(name)
        for export in package.__all__:
            assert namespace[export] is getattr(package, export)

    def test_unknown_attribute_raises(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match="no_such_export"):
            package.no_such_export
        assert not hasattr(package, "no_such_export")

    def test_importing_the_package_loads_no_export(self, name):
        script = (
            "import importlib, json, sys\n"
            "importlib.import_module(sys.argv[1])\n"
            "print(json.dumps(sorted(sys.modules)))"
        )
        loaded = set(json.loads(fresh_interpreter(script, name)))
        assert [m for m in LAZY_EXPORTS[name] if m in loaded] == []


class TestQuickStart:
    def test_package_docstring_quick_start_runs(self):
        """The quick start of the ``repro`` docstring, shortened."""
        script = (
            "from repro import SystemConfig, Priority, simulate\n"
            "config = SystemConfig(processors=8, memories=16, "
            "memory_cycle_ratio=8, priority=Priority.PROCESSORS)\n"
            "print(simulate(config, cycles=2_000, seed=1).summary())"
        )
        expected = simulate(
            SystemConfig(8, 16, 8, priority=Priority.PROCESSORS),
            cycles=2_000,
            seed=1,
        ).summary()
        assert fresh_interpreter(script) == f"{expected}\n"


class TestSimulateEntryPoint:
    def test_minimal_call(self):
        result = simulate(SystemConfig(2, 2, 2), cycles=2_000, seed=1)
        assert result.completions > 0
        assert result.config.processors == 2

    def test_custom_targets(self):
        from repro.workloads import TraceTargets

        targets = TraceTargets([[0], [1]], modules=2)
        result = simulate(
            SystemConfig(2, 2, 2), cycles=2_000, seed=1, targets=targets
        )
        assert result.completions > 0

    def test_explicit_warmup(self):
        result = simulate(SystemConfig(2, 2, 2), cycles=1_000, seed=1, warmup=0)
        assert result.warmup_cycles == 0

    def test_priority_enum_round_trip(self):
        assert str(Priority.PROCESSORS) == "processors"
        assert str(Priority.MEMORIES) == "memories"

    def test_doctest_of_simulate(self):
        # The facade docstring example must stay true.
        result = simulate(SystemConfig(2, 2, 2), cycles=2_000, seed=1)
        assert 0.0 < result.ebw <= result.config.max_ebw


class TestConsoleScript:
    def test_entry_point_declared(self):
        import importlib.metadata as md

        try:
            distribution = md.distribution("repro-single-bus")
        except md.PackageNotFoundError:
            pytest.skip(
                "repro-single-bus is not installed as a distribution "
                "(running from a source checkout via PYTHONPATH); "
                "CI installs the package with 'pip install -e .' and "
                "runs this assertion for real"
            )
        scripts = (distribution.entry_points or md.entry_points()).select(
            group="console_scripts"
        )
        names = {ep.name for ep in scripts}
        assert "repro-experiments" in names

    def test_runner_module_invocable(self):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro.experiments"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0
        assert "table1" in completed.stdout


class TestDoctests:
    def test_engine_doctest(self):
        import doctest

        import repro.des.engine as engine_module

        failures, _ = doctest.testmod(engine_module, verbose=False)
        assert failures == 0

    def test_stats_doctest(self):
        import doctest

        import repro.des.stats as stats_module

        failures, _ = doctest.testmod(stats_module, verbose=False)
        assert failures == 0

    def test_rng_doctest(self):
        import doctest

        import repro.des.rng as rng_module

        failures, _ = doctest.testmod(rng_module, verbose=False)
        assert failures == 0
