"""Unit tests for the pluggable batch-backend layer.

Covers the registry surface (:mod:`repro.bus.backends`), the
missing-dependency diagnostics (each optional backend must fail loudly
naming its install extra - never fall back to numpy silently), the
backend/kernel validation shared by ``simulate``, ``compile_scenario``
and the ``scenario`` CLI, and the shared ``simulation-batch@1`` cache
namespace.  The numerical numpy == numba contract lives in
``tests/properties/test_backend_equivalence.py``.
"""

from __future__ import annotations

import builtins
import sys
import types

import pytest

from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError


def _block_import(monkeypatch, module: str):
    """Make ``import <module>`` raise ImportError inside the test."""
    real_import = builtins.__import__

    def blocked(name, *args, **kwargs):
        if name == module or name.startswith(module + "."):
            raise ImportError(f"{module} disabled for this test")
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", blocked)


class TestRegistry:
    def test_known_backends_resolve_to_singletons(self):
        from repro.bus.backends import KNOWN_BACKENDS, get_backend

        for name in KNOWN_BACKENDS:
            backend = get_backend(name)
            assert backend.name == name
            assert get_backend(name) is backend

    def test_unknown_backend_names_the_known_table(self):
        from repro.bus.backends import get_backend

        with pytest.raises(
            ConfigurationError, match="numpy, numba, numba-parallel$"
        ):
            get_backend("torch")

    def test_instances_pass_through(self):
        from repro.bus.backends import NumbaBackend, get_backend

        instance = NumbaBackend(jit=False)
        assert get_backend(instance) is instance

    def test_cupy_is_not_a_registered_backend(self):
        from repro.bus.backends import KNOWN_BACKENDS, get_backend

        assert "cupy" not in KNOWN_BACKENDS
        with pytest.raises(ConfigurationError, match="known backends"):
            get_backend("cupy")


class TestNumbaLoopSource:
    """Both numba backends run one loop source; only the JIT flag differs."""

    def test_parallel_backend_sets_only_name_and_flag(self):
        from repro.bus.backends import NumbaBackend, NumbaParallelBackend

        assert issubclass(NumbaParallelBackend, NumbaBackend)
        own = {
            attribute
            for attribute in vars(NumbaParallelBackend)
            if not attribute.startswith("__")
        }
        assert own == {"name", "parallel"}
        assert NumbaBackend.parallel is False
        assert NumbaParallelBackend.parallel is True
        assert NumbaParallelBackend.extra == NumbaBackend.extra

    def test_interpreted_backends_share_one_loop_source(self):
        from repro.bus.backends import NumbaBackend, NumbaParallelBackend

        serial = NumbaBackend(jit=False)._loops()
        threaded = NumbaParallelBackend(jit=False)._loops()
        assert len(serial) == 2
        assert all(a is b for a, b in zip(serial, threaded))

    @pytest.mark.parametrize(
        ("backend_name", "parallel"),
        [("numba", False), ("numba-parallel", True)],
    )
    def test_jit_compiles_the_loops_with_the_backend_flag(
        self, monkeypatch, backend_name, parallel
    ):
        """A stand-in ``numba`` records the ``njit`` options, so the
        flag routing is checked on hosts without numba."""
        from repro.bus.backends import KNOWN_BACKENDS, get_backend
        from repro.bus.backends import numba_backend

        options = []

        def njit(**kwargs):
            options.append(kwargs)
            return lambda loop: ("compiled", kwargs["parallel"], loop)

        monkeypatch.setitem(
            sys.modules, "numba", types.SimpleNamespace(njit=njit)
        )
        numba_backend._jit_loops.cache_clear()
        try:
            assert backend_name in KNOWN_BACKENDS
            compiled = type(get_backend(backend_name))(jit=True)._loops()
        finally:
            numba_backend._jit_loops.cache_clear()
        interpreted = type(get_backend(backend_name))(jit=False)._loops()
        assert [opts["parallel"] for opts in options] == [parallel]
        assert compiled == tuple(
            ("compiled", parallel, loop) for loop in interpreted
        )


class TestMissingDependencies:
    def test_missing_numba_raises_naming_batch_jit_extra(self, monkeypatch):
        from repro.bus.backends import NumbaBackend

        backend = NumbaBackend()
        _block_import(monkeypatch, "numba")
        assert not backend.available()
        with pytest.raises(
            ConfigurationError, match=r"repro-single-bus\[batch-jit\]"
        ):
            backend.require()

    def test_missing_numba_fails_the_parallel_backend_too(self, monkeypatch):
        from repro.bus.backends import NumbaParallelBackend

        backend = NumbaParallelBackend()
        _block_import(monkeypatch, "numba")
        assert not backend.available()
        with pytest.raises(
            ConfigurationError, match=r"repro-single-bus\[batch-jit\]"
        ):
            backend.require()

    def test_missing_backend_surfaces_through_simulate(self, monkeypatch):
        from repro.bus import simulate

        _block_import(monkeypatch, "numba")
        with pytest.raises(ConfigurationError, match=r"\[batch-jit\]"):
            simulate(
                SystemConfig(2, 2, 2),
                cycles=100,
                kernel="batch",
                backend="numba",
            )

    def test_interpreted_numba_backend_needs_no_numba(self, monkeypatch):
        """``NumbaBackend(jit=False)`` runs the same loops in plain
        Python - the lever the equivalence suite uses on hosts without
        numba."""
        from repro.bus.backends import NumbaBackend
        from repro.bus.batch import run_batch

        _block_import(monkeypatch, "numba")
        result = run_batch(
            SystemConfig(2, 2, 2),
            cycles=300,
            seed=3,
            backend=NumbaBackend(jit=False),
        )
        assert result.completions > 0


class TestValidation:
    def test_simulate_rejects_backend_without_batch_kernel(self):
        from repro.bus import simulate

        for kernel, message in (
            ("fast", "requires kernel='batch'"),
            ("reference", "unknown simulation kernel .*MultiplexedBusSystem"),
        ):
            with pytest.raises(ConfigurationError, match=message):
                simulate(
                    SystemConfig(2, 2, 2),
                    cycles=100,
                    kernel=kernel,
                    backend="numba",
                )

    def test_simulate_rejects_unknown_backend_name(self):
        from repro.bus import simulate

        with pytest.raises(ConfigurationError, match="known backends"):
            simulate(
                SystemConfig(2, 2, 2),
                cycles=100,
                kernel="batch",
                backend="torch",
            )


class TestCheckBackend:
    """``check_backend(kernel, backend)``: the one compile-time check."""

    @pytest.mark.parametrize("backend", ["numpy", "numba", "numba-parallel"])
    def test_known_backends_pass_on_the_batch_kernel(self, backend):
        from repro.bus.backends import check_backend

        # Availability is a later, separate check: validation passes
        # whether or not the substrate is installed.
        check_backend("batch", backend)

    def test_default_backend_passes_on_every_kernel(self):
        from repro.bus import KNOWN_KERNELS
        from repro.bus.backends import DEFAULT_BACKEND, check_backend

        for kernel in KNOWN_KERNELS:
            check_backend(kernel, DEFAULT_BACKEND)

    @pytest.mark.parametrize("backend", ["numba", "numba-parallel"])
    @pytest.mark.parametrize("kernel", ["reference", "fast"])
    def test_other_backends_require_the_batch_kernel(self, kernel, backend):
        from repro.bus.backends import check_backend

        with pytest.raises(
            ConfigurationError,
            match=f"backend='{backend}' .* got kernel='{kernel}'",
        ):
            check_backend(kernel, backend)

    def test_unknown_backend_names_the_known_table(self):
        from repro.bus.backends import check_backend

        with pytest.raises(
            ConfigurationError, match="numpy, numba, numba-parallel$"
        ):
            check_backend("batch", "cupy")


class TestScenarioCompiler:
    def _spec(self, metrics=()):
        from repro.scenarios.spec import (
            GridAxis,
            ReplicationPlan,
            ScenarioSpec,
        )

        return ScenarioSpec(
            name="backend-unit",
            description="",
            base={"processors": 2, "memories": 2},
            grid=(GridAxis("memory_cycle_ratio", (2,)),),
            cycles=200,
            plan=ReplicationPlan(2, 0),
            metrics=metrics,
        )

    def test_units_carry_backend_and_shared_token(self):
        from repro.scenarios.compiler import compile_scenario

        numba_units = compile_scenario(
            self._spec(), kernel="batch", backend="numba"
        )
        numpy_units = compile_scenario(self._spec(), kernel="batch")
        assert all(unit.backend == "numba" for unit in numba_units)
        # Bit-identical backends share cache identity: payloads match
        # byte-for-byte, so a numba run is served from numpy entries.
        for numba_unit, numpy_unit in zip(numba_units, numpy_units):
            assert numba_unit.payload() == numpy_unit.payload()
            assert numba_unit.payload()["engine"] == "simulation-batch@1"
        # numba-parallel is in the same bit-identical family: a
        # threaded run is served from (and feeds) the same entries.
        parallel_units = compile_scenario(
            self._spec(), kernel="batch", backend="numba-parallel"
        )
        for parallel_unit, numpy_unit in zip(parallel_units, numpy_units):
            assert parallel_unit.payload() == numpy_unit.payload()

    def test_unknown_backend_rejected_at_compile_time(self):
        from repro.scenarios.compiler import compile_scenario

        with pytest.raises(
            ConfigurationError, match="numpy, numba, numba-parallel$"
        ):
            compile_scenario(self._spec(), kernel="batch", backend="mlx")

    def test_backend_requires_batch_kernel(self):
        from repro.scenarios.compiler import compile_scenario

        with pytest.raises(
            ConfigurationError, match="requires kernel='batch'"
        ):
            compile_scenario(self._spec(), kernel="fast", backend="numba")


class TestFleetGrouping:
    def test_pack_key_separates_backends(self):
        from repro.engine.base import EvalRequest
        from repro.parallel.fleet import pack_fleets, pack_key

        config = SystemConfig(2, 2, 2)
        numpy_request = EvalRequest(config, cycles=500, kernel="batch")
        numba_request = EvalRequest(
            config, cycles=500, kernel="batch", backend="numba"
        )
        assert pack_key(numpy_request) != pack_key(numba_request)
        groups = pack_fleets([numpy_request, numba_request, numpy_request])
        assert groups == [[0, 2], [1]]

    def test_pack_key_separates_latency_collection(self):
        from repro.engine.base import EvalRequest
        from repro.parallel.fleet import pack_fleets

        config = SystemConfig(2, 2, 2)
        plain = EvalRequest(config, cycles=500, kernel="batch")
        latency = EvalRequest(
            config, cycles=500, metrics=("latency",), kernel="batch"
        )
        assert pack_fleets([plain, latency, plain]) == [[0, 2], [1]]


class TestCli:
    def test_backend_flag_requires_batch_kernel(self, capsys):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", "figure2", "--backend", "numba"])
        assert excinfo.value.code == 2
        assert "--backend requires --kernel batch" in capsys.readouterr().err

    def test_unknown_backend_rejected_by_argparse(self, capsys):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "scenario",
                    "figure2",
                    "--kernel",
                    "batch",
                    "--backend",
                    "torch",
                ]
            )
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "workers", [[], ["--workers", "2"]], ids=["scenario", "scenario-workers"]
    )
    def test_backend_choices_are_the_known_table(self, workers, capsys):
        from repro.bus.backends import KNOWN_BACKENDS
        from repro.experiments.runner import main

        argv = ["figure2", *workers, "--kernel", "batch", "--backend", "cupy"]
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", *argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        for name in KNOWN_BACKENDS:
            assert name in err
