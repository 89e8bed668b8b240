"""Runner-level tests: the per-unit cache, --workers and the spec wire."""

from __future__ import annotations

import errno
import os

import pytest

from repro.experiments.formatting import format_result
from repro.experiments.registry import all_experiments
from repro.experiments.runner import main, run_experiments
from repro.parallel.cache import ResultCache


@pytest.fixture
def cache(tmp_path):
    return ResultCache(cache_dir=tmp_path / "cache", version_tag="test")


class TestRunnerCache:
    """``all`` and ``scenario`` share one store: one entry per unit."""

    def test_cold_then_cached_results_identical(self, cache):
        cold = run_experiments(["table1"], cache=cache)
        assert cache.stats.stores == 16
        warm = run_experiments(["table1"], cache=cache)
        assert warm == cold
        assert cache.stats.hits == 16

    def test_cache_shared_between_serial_and_workers(self, cache):
        serial = run_experiments(["table1"], cache=cache)
        telemetry: dict = {}
        served = run_experiments(
            ["table1"], cache=cache, workers=2, telemetry=telemetry
        )
        assert served == serial
        assert telemetry["from_cache"] == 16
        assert telemetry["dispatched"] == 0

    def test_analytic_units_ignore_cycles(self, cache):
        # table3b is a deterministic model: its unit keys exclude the
        # cycle count, so --fast hits the entries a full run stored.
        run_experiments(["table3b"], cache=cache)
        run_experiments(["table3b"], cycles=6_000, cache=cache)
        assert cache.stats.stores == 42
        assert cache.stats.hits == 42

    def test_scenario_run_warms_the_experiment(self, capsys, tmp_path):
        # A scenario run at --fast's cycles and the paper seed stores
        # exactly the units table4 --fast declares.
        store = str(tmp_path / "shared")
        argv = ["--cycles", "6000", "--seed", "1985", "--cache-dir", store]
        assert main(["scenario", "table4", *argv]) == 0
        capsys.readouterr()
        telemetry: dict = {}
        run_experiments(
            ["table4"],
            cycles=6_000,
            cache=ResultCache(cache_dir=store),
            telemetry=telemetry,
        )
        assert telemetry == {"units": 70, "from_cache": 70}

    def test_corrupted_cache_entry_recomputes(self, cache):
        cold = run_experiments(["table1"], cache=cache)
        for path in cache.cache_dir.rglob("*.json"):
            path.write_text("corrupted!", encoding="utf-8")
        again = run_experiments(["table1"], cache=cache)
        assert again == cold
        assert cache.stats.evictions >= 1

    def test_uncached_run_stores_nothing(self, tmp_path):
        run_experiments(["table1"], cache=None)
        assert not list(tmp_path.rglob("*.json"))

    def test_cache_write_failure_does_not_block_run(
        self, cache, monkeypatch, capsys
    ):
        real_replace = os.replace

        def full_disk(source, target):
            if str(source).endswith(".tmp"):
                raise OSError(errno.ENOSPC, "No space left on device")
            real_replace(source, target)

        monkeypatch.setattr(os, "replace", full_disk)
        (result,) = run_experiments(["table1"], cache=cache)
        assert "Table 1" in format_result(result)
        assert cache.stats.put_errors == 16
        assert (
            "16 result(s) could not be stored in the cache"
            in capsys.readouterr().err
        )


class TestDeclaredSpecs:
    def test_every_declared_spec_crosses_the_wire(self):
        """A worker rebuilds each spec from ``hello``; its ``ready``
        check compares only unit counts, so a field lost on the wire
        would change bytes silently."""
        from repro.service.protocol import spec_from_wire, spec_to_mapping

        geometric = 0
        for experiment in all_experiments():
            for cycles in (experiment.cycles, 6_000):
                for spec in experiment.scenarios(cycles, 1985):
                    assert spec_from_wire(spec_to_mapping(spec)) == spec
                    geometric += spec.geometric_access_times
        assert geometric == 2  # product_form, at both lengths


class TestMainFlags:
    def test_workers_flag_byte_identical_output(self, capsys):
        assert main(["table1", "figure3", "--fast", "--no-cache"]) == 0
        serial_out = capsys.readouterr().out
        argv = ["table1", "figure3", "--fast", "--workers", "2", "--no-cache"]
        assert main(argv) == 0
        assert capsys.readouterr().out == serial_out

    def test_cache_dir_flag(self, capsys, tmp_path):
        target = tmp_path / "explicit"
        assert main(["table1", "--cache-dir", str(target)]) == 0
        capsys.readouterr()
        assert len(list(target.rglob("*.json"))) == 16

    def test_cached_rerun_identical_stdout(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c2"))
        assert main(["table1"]) == 0
        cold = capsys.readouterr().out
        assert main(["table1"]) == 0
        warm = capsys.readouterr()
        assert warm.out == cold
        assert "16 units in" in warm.err and "16 from cache]" in warm.err

    def test_rejects_nonpositive_workers(self, capsys):
        with pytest.raises(SystemExit):
            main(["table1", "--workers", "0"])
        assert "--workers must be a positive integer" in capsys.readouterr().err

    def test_unknown_experiment_is_a_one_line_error(self, capsys):
        assert main(["table99", "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown experiment 'table99'")
        assert "Traceback" not in err

    def test_jobs_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["table1", "--jobs", "2"])
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    def test_timings_go_to_stderr_not_stdout(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c3"))
        assert main(["table1"]) == 0
        captured = capsys.readouterr()
        assert "[1 experiment: 16 units in" in captured.err
        assert "units in" not in captured.out


class TestCacheSubcommand:
    def test_sweep_removes_orphans_keeps_entries(self, capsys, tmp_path):
        store = ResultCache(cache_dir=tmp_path)
        path = store.put("deadbeef", {"v": 1})
        (path.parent / ".stale.json.123.ab.tmp").write_text("junk")
        (tmp_path / ".flat.json.99.cd.tmp").write_text("junk")
        assert main(["cache", "sweep", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "swept 2 orphaned tmp files" in out
        assert "1 entry kept" in out
        # The entry itself was never touched.
        assert ResultCache(cache_dir=tmp_path).get("deadbeef") == {"v": 1}
        assert not list(tmp_path.rglob("*.tmp"))

    def test_sweep_reports_size_and_empty_store(self, capsys, tmp_path):
        assert main(["cache", "sweep", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "swept 0 orphaned tmp files" in out
        assert "0 entries kept, 0 bytes" in out

    def test_sweep_rejects_unknown_action(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache", "clear", "--cache-dir", str(tmp_path)])

    def test_sweep_bad_cache_dir_is_a_clean_error(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        assert (
            main(["cache", "sweep", "--cache-dir", str(blocker / "sub")]) == 2
        )
        assert "error:" in capsys.readouterr().err
