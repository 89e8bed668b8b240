"""Unit tests for the ``repro-experiments scenario`` subcommand."""

from __future__ import annotations

import errno
import os
import textwrap

import pytest

from repro.experiments.runner import main
from repro.scenarios.execute import merge_reports

TINY_TOML = textwrap.dedent(
    """
    name = "cli-tiny"
    cycles = 300

    [base]
    processors = 2
    memories = 2

    [[grid]]
    field = "memory_cycle_ratio"
    values = [1, 2]

    [[grid]]
    field = "buffered"
    values = [false, true]

    [replications]
    count = 2
    base_seed = 5
    """
)


@pytest.fixture
def tiny_toml(tmp_path):
    path = tmp_path / "tiny.toml"
    path.write_text(TINY_TOML)
    return str(path)


class TestListing:
    def test_bare_subcommand_lists_scenarios(self, capsys):
        assert main(["scenario"]) == 0
        out = capsys.readouterr().out
        assert "available scenarios" in out
        assert "figure2" in out
        assert "buffer-depth-scaling" in out


class TestRunning:
    def test_stdout_is_unit_lines_only(self, tiny_toml, capsys):
        assert main(["scenario", tiny_toml, "--no-cache"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 8
        assert all(line.startswith("unit ") for line in lines)
        assert "units" in captured.err

    def test_registered_scenario_runs(self, capsys):
        assert (
            main(
                [
                    "scenario",
                    "buffer-depth-scaling",
                    "--cycles",
                    "200",
                    "--no-cache",
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 12

    def test_default_kernel_prints_the_fast_bytes(self, capsys):
        argv = ["scenario", "buffer-depth-scaling", "--cycles", "200",
                "--no-cache"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main([*argv, "--fast"]) == 0
        assert capsys.readouterr().out == default

    def test_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["scenario", "figure9"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_shard_fails_cleanly(self, tiny_toml, capsys):
        assert main(["scenario", tiny_toml, "--shard", "9/4"]) == 2
        assert "shard" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--workers", "0"], "--workers must be a positive integer"),
            (["--workers", "2", "--lease-size", "0"],
             "--lease-size must be a positive integer"),
            (["--lease-size", "2"], "--lease-size requires --workers"),
            (["--kernel", "reference"], "invalid choice: 'reference'"),
        ],
        ids=["zero-workers", "zero-lease-size", "lease-size-without-workers",
             "retired-reference-kernel"],
    )
    def test_bad_worker_flags_fail_cleanly(
        self, tiny_toml, capsys, flags, message
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", tiny_toml, "--no-cache", *flags])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err


class TestShardMerge:
    def test_merged_shard_stdout_equals_unsharded(self, tiny_toml, capsys):
        assert main(["scenario", tiny_toml, "--no-cache"]) == 0
        full = capsys.readouterr().out
        reports = []
        for index in (1, 2, 3):
            assert (
                main(
                    ["scenario", tiny_toml, "--no-cache", "--shard", f"{index}/3"]
                )
                == 0
            )
            reports.append(capsys.readouterr().out)
        assert merge_reports(reports) + "\n" == full

    def test_seed_override_changes_units(self, tiny_toml, capsys):
        assert main(["scenario", tiny_toml, "--no-cache"]) == 0
        default = capsys.readouterr().out
        assert main(["scenario", tiny_toml, "--no-cache", "--seed", "99"]) == 0
        reseeded = capsys.readouterr().out
        assert default != reseeded
        assert "seed=99" in reseeded


class TestCaching:
    def test_cache_serves_identical_bytes(self, tiny_toml, capsys):
        assert main(["scenario", tiny_toml]) == 0
        cold = capsys.readouterr()
        assert main(["scenario", tiny_toml]) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "8 from cache" in warm.err

    def test_cache_stats_flag_reports_on_stderr(
        self, tiny_toml, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["scenario", tiny_toml, "--cache-stats"]) == 0
        cold = capsys.readouterr()
        assert "[cache-stats " in cold.err
        assert "misses=8" in cold.err
        assert main(["scenario", tiny_toml, "--cache-stats"]) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out  # stdout stays byte-identical
        assert "hits=8" in warm.err

    def test_cache_stats_with_disabled_cache_says_so(self, tiny_toml, capsys):
        assert main(
            ["scenario", tiny_toml, "--no-cache", "--cache-stats"]
        ) == 0
        assert "[cache-stats disabled]" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", [[], ["--workers", "2"]])
    def test_full_disk_is_counted_and_reported_once(
        self, tiny_toml, capsys, tmp_path, monkeypatch, workers
    ):
        """Every cache write fails with ENOSPC; the run still succeeds,
        warns once on stderr, and --cache-stats shows the count.  Forked
        workers inherit the patched ``os.replace``."""
        assert main(["scenario", tiny_toml, "--no-cache"]) == 0
        expected = capsys.readouterr().out
        store = tmp_path / "full"
        real_replace = os.replace

        def full_disk(source, target):
            if str(source).endswith(".tmp"):
                raise OSError(errno.ENOSPC, "No space left on device")
            real_replace(source, target)

        monkeypatch.setattr(os, "replace", full_disk)
        argv = ["scenario", tiny_toml, "--cache-dir", str(store)]
        assert main(argv + workers + ["--cache-stats"]) == 0
        run = capsys.readouterr()
        assert run.out == expected
        assert run.err.count("could not be stored") == 1
        assert "warning: 8 result(s) could not be stored" in run.err
        assert "put_errors=8]" in run.err
        assert list(store.rglob("*.json")) == []
        assert list(store.rglob("*.tmp")) == []

    def test_cache_stats_with_workers_reports_probe_and_dispatch(
        self, tiny_toml, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["scenario", tiny_toml]) == 0
        serial = capsys.readouterr()
        assert main(
            ["scenario", tiny_toml, "--workers", "2", "--cache-stats"]
        ) == 0
        warm = capsys.readouterr()
        assert warm.out == serial.out
        assert "probe_hits=8" in warm.err
        assert "dispatched=0" in warm.err


GOLDEN_TINY_FIRST_LINE = (
    "unit 000000 n=2 m=2 r=1 p=1 priority=processors unbuffered tie=random "
    "workload=uniform method=simulation seed=5 cycles=300 ebw=1.320000 "
    "putil=0.660000 butil=0.880000"
)
"""Pre-metrics stdout of ``tiny.toml``'s first unit, captured before the
latency pipeline existed.  Guards the acceptance criterion that scenario
output without ``--metrics`` stays byte-identical."""


class TestLatencyMetricsFlag:
    def test_no_metrics_output_matches_pre_metrics_bytes(self, tiny_toml, capsys):
        assert main(["scenario", tiny_toml, "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == GOLDEN_TINY_FIRST_LINE
        assert "lat_" not in out

    def test_metrics_flag_appends_percentile_columns(self, tiny_toml, capsys):
        assert (
            main(["scenario", tiny_toml, "--no-cache", "--metrics", "latency"])
            == 0
        )
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8
        for line in lines:
            # The pre-metrics prefix is unchanged; percentile columns
            # are appended after it.
            assert " lat_count=" in line
            for column in (
                "wait_mean=", "wait_p50=", "wait_p90=", "wait_p99=",
                "wait_max=", "serv_mean=", "serv_p50=", "serv_p90=",
                "serv_p99=", "serv_max=", "lat_mean=", "lat_p50=",
                "lat_p90=", "lat_p99=", "lat_max=",
            ):
                assert column in line
        assert lines[0].startswith(GOLDEN_TINY_FIRST_LINE + " lat_count=")

    def test_metrics_rejected_for_analytic_scenarios(self, capsys):
        assert (
            main(
                [
                    "scenario",
                    "bandwidth-vs-simulation",
                    "--no-cache",
                    "--metrics",
                    "latency",
                ]
            )
            == 2
        )
        assert "analytic" in capsys.readouterr().err

    def test_unknown_metric_rejected(self, tiny_toml, capsys):
        assert (
            main(["scenario", tiny_toml, "--no-cache", "--metrics", "power"])
            == 2
        )
        assert "unknown metric" in capsys.readouterr().err

    def test_metric_and_plain_runs_share_no_cache_entries(
        self, tiny_toml, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["scenario", tiny_toml]) == 0
        plain_cold = capsys.readouterr().out
        # A metric run after a plain run must not be served from the
        # plain entries (they carry no latency payloads)...
        assert main(["scenario", tiny_toml, "--metrics", "latency"]) == 0
        metric_cold = capsys.readouterr()
        assert "0 from cache" in metric_cold.err
        # ...and both warm reruns serve their own entries byte-identically.
        assert main(["scenario", tiny_toml]) == 0
        plain_warm = capsys.readouterr()
        assert plain_warm.out == plain_cold
        assert "8 from cache" in plain_warm.err
        assert main(["scenario", tiny_toml, "--metrics", "latency"]) == 0
        metric_warm = capsys.readouterr()
        assert metric_warm.out == metric_cold.out
        assert "8 from cache" in metric_warm.err

    def test_sharded_metric_output_merges_byte_identically(
        self, tiny_toml, capsys
    ):
        assert (
            main(["scenario", tiny_toml, "--no-cache", "--metrics", "latency"])
            == 0
        )
        full = capsys.readouterr().out
        reports = []
        for index in (1, 2, 3):
            assert (
                main(
                    [
                        "scenario",
                        tiny_toml,
                        "--no-cache",
                        "--metrics",
                        "latency",
                        "--shard",
                        f"{index}/3",
                    ]
                )
                == 0
            )
            reports.append(capsys.readouterr().out)
        assert merge_reports(reports) + "\n" == full


class TestBatchKernelCli:
    def test_batch_kernel_runs_and_is_shard_stable(self, tiny_toml, capsys):
        assert main(["scenario", tiny_toml, "--kernel", "batch",
                     "--no-cache"]) == 0
        unsharded = capsys.readouterr().out
        assert unsharded.count("\n") == 8
        shard_outputs = []
        for shard in ("1/2", "2/2"):
            assert main([
                "scenario", tiny_toml, "--kernel", "batch", "--no-cache",
                "--shard", shard,
            ]) == 0
            shard_outputs.append(capsys.readouterr().out)
        assert merge_reports(shard_outputs) + "\n" == unsharded

    def test_batch_kernel_renders_latency_percentiles(
        self, tiny_toml, capsys
    ):
        assert main(["scenario", tiny_toml, "--kernel", "batch",
                     "--metrics", "latency", "--no-cache"]) == 0
        out = capsys.readouterr().out
        for column in ("lat_count=", "wait_p90=", "lat_p50=", "lat_p99="):
            assert column in out

    def test_backend_is_not_an_option(self, tiny_toml, capsys):
        """The batch kernel runs on numpy only; its substrate lever is
        gone."""
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", tiny_toml, "--kernel", "batch", "--backend",
                  "numpy"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--pack", "--no-pack"])
    def test_pack_flags_are_not_options(self, flag, tiny_toml, capsys):
        """Packing is the only fleet grouping; its A/B lever is gone."""
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", tiny_toml, "--kernel", "batch", flag])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestChartFlag:
    def test_chart_goes_to_stderr_and_stdout_is_unchanged(
        self, tiny_toml, capsys
    ):
        assert main(["scenario", tiny_toml, "--no-cache"]) == 0
        plain = capsys.readouterr().out
        assert main(["scenario", tiny_toml, "--no-cache", "--metrics",
                     "latency", "--chart"]) == 0
        captured = capsys.readouterr()
        assert "lat_p50" in captured.err and "legend:" in captured.err
        assert "lat_p50" not in plain

    def test_chart_without_latency_warns(self, tiny_toml, capsys):
        assert main(["scenario", tiny_toml, "--no-cache", "--chart"]) == 0
        captured = capsys.readouterr()
        assert "warning: no chart" in captured.err
        assert "legend:" not in captured.err


def test_fast_conflicts_with_kernel_batch(tiny_toml, capsys):
    with pytest.raises(SystemExit):
        main(["scenario", tiny_toml, "--kernel", "batch", "--fast"])
    assert "conflicts" in capsys.readouterr().err
