"""Unit tests for the scenario compiler, sharding, and unit execution."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError
from repro.parallel.cache import ResultCache, fingerprint
from repro.scenarios.compiler import (
    compile_scenario,
    merge_units,
    parse_shard,
    shard_units,
)
from repro.scenarios.execute import (
    evaluate_unit,
    merge_reports,
    render_report,
    run_units,
)
from repro.scenarios.spec import (
    EvaluationMethod,
    GridAxis,
    ReplicationPlan,
    ScenarioSpec,
)


def tiny_spec(cycles: int = 300, replications: int = 2) -> ScenarioSpec:
    return ScenarioSpec(
        name="tiny",
        base={"processors": 2, "memories": 2},
        grid=(
            GridAxis("memory_cycle_ratio", (1, 2)),
            GridAxis("buffered", (False, True)),
        ),
        cycles=cycles,
        plan=ReplicationPlan(replications, 5),
    )


class TestCompile:
    def test_deterministic_and_densely_indexed(self):
        first = compile_scenario(tiny_spec())
        second = compile_scenario(tiny_spec())
        assert first == second
        assert [unit.index for unit in first] == list(range(8))

    def test_replication_seeds_vary_fastest(self):
        units = compile_scenario(tiny_spec())
        assert [unit.seed for unit in units[:4]] == [5, 6, 5, 6]
        assert units[0].config == units[1].config

    def test_request_carries_every_execution_field(self):
        """``WorkUnit.request()`` is the one record the kernels see, so
        the kernel choice must reach it."""
        spec = ScenarioSpec(
            name="tiny-latency",
            base={"processors": 2, "memories": 2, "memory_cycle_ratio": 2},
            cycles=300,
            warmup=40,
            plan=ReplicationPlan(2, 5),
            metrics=("latency",),
        )
        for unit in compile_scenario(spec, kernel="batch"):
            request = unit.request()
            assert (
                request.config,
                request.workload,
                request.cycles,
                request.warmup,
                request.seed,
                request.metrics,
                request.kernel,
            ) == (
                unit.config,
                unit.workload,
                300,
                40,
                unit.seed,
                ("latency",),
                "batch",
            )
            assert request.collects_latency

    def test_payload_excludes_position_and_name(self):
        units = compile_scenario(tiny_spec())
        renamed = compile_scenario(
            ScenarioSpec(
                name="other-name",
                base={"processors": 2, "memories": 2},
                grid=(
                    GridAxis("memory_cycle_ratio", (1, 2)),
                    GridAxis("buffered", (False, True)),
                ),
                cycles=300,
                plan=ReplicationPlan(2, 5),
            )
        )
        for a, b in zip(units, renamed):
            assert fingerprint(a.payload()) == fingerprint(b.payload())

    def test_analytic_payload_ignores_seed_and_cycles(self):
        def markov_spec(cycles):
            return ScenarioSpec(
                name="markov",
                base={"processors": 2, "memories": 2, "memory_cycle_ratio": 2},
                method=EvaluationMethod.MARKOV,
                cycles=cycles,
                plan=ReplicationPlan(3, 0),
            )

        units = compile_scenario(markov_spec(300)) + compile_scenario(
            markov_spec(900)
        )
        keys = {fingerprint(unit.payload()) for unit in units}
        assert len(keys) == 1

    def test_payload_covers_seed_and_cycles(self):
        base = compile_scenario(tiny_spec())[0]
        longer = compile_scenario(tiny_spec(cycles=400))[0]
        reseeded = compile_scenario(
            ScenarioSpec(
                name="tiny",
                base={"processors": 2, "memories": 2},
                grid=(
                    GridAxis("memory_cycle_ratio", (1, 2)),
                    GridAxis("buffered", (False, True)),
                ),
                cycles=300,
                plan=ReplicationPlan(2, 99),
            )
        )[0]
        keys = {
            fingerprint(unit.payload()) for unit in (base, longer, reseeded)
        }
        assert len(keys) == 3


class TestSharding:
    def test_parse_shard(self):
        assert parse_shard("2/4") == (2, 4)
        assert parse_shard(" 1/1 ") == (1, 1)

    @pytest.mark.parametrize("text", ["0/4", "5/4", "2-4", "2/", "/4", "a/b"])
    def test_parse_shard_rejects(self, text):
        with pytest.raises(ConfigurationError):
            parse_shard(text)

    def test_shards_partition_the_units(self):
        units = compile_scenario(tiny_spec())
        shards = [shard_units(units, i, 3) for i in (1, 2, 3)]
        assert sorted(
            unit.index for shard in shards for unit in shard
        ) == list(range(len(units)))
        lengths = sorted(len(shard) for shard in shards)
        assert lengths[-1] - lengths[0] <= 1

    def test_merge_units_restores_canonical_order(self):
        units = compile_scenario(tiny_spec())
        shards = [shard_units(units, i, 3) for i in (3, 1, 2)]
        assert merge_units(shards) == units

    def test_merge_units_rejects_duplicates_and_holes(self):
        units = compile_scenario(tiny_spec())
        with pytest.raises(ConfigurationError):
            merge_units([units, units[:1]])
        with pytest.raises(ConfigurationError):
            merge_units([units[1:]])


class TestExecution:
    def test_results_preserve_unit_order(self):
        units = compile_scenario(tiny_spec())
        results = run_units(units)
        assert [result.unit for result in results] == list(units)

    def test_workers_do_not_change_values(self):
        from repro.scenarios.execute import run_scenario

        serial = run_scenario(tiny_spec())
        served = run_scenario(tiny_spec(), workers=2)
        assert [(r.ebw, r.processor_utilization) for r in serial] == [
            (r.ebw, r.processor_utilization) for r in served
        ]

    @pytest.mark.parametrize("workers", [0, -1])
    def test_non_positive_workers_rejected(self, workers):
        from repro.core.errors import ExperimentError
        from repro.scenarios.execute import run_scenario

        with pytest.raises(ExperimentError, match="workers must be >= 1"):
            run_scenario(tiny_spec(), workers=workers)

    def test_cache_round_trip_preserves_bytes(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path / "cache")
        units = compile_scenario(tiny_spec())
        cold = run_units(units, cache=cache)
        warm = run_units(units, cache=cache)
        assert not any(result.cached for result in cold)
        assert all(result.cached for result in warm)
        assert render_report(cold) == render_report(warm)

    def test_markov_and_crossbar_methods(self):
        spec = ScenarioSpec(
            name="models",
            base={"processors": 4, "memories": 4, "memory_cycle_ratio": 2},
            method=EvaluationMethod.MARKOV,
        )
        markov = evaluate_unit(compile_scenario(spec)[0])
        crossbar = evaluate_unit(
            compile_scenario(
                ScenarioSpec(
                    name="models",
                    base={
                        "processors": 4,
                        "memories": 4,
                        "memory_cycle_ratio": 2,
                    },
                    method=EvaluationMethod.CROSSBAR,
                )
            )[0]
        )
        assert markov["ebw"] > 0
        assert crossbar["ebw"] > 0

    def test_run_scenario_with_shard(self):
        from repro.scenarios.execute import run_scenario

        spec = tiny_spec()
        full = run_scenario(spec)
        parts = [run_scenario(spec, shard=(i, 2)) for i in (1, 2)]
        merged = merge_reports([render_report(part) for part in parts])
        assert merged == render_report(full)


class TestReportMerging:
    def test_merge_reports_tolerates_blank_lines(self):
        units = compile_scenario(tiny_spec())
        report = render_report(run_units(units))
        assert merge_reports([report + "\n\n", ""]) == report

    def test_merge_reports_rejects_duplicates(self):
        units = compile_scenario(tiny_spec())
        report = render_report(run_units(units[:2]))
        with pytest.raises(ConfigurationError):
            merge_reports([report, report])

    def test_merge_reports_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            merge_reports(["not a unit line"])


class TestVersionedMetricsCacheKeys:
    """Acceptance criterion: metric-bearing cache entries can never
    collide with pre-metrics entries, enforced by a versioned field in
    the content-addressed payload."""

    def test_latency_units_carry_versioned_metrics_field(self):
        from repro.metrics import LATENCY_METRICS_TOKEN

        spec = tiny_spec()
        metric_spec = ScenarioSpec(
            name=spec.name,
            base=spec.base,
            grid=spec.grid,
            cycles=spec.cycles,
            plan=spec.plan,
            metrics=("latency",),
        )
        plain_unit = compile_scenario(spec)[0]
        metric_unit = compile_scenario(metric_spec)[0]
        assert "metrics" not in plain_unit.payload()
        assert metric_unit.payload()["metrics"] == [LATENCY_METRICS_TOKEN]
        assert fingerprint(plain_unit.payload()) != fingerprint(
            metric_unit.payload()
        )

    def test_plain_payload_shape_is_stable(self):
        # The pre-engine key set plus the evaluator's versioned engine
        # token; any accidental extra/missing field would silently remap
        # every cache key.
        payload = compile_scenario(tiny_spec())[0].payload()
        assert set(payload) == {
            "config",
            "cycles",
            "seed",
            "warmup",
            "workload",
            "method",
            "engine",
        }
        assert payload["engine"] == "simulation@1"

    def test_kernel_never_enters_the_payload(self):
        # Units compiled without a kernel run the exact tier and share
        # its cache entries.
        default = compile_scenario(tiny_spec())[0]
        fast = compile_scenario(tiny_spec(), kernel="fast")[0]
        assert default.kernel == fast.kernel == "fast"
        assert default.payload() == fast.payload()

    def test_version_bump_would_retire_entries(self):
        from repro.metrics import LATENCY_METRICS_VERSION

        spec = ScenarioSpec(
            name="versioned",
            base={"processors": 2, "memories": 2, "memory_cycle_ratio": 1},
            metrics=("latency",),
        )
        payload = compile_scenario(spec)[0].payload()
        current = fingerprint(payload)
        future = dict(payload)
        future["metrics"] = [f"latency@{LATENCY_METRICS_VERSION + 1}"]
        assert fingerprint(future) != current

    def test_malformed_cached_latency_entry_triggers_recompute(self, tmp_path):
        spec = ScenarioSpec(
            name="damaged",
            base={"processors": 2, "memories": 2, "memory_cycle_ratio": 1},
            cycles=200,
            metrics=("latency",),
        )
        unit = compile_scenario(spec)[0]
        cache = ResultCache(cache_dir=tmp_path, version_tag="t")
        # Poison the cache with a pre-metrics-shaped value under the
        # metric unit's key (simulating a corrupted or hand-edited
        # entry); execution must recompute, not crash.
        cache.put(
            cache.key(unit.payload()),
            {"ebw": 1.0, "processor_utilization": 0.5, "bus_utilization": 0.5},
        )
        [result] = run_units([unit], cache=cache)
        assert not result.cached
        assert result.latency is not None
