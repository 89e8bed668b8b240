"""Unit tests for the sweep planner: cost model, grouping, carving."""

from __future__ import annotations

from repro.parallel.cache import ResultCache
from repro.scenarios.compiler import compile_scenario
from repro.scenarios.execute import run_units
from repro.scenarios.plan import (
    ANALYTIC_UNIT_COST,
    MAX_LEASE_UNITS,
    carve_leases,
    probe_cached,
    unit_cost,
)
from repro.engine.base import EvaluationMethod
from repro.scenarios.spec import GridAxis, ReplicationPlan, ScenarioSpec


def _spec(**overrides) -> ScenarioSpec:
    kwargs = dict(
        name="plan-unit-test",
        base={"processors": 2, "memories": 2, "memory_cycle_ratio": 2},
        grid=(GridAxis("request_probability", (0.5, 1.0)),),
        cycles=80,
        plan=ReplicationPlan(replications=3, base_seed=5),
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


class TestUnitCost:
    def test_simulation_cost_is_cycles_plus_warmup(self):
        units = compile_scenario(_spec(cycles=500, warmup=100))
        assert unit_cost(units[0]) == 600.0

    def test_analytic_cost_is_nominal(self):
        units = compile_scenario(_spec(method=EvaluationMethod.BANDWIDTH))
        assert unit_cost(units[0]) == 1.0
        assert unit_cost(units[0]) < unit_cost(compile_scenario(_spec())[0])

    def test_every_cost_floors_at_the_analytic_constant(self):
        # The floor is explicit: no unit mix can produce a zero-cost
        # lease, whatever degenerate cycle counts a spec sneaks in.
        mva = compile_scenario(_spec(method=EvaluationMethod.MVA))
        simulation = compile_scenario(_spec(cycles=1, warmup=0))
        for unit in list(mva) + list(simulation):
            assert unit_cost(unit) >= ANALYTIC_UNIT_COST


class TestCarveLeases:
    def test_every_position_appears_exactly_once(self):
        units = compile_scenario(_spec())
        positions = list(range(len(units)))
        leases = carve_leases(units, positions, workers=2)
        flat = sorted(p for lease in leases for p in lease)
        assert flat == positions
        assert all(lease for lease in leases)

    def test_empty_positions_make_no_leases(self):
        units = compile_scenario(_spec())
        assert carve_leases(units, [], workers=2) == []

    def test_explicit_lease_size_packs_by_count(self):
        units = compile_scenario(_spec())
        leases = carve_leases(
            units, range(len(units)), workers=1, lease_size=2
        )
        assert [len(lease) for lease in leases[:-1]] == [2] * (len(leases) - 1)
        assert all(len(lease) <= 2 for lease in leases)

    def test_cost_weighted_sizing_targets_four_waves_per_worker(self):
        # 6 equal-cost units over 1 worker: target cost = total/4, so
        # leases hold at most ceil(6/4)=2 units each.
        units = compile_scenario(_spec())
        leases = carve_leases(units, range(len(units)), workers=1)
        assert max(len(lease) for lease in leases) <= 2
        assert len(leases) >= 3

    def test_lease_size_never_exceeds_the_hard_cap(self):
        units = compile_scenario(
            _spec(
                method=EvaluationMethod.BANDWIDTH,
                grid=(
                    GridAxis("request_probability", tuple(
                        round(0.002 * i + 0.01, 6) for i in range(300)
                    )),
                ),
                plan=ReplicationPlan(replications=1, base_seed=5),
            )
        )
        assert len(units) == 300
        # Analytic units are so cheap that cost targeting alone would
        # put all 300 in one lease; the unit cap still applies.
        leases = carve_leases(units, range(len(units)), workers=1)
        assert max(len(lease) for lease in leases) <= MAX_LEASE_UNITS

    def test_heavy_units_get_shorter_leases_than_light_units(self):
        heavy = compile_scenario(_spec(cycles=100_000))
        light = compile_scenario(_spec(cycles=80))
        mixed = list(heavy[:3]) + list(light[:3])
        leases = carve_leases(mixed, range(6), workers=1)
        by_position = {
            position: index
            for index, lease in enumerate(leases)
            for position in lease
        }
        # No lease mixes a heavy unit with more than its cost share:
        # each heavy unit rides alone, the light tail can share.
        heavy_leases = {by_position[p] for p in range(3)}
        assert len(heavy_leases) == 3
        assert all(len(leases[i]) == 1 for i in heavy_leases)

    def test_affine_grouping_keeps_fleet_mates_adjacent(self):
        # Two interleaved fleet shapes (buffered axis last, so
        # positions alternate shapes); affine carving reunites them.
        spec = _spec(
            grid=(
                GridAxis("request_probability", (0.5, 1.0)),
                GridAxis("buffered", (False, True)),
            ),
            plan=ReplicationPlan(replications=2, base_seed=5),
        )
        units = compile_scenario(spec, kernel="batch")
        leases = carve_leases(
            units, range(len(units)), workers=1, lease_size=len(units)
        )
        from repro.parallel.fleet import pack_key

        ordered_keys = [
            pack_key(units[p].request()) for lease in leases for p in lease
        ]
        # Affine order visits each pack key as one contiguous run.
        seen = []
        for key in ordered_keys:
            if not seen or seen[-1] != key:
                seen.append(key)
        assert len(seen) == len(set(seen))

    def test_mixed_simulation_and_mva_units_carve_cleanly(self):
        # A mixed sweep: heavy simulation units next to floor-cost mva
        # units.  Carving must keep every position exactly once, never
        # emit an empty lease, and the cost floor must keep the mva
        # tail from collapsing into the simulation leases' cost shadow.
        simulation = compile_scenario(_spec(cycles=50_000))
        mva = compile_scenario(_spec(method=EvaluationMethod.MVA))
        mixed = list(simulation[:3]) + list(mva)
        leases = carve_leases(mixed, range(len(mixed)), workers=1)
        flat = sorted(p for lease in leases for p in lease)
        assert flat == list(range(len(mixed)))
        assert all(lease for lease in leases)
        by_position = {
            position: index
            for index, lease in enumerate(leases)
            for position in lease
        }
        # Each heavy simulation unit fills its own lease; the analytic
        # units share leases rather than riding one-per-lease.
        heavy_leases = {by_position[p] for p in range(3)}
        assert all(len(leases[i]) == 1 for i in heavy_leases)
        analytic_leases = {
            by_position[p] for p in range(3, len(mixed))
        }
        assert analytic_leases.isdisjoint(heavy_leases)
        assert len(analytic_leases) < len(mixed) - 3

    def test_mixed_batch_and_mva_affine_groups_are_stable(self):
        # Batch simulation units pack into one super-fleet group while
        # analytic units stay singletons; the carving is deterministic.
        simulation = compile_scenario(
            _spec(
                grid=(GridAxis("memory_cycle_ratio", (1, 2, 3)),),
                plan=ReplicationPlan(replications=2, base_seed=5),
            ),
            kernel="batch",
        )
        mva = compile_scenario(_spec(method=EvaluationMethod.MVA))
        mixed = list(simulation) + list(mva)
        first = carve_leases(mixed, range(len(mixed)), workers=2)
        second = carve_leases(mixed, range(len(mixed)), workers=2)
        assert first == second
        flat = sorted(p for lease in first for p in lease)
        assert flat == list(range(len(mixed)))


def _batch_group(rows: int, cycles: int = 80):
    """``rows`` batch units forming one pack group (two grid points)."""
    return compile_scenario(
        _spec(
            cycles=cycles,
            plan=ReplicationPlan(replications=rows // 2, base_seed=5),
        ),
        kernel="batch",
    )


class TestWholeFleetCarving:
    def test_paper_table_fleets_stay_in_one_lease(self):
        # Tables 3(a) and 4 are 42- and 70-row super-fleets.
        for rows in (42, 70):
            units = _batch_group(rows)
            assert carve_leases(units, range(rows), workers=2) == [
                list(range(rows))
            ]

    def test_the_unit_cap_cuts_a_large_fleet_into_equal_leases(self):
        units = _batch_group(512)
        leases = carve_leases(units, range(512), workers=2)
        assert leases == [list(range(256)), list(range(256, 512))]
        units = _batch_group(600)
        leases = carve_leases(units, range(600), workers=2)
        assert [len(lease) for lease in leases] == [200, 200, 200]
        assert [p for lease in leases for p in lease] == list(range(600))

    def test_enough_fleets_for_every_worker_are_never_split(self):
        units = [
            unit
            for offset in range(4)
            for unit in _batch_group(128, cycles=80 + offset)
        ]
        leases = carve_leases(units, range(len(units)), workers=2)
        assert leases == [
            list(range(start, start + 128)) for start in range(0, 512, 128)
        ]

    def test_idle_workers_never_split_a_fleet(self):
        for rows in (200, 256):
            units = _batch_group(rows)
            assert carve_leases(units, range(rows), workers=4) == [
                list(range(rows))
            ]

    def test_fast_units_keep_four_wave_cost_carving(self):
        units = compile_scenario(
            _spec(plan=ReplicationPlan(replications=8, base_seed=5)),
            kernel="fast",
        )
        # 16 equal-cost units over 2 workers: each lease closes at
        # total / (4 * 2), two units.
        leases = carve_leases(units, range(16), workers=2)
        assert leases == [[2 * k, 2 * k + 1] for k in range(8)]

    def test_lease_size_packs_batch_fleets_by_count(self):
        units = _batch_group(42)
        leases = carve_leases(units, range(42), workers=2, lease_size=8)
        assert [len(lease) for lease in leases] == [8] * 5 + [2]
        assert [p for lease in leases for p in lease] == list(range(42))

    def test_each_batch_lease_runs_as_one_fleet_call(self):
        # The planner and the executor share one grouping rule, so a
        # batch lease never turns into more than one batch call.
        from repro.scenarios.execute import _batchable, pack_groups

        simulation = compile_scenario(
            _spec(
                grid=(
                    GridAxis("memory_cycle_ratio", (1, 2, 3)),
                    GridAxis("buffered", (False, True)),
                ),
                plan=ReplicationPlan(replications=2, base_seed=5),
            ),
            kernel="batch",
        )
        mva = compile_scenario(_spec(method=EvaluationMethod.MVA))
        mixed = list(simulation) + list(mva)
        leases = carve_leases(mixed, range(len(mixed)), workers=2)
        assert sorted(p for lease in leases for p in lease) == list(
            range(len(mixed))
        )
        fleet_leases = 0
        for lease in leases:
            batch = [_batchable(mixed[g[0]]) for g in pack_groups(mixed, lease)]
            if any(batch):
                assert batch == [True]
                fleet_leases += 1
        # buffered and unbuffered rows pack into two super-fleets.
        assert fleet_leases == 2


class TestProbeCached:
    def test_probe_resolves_exactly_the_stored_positions(self, tmp_path):
        units = compile_scenario(_spec())
        cache = ResultCache(cache_dir=tmp_path / "store")
        run_units(units[:3], cache=cache)
        found = probe_cached(units, range(len(units)), cache)
        assert sorted(found) == [0, 1, 2]

    def test_probe_on_a_cold_store_finds_nothing(self, tmp_path):
        units = compile_scenario(_spec())
        cache = ResultCache(cache_dir=tmp_path / "store")
        assert probe_cached(units, range(len(units)), cache) == {}
        assert cache.stats.misses > 0
