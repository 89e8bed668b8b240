"""Span accounting and the per-layer derivations, on stand-in modules."""

import json
import types

import pytest

import layers
import tracer


def record(tmp_path, build):
    """Run ``build(rec)`` under a fresh recorder; return its dump."""
    rec = tracer.Recorder()
    build(rec)
    path = tmp_path / "spans.json"
    rec.dump(str(path))
    return json.loads(path.read_text())


def config(n, m):
    return types.SimpleNamespace(processors=n, memories=m)


def test_lane_fill_for_a_known_config_list(tmp_path):
    class BatchBusKernel:
        def __init__(self, configs, seeds):
            self.configs = tuple(configs)
            self.cycle = 0

        def advance(self, count):
            self.cycle += count

        def run(self, cycles, warmup=0):
            self.advance(warmup)
            self.advance(cycles)

    module = types.SimpleNamespace(BatchBusKernel=BatchBusKernel)

    def build(rec):
        tracer._patch_batch(module, rec, str(tmp_path))
        shapes = [(8, 4), (8, 6), (8, 16)]
        BatchBusKernel([config(*s) for s in shapes], [1, 2, 3]).run(100, 25)
        BatchBusKernel([config(8, 16)], [4]).run(100, 25)

    metrics = layers.layer_metrics([([record(tmp_path, build)], 1.0)])
    # Kernel 1: valid 12+14+24 = 50 of 3*(8+16) = 72; kernel 2: 24 of 24.
    assert metrics["fleet.lane_fill"] == pytest.approx(74 / 96)
    assert metrics["fleet.kernels"] == 2
    assert metrics["fleet.rows_per_kernel"] == 2
    assert metrics["batch.cycles"] == 250
    assert metrics["batch.ns_per_row_cycle"] > 0


def test_units_per_lease_for_a_known_lease_plan(tmp_path):
    def carve_leases(units, positions, workers, lease_size=3):
        return [
            positions[i:i + lease_size]
            for i in range(0, len(positions), lease_size)
        ]

    module = types.SimpleNamespace(
        probe_cached=lambda units, positions, cache: {},
        carve_leases=carve_leases,
    )

    def build(rec):
        tracer._patch_plan(module, rec, str(tmp_path))
        module.carve_leases([], list(range(9)), workers=2)
        module.carve_leases([], list(range(4)), workers=2)

    metrics = layers.layer_metrics([([record(tmp_path, build)], 1.0)])
    # 9 units in leases of 3/3/3, then 4 units in 3/1: 13 units, 5 leases.
    assert metrics["plan.leases"] == 5
    assert metrics["plan.units_per_lease"] == pytest.approx(2.6)


def test_self_segments_follow_the_innermost_span():
    spans = [("a", 0, 10), ("b", 2, 5), ("c", 3, 4), ("d", 12, 13)]
    assert layers.self_segments(spans) == [
        (0, 2, "a"), (2, 3, "b"), (3, 4, "c"), (4, 5, "b"), (5, 10, "a"),
        (12, 13, "d"),
    ]


def process(spans, hot_in=None):
    return {
        "pid": 1, "spans": spans, "self_ns": {}, "calls": {},
        "hot_in": hot_in or {}, "counts": {}, "events": [],
    }


def test_concurrent_processes_split_wall_time_and_sum_to_coverage():
    coordinator = process([("plan.carve", 0, 100)])
    worker = process([("batch.advance", 50, 250)])
    shares, covered = layers.wall_shares([coordinator, worker])
    assert shares["plan.carve"] == 75 and shares["batch.advance"] == 175
    assert covered == 250 == sum(shares.values())


def test_hot_layer_time_moves_back_from_its_enclosing_span():
    shares, covered = layers.wall_shares(
        [process([("fast.run", 0, 100)], hot_in={"fast.run": 30})]
    )
    assert shares["fast.run"] == 70 and shares[tracer.HOT_LAYER] == 30
    assert covered == 100


def test_layer_times_plus_other_add_up_to_wall():
    proc = process([("startup.import", 0, 2 * 10**8), ("fast.run", 3 * 10**8, 9 * 10**8)])
    metrics = layers.layer_metrics([([proc], 1.5)])
    layer_sum = sum(metrics[f"{layer}_s"] for layer in tracer.LAYERS)
    assert layer_sum + metrics["other_s"] == pytest.approx(metrics["trace.wall_s"])
    assert metrics["other_s"] == pytest.approx(0.7)


def test_service_round_trips_and_busy_fraction():
    coordinator = process([])
    coordinator["events"] = [
        ["spawn", 0, {}], ["spawn", 10, {}], ["ready", 5 * 10**8, {"lease": None}],
        ["lease", 6 * 10**8, {"lease": 0}], ["lease", 6 * 10**8, {"lease": 1}],
        ["lease_done", 8 * 10**8, {"lease": 0}],
        ["lease_done", 12 * 10**8, {"lease": 1}],
    ]
    metrics = layers.layer_metrics([([coordinator], 2.0)])
    assert metrics["service.handshake_s"] == pytest.approx(0.5)
    assert metrics["service.lease_rtt_p50_s"] == pytest.approx(0.4)
    assert metrics["service.lease_rtt_max_s"] == pytest.approx(0.6)
    assert metrics["service.worker_busy_frac"] == pytest.approx(0.8 / 4.0)
