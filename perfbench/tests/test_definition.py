"""BENCHMARK.json and the code that fills it name the same things."""

import json
import pathlib

import layers
from workloads import WORKLOADS

SPEC = json.loads(
    (pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def test_listed_workloads_exist_with_their_reasons():
    for entry in SPEC["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why


def test_every_per_layer_metric_is_computed():
    computed = set(layers.layer_metrics([([], 1.0)]))
    computed |= {"trace.overhead_s", "ebw_err_mean"}
    assert {entry["name"] for entry in SPEC["per_layer"]} <= computed
