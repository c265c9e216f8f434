import json
from pathlib import Path

from bench import metrics
from bench.scenes import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_workloads_the_code_defines():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_every_per_layer_metric_has_its_reasoning():
    assert [m["name"] for m in SPEC["per_layer"]] == list(metrics.PER_LAYER)
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for name, (moves, heavy) in metrics.PER_LAYER.items():
        assert (moves in e2e or name == "trace.overhead_pct") and heavy, name
