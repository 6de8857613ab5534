"""Self-checks of the benchmark: attribution, restoration, determinism.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Each workload runs once untraced and once traced (about a minute in all).
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import run as bench
import workloads
from tracer import LAYERS, LayerTracer

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_is_faithful_and_fully_attributed(name):
    workload = workloads.WORKLOADS[name]
    prepared = workload.prepare(workloads.DEFAULT_SEED)
    plain = workloads.execute(prepared)
    tracer = LayerTracer()
    with tracer:
        assert tracer.unrestored(), "no boundary was wrapped"
        traced = workloads.execute(prepared, tracer)
    # Every wrapped attribute is the original object again, so the next
    # untraced run measures unwrapped code.
    assert tracer.unrestored() == []
    assert plain.failures == [] and traced.failures == []
    # Tracing cannot change the simulation.
    assert traced.key == plain.key
    totals = tracer.layer_totals()
    layered = sum(total["self_s"] for total in totals.values())
    assert layered == pytest.approx(traced.wall_s,
                                    rel=bench.ATTRIBUTION_TOLERANCE)
    # The workload stresses the layer it was chosen for.
    share = {layer: totals[layer]["self_s"] for layer in LAYERS}
    chosen = sum(share[layer] for layer in workload.dominant)
    assert chosen > max(share[layer] for layer in LAYERS
                        if layer not in workload.dominant)
    metrics = bench.layer_metrics(traced, tracer, plain.wall_s)
    assert {metric["name"] for metric in SPEC["per_layer"]} == set(metrics)


def test_end_to_end_metrics_match_the_spec():
    metrics, runs = bench.measure(workloads.WORKLOADS["dctcp_flip"],
                                  workloads.DEFAULT_SEED, seconds=0)
    assert [metric["name"] for metric in SPEC["end_to_end"]] == list(metrics)
    assert bench._failed(runs) == 0
    assert all(value > 0 for value, _unit in metrics.values())


def test_spec_names_workloads_and_predictions():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [entry["name"] for entry in SPEC["workloads"]] == \
        list(workloads.WORKLOADS)
    assert all(len(entry["why"]) <= 200 for entry in SPEC["workloads"])
    end_to_end = {metric["name"] for metric in SPEC["end_to_end"]}
    per_layer = {metric["name"] for metric in SPEC["per_layer"]}
    predictions = json.loads((HERE / "predictions.json").read_text())
    assert set(predictions["workloads"]) == set(workloads.WORKLOADS)
    for name, entry in predictions["workloads"].items():
        assert tuple(entry["dominant_layer"]) == \
            workloads.WORKLOADS[name].dominant
    for entry in predictions["predictions"]:
        assert set(entry["metrics"]) <= per_layer
        assert entry["end_to_end"] in end_to_end
        assert set(entry["workloads"]) == set(workloads.WORKLOADS)


def test_lb_mix_seed_picks_a_mix_at_the_nominal_load():
    default, _ = workloads.lb_mix_config(workloads.DEFAULT_SEED)
    held_out, _ = workloads.lb_mix_config(workloads.HELD_OUT_SEED)
    assert default.seed != held_out.seed
    assert workloads.lb_mix_config(workloads.DEFAULT_SEED)[0].seed == \
        default.seed


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lb_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        check=False)
    assert child.returncode != 0
    assert child.stdout == ""
