"""Self-test of the benchmark at tiny sizes.

Run from the repository root: python3 -m pytest -q bench/tests
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench import harness, run, workloads  # noqa: E402
from bench.workloads import WORKLOADS, Gate  # noqa: E402
from ielab import tensorcore, trainloop  # noqa: E402

TINY = {
    "short-sum": dict(n_train=16, n_val=2, n_test=4),
    "long-concat": dict(tokens_per_doc=(500, 640), n_train=4, n_val=1,
                        n_test=3),
    "image-pages": dict(tokens_per_doc=(200, 320), n_train=4, n_val=1,
                        n_test=3),
}


def tiny(name):
    """The workload at smoke-test size; its F1 floor holds only at full size."""
    return dataclasses.replace(WORKLOADS[name], micro_tokens=16, f1_floor=0.0,
                               **TINY[name])


def assert_metrics(metrics, expected_units):
    assert set(metrics) == set(expected_units)
    for name, (value, unit) in metrics.items():
        assert unit == expected_units[name], name
        assert isinstance(value, float) and math.isfinite(value), name


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == harness.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(WORKLOADS)


def test_record_covers_every_metric_and_workload():
    record = json.loads((ROOT / "bench" / "record.json").read_text())
    assert set(record["expectations"]) == set(harness.PER_LAYER)
    for kind, names in (("end_to_end", harness.END_TO_END),
                        ("per_layer", harness.PER_LAYER)):
        by_workload = record["baseline"][kind]["by_workload"]
        assert set(by_workload) == set(WORKLOADS)
        assert all(set(m) == set(names) for m in by_workload.values())
    assert record["held_out_seed"] not in record["baseline"]["end_to_end"]["seeds"]


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run_emits_end_to_end_metrics(name):
    gate = Gate()
    metrics, diagnostics = harness.measure(tiny(name), 3, 0.01, gate)
    assert gate.failures == []
    assert_metrics(metrics, harness.END_TO_END)
    assert all(v > 0 for v, _ in metrics.values())
    assert set(diagnostics["samples"]) == set(harness.END_TO_END)
    latencies = diagnostics["samples"]["eval_doc_ms_p90"]
    assert latencies >= TINY[name]["n_test"]
    assert latencies % TINY[name]["n_test"] == 0       # whole eval passes


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_emits_layer_metrics_and_restores_the_library(name,
                                                                 tmp_path):
    attention, adam_step = tensorcore.ops.attention, tensorcore.adam_step
    gate = Gate()
    metrics, diagnostics = harness.trace(tiny(name), 3, gate,
                                         tmp_path / "spans.json")
    assert gate.failures == []       # includes the transparency checks
    assert_metrics(metrics, harness.PER_LAYER)
    assert metrics["tensorcore.attention.fwd_s"][0] > 0
    assert metrics["tensorcore.backward.nodes"][0] > 0
    assert 0 < metrics["tensorcore.attention.useful_score_ratio"][0] <= 1
    if name == "image-pages":
        assert metrics["stylefuse.backbone_forward.calls"][0] > 0
        assert 0 < metrics["stylefuse.backbone_pages_per_call"][0] <= 1
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    assert len(spans) == diagnostics["spans"] > 0
    assert tensorcore.ops.attention is attention
    assert tensorcore.adam_step is adam_step


def test_gate_trips_on_a_corrupted_prediction(monkeypatch, capsys):
    original = trainloop.predict_tags

    def drop_last_tag(*args, **kwargs):
        return original(*args, **kwargs)[:-1]

    monkeypatch.setitem(WORKLOADS, "short-sum", tiny("short-sum"))
    monkeypatch.setattr(trainloop, "predict_tags", drop_last_tag)
    rc = run.main(["--workload", "short-sum", "--seed", "3",
                   "--seconds", "0.01", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]


def test_gate_trips_on_a_failed_floor():
    gate = Gate()
    w = dataclasses.replace(tiny("short-sum"), f1_floor=1.01)
    p = workloads.setup(w, 3)
    _, res = workloads.train_round(p, gate)
    workloads.eval_pass(p, res.model, gate)
    assert [f.split(":")[0] for f in gate.failures] == ["test F1 floor"]


def test_without_the_library_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "short-sum",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
