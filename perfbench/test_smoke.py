"""Smoke tests of the benchmark harness: every workload at a tiny size.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from fruitgauge import pipeline, sizing  # noqa: E402
from tracing import Tracer, span_names  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_passes_gate_and_reports_every_metric(workload, seed, tmp_path):
    result, info = harness.run(workload, seed, 0, False, tmp_path, tiny=True)
    assert result["correct"], info["errors"]
    assert result["failed"] == 0 and result["attempted"] == len(info["cases"])
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0
    assert result["metrics"]["fused_per_truth"]["value"] == 1.0
    for hashes in info["sha256"].values():
        assert set(hashes) == {"records.json", "fused.json", "report.json"}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_per_layer_metrics_and_spans(workload, tmp_path):
    result, info = harness.run(workload, 0, 0, True, tmp_path, tiny=True)
    assert result["correct"], info["errors"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for metric in SPEC["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]

    trace = json.loads(Path(info["trace_file"]).read_text())
    spans = trace["spans"]
    assert spans and {s[0] for s in spans} <= set(span_names())
    for index, (_name, op, parent, start, end, self_s, _error, _count) in enumerate(spans):
        assert op is not None and start <= end and self_s <= end - start + 1e-9
        assert parent is None or parent < index
    assert trace["layers_per_op"]["pipeline.cmd_fuse"]["calls"] == 1
    assert metrics["trace.unaccounted_s"]["value"] < metrics["trace.op_p50_s"]["value"]

    calls = {name: metrics[f"{name}.calls"]["value"] for name in span_names()}
    if workload == "lab_stream":
        assert calls["simulate.render_scene"] == 0
        assert calls["geometry.align_depth_to_color"] == 0
        assert calls["pipeline.write_bundle"] == 0
        assert calls["maskops.extreme_points"] > 0
    elif workload == "orchard_hd":
        assert calls["simulate.render_scene"] == 2
        assert calls["geometry.align_depth_to_color"] == 3
        assert metrics["maskops.BinaryMask.bbox.pixels"]["value"] > 0
    else:
        assert calls["maskops.decode_rle"] == 0 and calls["sizing.measure_fruit"] == 0
        assert metrics["fusion.deduplicate.n"]["value"] == 3 * 60


def test_gate_rejects_a_lost_detection(tmp_path):
    workload = harness.LabStream(0, tiny=True)
    (case,) = workload.setup(tmp_path / "setup")
    out = tmp_path / "op"
    workload.op(case, out)
    n = workload.ingested(case, out)
    checked = harness.check_outputs(case, out, out / "records.json", n)
    assert checked.n_records == n and checked.n_fused == len(case.truth_ids)

    doc = json.loads((out / "records.json").read_text())
    doc["records"].pop()
    (out / "records.json").write_text(json.dumps(doc))
    with pytest.raises(harness.GateError, match="ingested"):
        harness.check_outputs(case, out, out / "records.json", n)


@pytest.mark.parametrize("center_depth_m, passes", [(0.0, True), (0.5, False)])
def test_gate_passes_only_a_split_of_fallback_localized_views(center_depth_m, passes,
                                                              tmp_path):
    workload = harness.Fuse8k(0, tiny=True)
    (case,) = workload.setup(tmp_path / "setup")
    out = tmp_path / "op"
    out.mkdir()
    workload.op(case, out)
    doc = json.loads((out / "fused.json").read_text())
    fruit = doc["fruits"][0]
    view = {**fruit["members"].pop(), "center_depth_m": center_depth_m}
    fruit["n_views"] -= 1
    doc["fruits"].append({**fruit, "n_views": 1, "chosen": view, "members": [view]})
    (out / "fused.json").write_text(json.dumps(doc))
    pipeline.cmd_evaluate(out / "fused.json", case.records, case.truth, out / "report")

    n = workload.ingested(case, out)
    if passes:
        checked = harness.check_outputs(case, out, case.records, n)
        assert checked.fallback_splits == [view["fruit_id"]]
        assert checked.n_fused == len(case.truth_ids) + 1
    else:
        with pytest.raises(harness.GateError, match="split"):
            harness.check_outputs(case, out, case.records, n)


def test_tracer_restores_every_patched_binding():
    originals = (pipeline.measure_fruit, sizing.extreme_points,
                 harness.fileio.decode_rle, harness.fileio.load_json)
    bbox = sizing.BinaryMask.__dict__["bbox"]
    with Tracer().installed():
        assert pipeline.measure_fruit is not originals[0]
        assert sizing.extreme_points is not originals[1]
        assert sizing.BinaryMask.__dict__["bbox"] is not bbox
    assert (pipeline.measure_fruit, sizing.extreme_points,
            harness.fileio.decode_rle, harness.fileio.load_json) == originals
    assert sizing.BinaryMask.__dict__["bbox"] is bbox


def test_run_without_package_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lab_stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
