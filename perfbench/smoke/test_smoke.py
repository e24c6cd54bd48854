"""Smoke test of the benchmark: every workload at a tiny size.

Run from the repository root:

    python3 -m pytest -q perfbench/smoke

Checks that each run emits every metric of BENCHMARK.json with its unit,
that BENCHMARK.json gives each metric the unit and direction below, that
the traced spans nest inside the timed calls and their self times add up
to the time of the outermost spans, with only a small remainder of the
traced wall time left unclaimed, and that the benchmark refuses to run
without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ["perfbench/run.py"]
WORKLOADS = ("batch", "crowd", "experiment")

END_TO_END = {
    "setup_s": ("s", "lower"),
    "solve_docs_per_s": ("docs/s", "higher"),
    "solve_jobs2_docs_per_s": ("docs/s", "higher"),
    "pgm_docs_per_s": ("docs/s", "higher"),
    "pgm_fixed_docs_per_s": ("docs/s", "higher"),
    "doc_latency_ms_p50": ("ms", "lower"),
    "doc_latency_ms_p99": ("ms", "lower"),
    "objects_per_s": ("detections/s", "higher"),
    "synth_scenes_per_s": ("scenes/s", "higher"),
    "experiment_scenes_per_s": ("scenes/s", "higher"),
    "cam_err_median_m": ("m", "lower"),
    "obj_err_median_m": ("m", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
SPANS = (
    "cli.main", "documents.parse_document", "documents.filter_detections",
    "documents.emit_results", "documents.config_digest",
    "documents.emit_document", "documents.parse_results",
    "priors.upright_ratio", "solver.solve_scene", "solver.box_ratios",
    "solver.init_camera_height", "solver.classify_boxes",
    "solver.refine_layer", "solver.total_loss", "solver.reprojection_loss",
    "solver.linalg_solve", "baselines.pgm_full", "baselines.pgm_fixed_height",
    "geometry.project_tops_with_grads", "geometry.oracle_project_points",
    "geometry.projection_matrix", "synth.sample_scene",
    "synth.render_detections", "metrics.compute_metrics",
    "overlay.render_overlay",
)
RATIOS = {
    "documents.kept_ratio": "higher",
    "priors.ratio_ok_ratio": "higher",
    "solver.classify_per_solve": "lower",
    "solver.refine_accept_ratio": "higher",
    "solver.backtracks_per_refine": "lower",
    "solver.converged_ratio": "higher",
    "solver.trace_share": "lower",
    "synth.attempts_per_object": "lower",
    "geometry.matrix_builds_per_attempt": "lower",
}
PER_LAYER = {
    **{f"{s}.calls": ("calls/doc", "lower") for s in SPANS},
    **{f"{s}.ms": ("ms/doc", "lower") for s in SPANS},
    **{f"{s}.self_ms": ("ms/doc", "lower") for s in SPANS},
    **{name: ("ratio", better) for name, better in RATIOS.items()},
    "cli.bytes_per_doc": ("B/doc", "lower"),
    "trace.wall_ms": ("ms/doc", "lower"),
    "trace.overhead_ms": ("ms/doc", "lower"),
    "trace.unclaimed_ms": ("ms/doc", "lower"),
}


def _bench(cwd, *args, check=True):
    proc = subprocess.run([sys.executable, *RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    if check:
        assert proc.returncode == 0, proc.stderr[-2000:]
    return proc


def _result(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds",
                  "0", "--trace", str(trace), "--tiny")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def test_benchmark_json_declares_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert declared == END_TO_END
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert declared == PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = _result(workload, 0)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        k: unit for k, (unit, _) in END_TO_END.items()}
    for name, entry in metrics.items():
        assert entry["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_account_for_the_traced_wall_time(workload):
    metrics = _result(workload, 1)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        k: unit for k, (unit, _) in PER_LAYER.items()}
    value = {k: v["value"] for k, v in metrics.items()}
    for span in SPANS:
        # synth documents carry no keypoints, so no posture ratio is taken
        if not (workload == "experiment" and span == "priors.upright_ratio"):
            assert value[f"{span}.calls"] > 0, span
        assert value[f"{span}.ms"] >= value[f"{span}.self_ms"] >= 0, span
    assert value["solver.classify_per_solve"] >= 1

    # Spans are recorded only inside timed passes, so they leave a small,
    # non-negative share of the traced wall time unclaimed.
    wall, unclaimed = value["trace.wall_ms"], value["trace.unclaimed_ms"]
    assert 0 <= unclaimed < 0.05 * wall

    # Self times, as the metrics give them, add up to the durations of the
    # outermost spans, taken straight from the span store; every span lies
    # inside its parent, and every outermost span inside a timed call.
    spans = np.load(ROOT / ".bench_out" / f"spans-{workload}.npz")
    parent, start, end = spans["parent"], spans["start"], spans["end"]
    assert np.all(end >= start)
    inner = parent >= 0
    assert np.all(start[inner] >= start[parent[inner]])
    assert np.all(end[inner] <= end[parent[inner]])
    window_start, window_end = spans["window_start"], spans["window_end"]
    assert len(window_start) == len(window_end) > 0
    window = np.searchsorted(window_start, start[~inner], side="right") - 1
    assert np.all(window >= 0)
    assert np.all(end[~inner] <= window_end[window])
    record = json.loads((ROOT / ".bench_out" /
                         f"{workload}-seed3-trace1.json").read_text())
    roots_ms = float((end - start)[~inner].sum()) * 1e3 / record["units"]
    claimed = sum(value[f"{span}.self_ms"] for span in SPANS)
    assert claimed == pytest.approx(roots_ms, rel=1e-6)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "batch", "--seed", "1",
                  "--seconds", "1", "--trace", "0", check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
