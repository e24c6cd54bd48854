"""Metric computation and aggregation tests."""

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from scenescale.documents import parse_document, parse_results
from scenescale.metrics import (GroundTruth, MetricReport, aggregate_reports,
                                compute_metrics, summarize, threshold_curve)
from scenescale.solver import LayerTrace, SceneEstimate

_FIXTURES = Path(__file__).parent / "fixtures"


def _estimate(cam=1.6, heights=(1.7,), upright=None, tops=None):
    """An estimate whose boxes have their reprojected tops at 0.4 unless
    `tops` says otherwise."""
    upright = heights if upright is None else upright
    if tops is None:
        tops = tuple(0.4 for _ in heights)
    trace = LayerTrace(layer=0, cam_height_m=cam, l_vt=0.0, prior_loss=0.0,
                       total_loss=0.0)
    return SceneEstimate(method="cascade", cam_height_m=cam,
                         heights_m=heights, upright_heights_m=upright,
                         upright_ratios=tuple(1.0 for _ in heights),
                         tops=tops, excluded=(), converged=True,
                         ill_posed=False, trace=(trace,))


# ---------------------------------------------------------------------------
# summarize.

def test_summarize_frozen_values():
    mean, std, median = summarize([1.0, 2.0, 3.0])
    assert mean == 2.0
    assert std == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)
    assert median == 2.0


def test_summarize_even_count_takes_lower_middle():
    assert summarize([4.0, 1.0, 3.0, 2.0])[2] == 2.0


def test_summarize_single_sample():
    assert summarize([5.0]) == (5.0, 0.0, 5.0)


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=30),
       st.randoms(use_true_random=False))
def test_summarize_permutation_invariant(xs, rnd):
    mean, std, median = summarize(xs)
    rnd.shuffle(xs)
    mean2, std2, median2 = summarize(xs)
    # Mean and std shift by summation order; the median is order-free.
    assert mean2 == pytest.approx(mean, rel=1e-12, abs=1e-12)
    assert std2 == pytest.approx(std, rel=1e-9, abs=1e-12)
    assert median2 == median


# ---------------------------------------------------------------------------
# threshold_curve.

def test_threshold_curve_frozen():
    curve = threshold_curve([0.0, 0.1], [0.05])
    assert curve == ((0.05, 0.5),)


def test_threshold_curve_zero_threshold_counts_exact_hits():
    curve = threshold_curve([0.0, 0.1, -0.0], [0.0])
    assert curve == ((0.0, 2.0 / 3.0),)


def test_threshold_curve_uses_absolute_residuals():
    assert threshold_curve([-0.2], [0.3]) == ((0.3, 1.0),)


def test_threshold_curve_rejects_empty():
    with pytest.raises(ValueError):
        threshold_curve([], [0.1])


@given(st.lists(st.floats(-10, 10), min_size=1, max_size=20),
       st.lists(st.floats(0, 20), min_size=1, max_size=10))
def test_threshold_curve_monotone(residuals, thresholds):
    curve = threshold_curve(residuals, sorted(thresholds))
    fracs = [f for _, f in curve]
    assert all(0.0 <= f <= 1.0 for f in fracs)
    assert fracs == sorted(fracs)


# ---------------------------------------------------------------------------
# compute_metrics.

def test_ground_truth_rejects_nonpositive_camera():
    with pytest.raises(ValueError):
        GroundTruth(cam_height_m=0.0, object_heights_m=(1.7,))


def test_compute_metrics_camera_error():
    report = compute_metrics(_estimate(cam=1.6),
                             GroundTruth(1.7, (1.7,)), [0.4])
    assert report.e_cam == (pytest.approx(0.1),)
    assert report.e_obj == (0.0,)
    assert report.l_vt == (0.0,)


def test_compute_metrics_perfect_estimate():
    report = compute_metrics(_estimate(cam=2.0, heights=(1.5, 1.8)),
                             GroundTruth(2.0, (1.5, 1.8)), [0.4, 0.4])
    assert report.e_cam == (0.0,)
    assert report.e_obj == (0.0, 0.0)


def test_compute_metrics_upright_flag_switches_height_list():
    est = _estimate(heights=(1.2,), upright=(1.7,))
    truth = GroundTruth(1.6, (1.7,))
    assert compute_metrics(est, truth, [0.4],
                           compare_upright=True).e_obj == (0.0,)
    folded = compute_metrics(est, truth, [0.4]).e_obj[0]
    assert folded == pytest.approx(0.5)


def test_compute_metrics_indices_pick_ground_truth_slots():
    est = _estimate(heights=(1.7,))
    truth = GroundTruth(1.6, (99.0, 1.7))
    report = compute_metrics(est, truth, [0.9, 0.4], indices=[1])
    assert report.e_obj == (0.0,)
    assert report.l_vt == (0.0,)


def test_compute_metrics_correspondence_mismatch():
    est = _estimate(heights=(1.7, 1.8))
    truth = GroundTruth(1.6, (1.7, 1.8))
    with pytest.raises(ValueError, match="correspondence"):
        compute_metrics(est, truth, [0.4, 0.4], indices=[0])
    with pytest.raises(ValueError, match="correspondence"):
        compute_metrics(est, truth, [0.4, 0.4], indices=[0, 5])
    with pytest.raises(ValueError, match="1 detected tops for 2"):
        compute_metrics(est, truth, [0.4])


def test_compute_metrics_skips_none_residuals():
    est = _estimate(heights=(1.7, 1.8), tops=(0.25, None))
    report = compute_metrics(est, GroundTruth(1.6, (1.7, 1.8)), [0.5, 0.9])
    assert report.l_vt == (0.25,)


@pytest.mark.parametrize("stem", [
    "scene_0000", "scene_0000.pgm", "scene_0000.pgm-fixed", "skeletons",
    "skeletons.pgm", "skeletons.pgm-fixed"])
def test_l_vt_of_the_tops_equals_that_of_the_schema_2_residuals(stem):
    # The two files were written by the same solve; a residual was the
    # detected minus the reprojected top, and the tops keep every bit.
    doc = parse_document((_FIXTURES / f"{stem.split('.')[0]}.json"
                          ).read_bytes())
    res = parse_results((_FIXTURES / f"{stem}.results.json").read_bytes())
    report = compute_metrics(res.estimate, doc.ground_truth,
                             doc.detections.v_top.tolist(),
                             indices=res.source_indices)
    old = json.loads((_FIXTURES / f"{stem}.v2.results.json").read_text())
    assert report.l_vt == tuple(abs(r) for r in old["estimate"]["residuals"]
                                if r is not None)
    assert report.l_vt


# ---------------------------------------------------------------------------
# Aggregation.

def test_aggregate_reports_pools_samples():
    a = MetricReport(e_cam=(0.1,), e_obj=(0.2, 0.3), l_vt=(0.0,))
    b = MetricReport(e_cam=(0.4,), e_obj=(0.5,), l_vt=())
    pooled = aggregate_reports([a, b])
    assert pooled.e_cam == (0.1, 0.4)
    assert pooled.e_obj == (0.2, 0.3, 0.5)
    assert pooled.l_vt == (0.0,)


def test_aggregate_reports_rejects_empty():
    with pytest.raises(ValueError):
        aggregate_reports([])


def test_aggregates_mapping():
    report = MetricReport(e_cam=(0.1, 0.3), e_obj=(), l_vt=(1.0,))
    agg = report.aggregates()
    assert agg["e_cam"] == (pytest.approx(0.2), pytest.approx(0.1), 0.1)
    assert agg["e_obj"] is None
    assert agg["l_vt"] == (1.0, 0.0, 1.0)
