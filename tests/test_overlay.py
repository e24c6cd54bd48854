"""SVG overlay rendering tests.

The overlay is plain text with fixed ordering and 3-decimal coordinates,
so byte equality is the determinism check.  Geometry is spot-checked by
parsing rect attributes back out of the markup.
"""

import json
import math
import re

import pytest

from scenescale.documents import OverlayConfig, parse_document
from scenescale.geometry import CameraParams, GroundObject, project_vertical
from scenescale.overlay import render_overlay
from scenescale.solver import LayerTrace, SceneEstimate, solve_scene

_DETECTED = "#2e86ab"
_REPROJECTED = "#f6ae2d"
_REFERENCE = "#8d99ae"


def _rects(svg: str, color: str):
    """(x, y, w, h) of every rect stroked in the given color."""
    out = []
    pattern = (r'<rect x="([-\d.]+)" y="([-\d.]+)" width="([-\d.]+)" '
               r'height="([-\d.]+)" fill="none" stroke="%s"' % color)
    for m in re.finditer(pattern, svg):
        out.append(tuple(float(g) for g in m.groups()))
    return out


def _doc_and_estimate(n: int = 2):
    camera = CameraParams.from_fov(0.0, math.radians(60.0), 1.6, 4.0 / 3.0, 1.0)
    dets = []
    for k in range(n):
        span = project_vertical(camera, GroundObject(8.0 + 3.0 * k, 1.70))
        dets.append({"category": "person",
                     "box": {"u_left": 0.3 + 0.25 * k,
                             "u_right": 0.42 + 0.25 * k,
                             "v_top": span.v_top, "v_bottom": span.v_bottom}})
    doc = parse_document(json.dumps({
        "schema_version": 1,
        "image": {"width_px": 640, "height_px": 480},
        "calibration": {"fov_rad": math.radians(60.0), "v0": 0.5},
        "detections": dets,
    }))
    est = solve_scene(0.5, math.radians(60.0), doc.detections)
    return doc, est


# ---------------------------------------------------------------------------

def test_overlay_is_deterministic():
    doc, est = _doc_and_estimate()
    assert render_overlay(doc, est) == render_overlay(doc, est)


def test_overlay_structure():
    doc, est = _doc_and_estimate()
    svg = render_overlay(doc, est)
    assert svg.startswith("<svg ") and svg.endswith("</svg>\n")
    assert len(_rects(svg, _DETECTED)) == 2
    assert len(_rects(svg, _REPROJECTED)) == 2
    assert len(_rects(svg, _REFERENCE)) == 2
    assert 'stroke-dasharray="6,4"' in svg
    assert f"cam {est.cam_height_m:.2f}m (cascade)" in svg
    assert f"{est.heights_m[0]:.2f}m" in svg
    assert 'stroke-width="1.500"' in svg


def test_overlay_horizon_row():
    doc, est = _doc_and_estimate()
    svg = render_overlay(doc, est)
    m = re.search(r'<line x1="0" y1="([\d.]+)"', svg)
    assert m and float(m.group(1)) == pytest.approx(0.5 * 480, abs=1e-3)


def test_overlay_detected_rect_matches_document():
    doc, est = _doc_and_estimate()
    svg = render_overlay(doc, est)
    x, y, w, h = _rects(svg, _DETECTED)[0]
    det = doc.detections
    # x in pixels is u * image height (shared normalization unit).
    assert x == pytest.approx(det.u_left[0] * 480, abs=1e-3)
    assert y == pytest.approx(det.v_top[0] * 480, abs=1e-3)
    assert w == pytest.approx((det.u_right[0] - det.u_left[0]) * 480, abs=1e-3)
    assert h == pytest.approx((det.v_bottom[0] - det.v_top[0]) * 480, abs=1e-3)


def test_reference_bar_scales_with_configured_height():
    # Level camera: projected height at fixed depth is linear in object
    # height, so a 1.00 m bar next to a 1.70 m person measures 1/1.7 of
    # the box.
    doc, est = _doc_and_estimate(n=1)
    svg = render_overlay(doc, est)
    det_h = _rects(svg, _DETECTED)[0][3]
    ref = _rects(svg, _REFERENCE)[0]
    assert ref[3] == pytest.approx(det_h / 1.70, rel=1e-3)
    # Bar sits in the gap right of the box, bottom-aligned on the ground.
    assert ref[0] == pytest.approx(doc.detections.u_right[0] * 480 + 6.0,
                                   abs=1e-3)
    assert ref[1] + ref[3] == pytest.approx(
        doc.detections.v_bottom[0] * 480, abs=1e-2)
    taller = render_overlay(doc, est, config=OverlayConfig(reference_height_m=2.0))
    ref2 = _rects(taller, _REFERENCE)[0]
    assert ref2[3] == pytest.approx(2.0 * ref[3], rel=1e-3)


def test_source_indices_select_detections():
    doc, _ = _doc_and_estimate(n=2)
    est = solve_scene(0.5, math.radians(60.0), doc.detections.take([1]))
    svg = render_overlay(doc, est, source_indices=(1,))
    rects = _rects(svg, _DETECTED)
    assert len(rects) == 1
    assert rects[0][0] == pytest.approx(doc.detections.u_left[1] * 480,
                                        abs=1e-3)


def test_source_indices_count_mismatch_raises():
    doc, est = _doc_and_estimate(n=2)
    with pytest.raises(ValueError, match="source indices"):
        render_overlay(doc, est, source_indices=(0,))


def test_excluded_slots_get_no_reference_bar():
    doc, _ = _doc_and_estimate(n=2)
    heights = (1.7, 1.7)
    trace = LayerTrace(layer=0, cam_height_m=1.6, l_vt=0.0, prior_loss=0.0,
                       total_loss=0.0)
    est = SceneEstimate(method="cascade", cam_height_m=1.6,
                        heights_m=heights, upright_heights_m=heights,
                        upright_ratios=(1.0, 1.0),
                        spans=(None,
                               (doc.detections.v_top[1],
                                doc.detections.v_bottom[1])),
                        residuals=(None, 0.0),
                        excluded=((0, "zero-span"),), converged=True,
                        ill_posed=False, trace=(trace,))
    svg = render_overlay(doc, est)
    assert len(_rects(svg, _DETECTED)) == 2
    assert len(_rects(svg, _REPROJECTED)) == 1
    assert len(_rects(svg, _REFERENCE)) == 1
