"""Which detections an estimator can use: one rule, `geometry.usable_boxes`,
shared by the cascade's initialization and layers and by both baselines.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scenescale import geometry
from scenescale.baselines import pgm_fixed_height, pgm_full
from scenescale.documents import parse_document
from scenescale.geometry import (CameraParams, GroundObject,
                                 horizon_from_pitch, project_vertical)
from scenescale.solver import (DetectionBox, RefinementConfig,
                               classify_boxes, scene_arrays, solve_scene)

_FIXTURES = Path(__file__).parent / "fixtures"

# Bottom offsets from the horizon (v grows downward: negative is above
# it).  Each one stays at least 1e-7 from the 1e-6 band edge, because the
# cascade reads the horizon back from the pitch it derives from v0.
_OFFSETS = (-0.2, -1e-3, -5e-7, 5e-7, 2e-6, 1e-3, 0.2, 0.45)
_SPANS = st.one_of(st.sampled_from((1e-12, 1e-4)), st.floats(0.05, 0.5))


def _outcome(estimate):
    """The result of `estimate()`, or None when it raises ValueError."""
    try:
        return estimate()
    except ValueError:
        return None


def _numbers(est) -> list[float]:
    out = [est.cam_height_m, *est.heights_m, *est.upright_heights_m,
           *est.upright_ratios]
    for t in est.trace:
        out += [t.cam_height_m, *t.heights_m, t.l_vt, t.prior_loss,
                t.total_loss]
        out += [v for span in t.spans if span is not None for v in span]
        out += [r for r in t.residuals if r is not None]
    return out


@given(pitch_deg=st.floats(-40.0, 40.0), fov_deg=st.floats(20.0, 120.0),
       boxes=st.lists(st.tuples(st.sampled_from(_OFFSETS), _SPANS,
                                st.sampled_from(("person", "car")),
                                st.sampled_from((0.5, 1.0, 2.0))),
                      min_size=1, max_size=8))
@settings(deadline=None, max_examples=200)
def test_every_method_uses_the_same_detections(pitch_deg, fov_deg, boxes):
    fov = math.radians(fov_deg)
    v0 = 0.5 + (geometry.focal_from_fov(fov, 1.0)
                * math.tan(math.radians(pitch_deg)))
    dets = [DetectionBox(u_left=0.1, u_right=0.2, v_top=v0 + off - span,
                         v_bottom=v0 + off, category=category, weight=weight)
            for off, span, category, weight in boxes]
    full = _outcome(lambda: pgm_full(v0, fov, dets))
    fixed = _outcome(lambda: pgm_fixed_height(v0, fov, dets))
    start = _outcome(lambda: _start(v0, fov, dets))
    cascade = _outcome(lambda: solve_scene(v0, fov, dets))
    assert (full is None) == (fixed is None)
    # The cascade refuses a scene exactly when it cannot start it.
    assert (start is None) == (cascade is None)
    if full is None:
        assert cascade is None
        return
    assert full.excluded == fixed.excluded
    assert cascade is None or cascade.excluded == full.excluded
    for est in (full, fixed, start, cascade):
        if est is not None:
            assert all(map(math.isfinite, _numbers(est)))
    assert full.cam_height_m > 0 and min(full.heights_m) > 0
    assert fixed.cam_height_m > 0


def _start(v0, fov, boxes):
    """The cascade's start: its estimate after no refine layer."""
    return solve_scene(v0, fov, boxes, config=RefinementConfig(num_layers=0))


def _camera_boxes():
    """Three people seen by a level 1.6 m camera, and its horizon."""
    camera = CameraParams.from_fov(0.0, math.radians(60.0), 1.6, 1.0, 1.0)
    boxes = []
    for depth in (5.0, 8.0, 12.0):
        span = project_vertical(camera, GroundObject(depth, 1.7))
        boxes.append(DetectionBox(u_left=0.4, u_right=0.5, v_top=span.v_top,
                                  v_bottom=span.v_bottom))
    return camera, boxes, horizon_from_pitch(camera).v0


def _estimates(camera, v0, boxes):
    fov = camera.fov_rad
    return (solve_scene(v0, fov, boxes), pgm_full(v0, fov, boxes),
            pgm_fixed_height(v0, fov, boxes))


@pytest.mark.parametrize("offset, reason", [
    (-0.1, "bottom-above-horizon"), (5e-7, "bottom-on-horizon")])
def test_a_sky_or_band_box_is_excluded_by_every_method(offset, reason):
    camera, boxes, v0 = _camera_boxes()
    odd = DetectionBox(u_left=0.1, u_right=0.2, v_top=v0 + offset - 0.2,
                       v_bottom=v0 + offset)
    for est in _estimates(camera, v0, boxes + [odd]):
        assert est.excluded == ((3, reason),)
        assert est.cam_height_m == pytest.approx(1.6, rel=1e-9)
        assert min(est.heights_m) > 0
    start = _start(v0, camera.fov_rad, boxes + [odd])
    assert start.cam_height_m == pytest.approx(1.6, rel=1e-12)


def test_three_sky_boxes_leave_the_initial_camera_height_alone():
    camera, boxes, v0 = _camera_boxes()
    sky = DetectionBox(u_left=0.1, u_right=0.2, v_top=v0 - 0.3,
                       v_bottom=v0 - 0.1)
    start = _start(v0, camera.fov_rad, boxes + [sky] * 3)
    assert start.cam_height_m == pytest.approx(1.6, rel=1e-12)


def test_nothing_usable_gives_one_message_naming_the_reasons():
    camera, _, v0 = _camera_boxes()
    boxes = [DetectionBox(u_left=0.1, u_right=0.2, v_top=v0 - 0.3,
                          v_bottom=v0 - 0.1),
             DetectionBox(u_left=0.1, u_right=0.2, v_top=v0 - 0.2,
                          v_bottom=v0 + 5e-7),
             DetectionBox(u_left=0.1, u_right=0.2, v_top=0.9 - 1e-12,
                          v_bottom=0.9)]
    message = ("no usable detections: 1 bottom-above-horizon, "
               "1 bottom-on-horizon, 1 zero-span")
    for estimate in (lambda: solve_scene(v0, camera.fov_rad, boxes),
                     lambda: pgm_full(v0, camera.fov_rad, boxes),
                     lambda: pgm_fixed_height(v0, camera.fov_rad, boxes)):
        with pytest.raises(ValueError) as info:
            estimate()
        assert str(info.value) == message


def test_the_cascade_excludes_bottoms_behind_the_camera():
    # A horizon far above the image tilts the camera almost straight
    # down: every bottom ray meets the ground behind the camera.
    payload = json.loads((_FIXTURES / "scene_0000.json").read_text())
    payload["calibration"] = {"fov_rad": payload["calibration"]["fov_rad"],
                              "v0": -50.0}
    doc = parse_document(json.dumps(payload))
    n = len(doc.detections)
    camera = CameraParams.from_fov(
        geometry.pitch_from_horizon(-50.0, geometry.focal_from_fov(
            doc.calibration.fov_rad, 1.0), 1.0), doc.calibration.fov_rad,
        1.6, 1.0, 1.0)
    active, excluded = classify_boxes(camera,
                                      scene_arrays(doc.detections))
    assert not any(active)
    assert excluded == tuple((i, "bottom-behind-camera") for i in range(n))
    with pytest.raises(ValueError,
                       match=f"^no usable detections: {n} bottom-behind-camera$"):
        solve_scene(-50.0, doc.calibration.fov_rad, doc.detections)


def test_usable_boxes_names_the_first_reason_each_box_meets():
    v0 = 0.4
    v_bottom = np.array([0.7, 0.7, v0 + 5e-7, v0 + 5e-7, v0 - 0.1, 0.9, 0.8])
    v_top = v_bottom - np.array([0.2, 1e-10, 1e-10, 0.1, 0.1, 0.2, 0.2])
    depths = np.array([5.0, 5.0, np.inf, np.inf, -3.0, -2.0, np.nan])
    mask, excluded = geometry.usable_boxes(v0, v_top, v_bottom, depths)
    assert mask.tolist() == [True] + [False] * 6
    assert excluded == ((1, "zero-span"), (2, "zero-span"),
                        (3, "bottom-on-horizon"), (4, "bottom-above-horizon"),
                        (5, "bottom-behind-camera"),
                        (6, "bottom-behind-camera"))
    # Without depths the rule is the horizon-ratio model's.
    mask, excluded = geometry.usable_boxes(v0, v_top, v_bottom)
    assert mask.tolist() == [True] + [False] * 4 + [True, True]
    assert [i for i, _ in excluded] == [1, 2, 3, 4]


# Every refusal of a method names one of these reasons.
_REASONS = ("no usable detections: ",
            "no usable detection fixes the scale: the ray through the top of "
            "each of the ")


def _fuzz_scene(rng, pitch_deg=(-40.0, 40.0), fov_deg=(20.0, 120.0)):
    """v0, fov and 1-6 random boxes of a camera pitched within +-40 deg
    with a field of view of 20-120 deg (or the given ranges); a third of
    the boxes anywhere around the image, the rest inside it."""
    pitch = math.radians(rng.uniform(*pitch_deg))
    fov = math.radians(rng.uniform(*fov_deg))
    v0 = 0.5 + geometry.focal_from_fov(fov, 1.0) * math.tan(pitch)
    dets = []
    for _ in range(rng.integers(1, 7)):
        if rng.random() < 1 / 3:
            v_bottom = rng.uniform(-0.2, 1.2)
            v_top = v_bottom - rng.uniform(0.01, 1.0)
        else:
            v_top, v_bottom = np.sort(rng.uniform(0.0, 1.0, 2))
            v_top -= 1e-3
        dets.append(DetectionBox(
            u_left=0.1, u_right=0.3, v_top=float(v_top),
            v_bottom=float(v_bottom),
            category=("person", "car")[rng.integers(2)],
            weight=float(rng.uniform(0.2, 3.0))))
    return v0, fov, dets


def test_every_method_answers_in_finite_numbers_or_names_its_reason():
    rng = np.random.default_rng(11)
    refused = dict.fromkeys(("cascade", "pgm", "pgm-fixed"), 0)
    for _ in range(400):
        v0, fov, dets = _fuzz_scene(rng)
        for method, estimate in (
                ("cascade", lambda: solve_scene(v0, fov, dets)),
                ("pgm", lambda: pgm_full(v0, fov, dets)),
                ("pgm-fixed", lambda: pgm_fixed_height(v0, fov, dets))):
            try:
                est = estimate()
            except ValueError as exc:
                assert str(exc).startswith(_REASONS), str(exc)
                refused[method] += 1
                continue
            assert all(map(math.isfinite, _numbers(est))), (method, v0, dets)
            assert est.cam_height_m > 0
    # Scenes with boxes to use are the common case, for every method.
    assert max(refused.values()) < 200


def test_every_method_excludes_the_same_boxes_behind_the_camera():
    # Given the field of view, the baselines exclude the boxes whose
    # bottom meets the ground behind the camera, as the cascade does.
    # Wide views pitched down put some bottom rays past the nadir.
    rng = np.random.default_rng(12)
    behind = compared = 0
    for _ in range(300):
        v0, fov, dets = _fuzz_scene(rng, (-40.0, -20.0), (100.0, 120.0))
        answers = [_outcome(estimate) for estimate in (
            lambda: solve_scene(v0, fov, dets),
            lambda: pgm_full(v0, fov, dets),
            lambda: pgm_fixed_height(v0, fov, dets))]
        if None in answers:
            continue
        compared += 1
        cascade, full, fixed = answers
        assert full.excluded == fixed.excluded == cascade.excluded
        behind += any(r == "bottom-behind-camera" for _, r in full.excluded)
    assert compared > 100 and behind > 10
