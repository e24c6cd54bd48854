"""Which detections an estimator can use: one rule, `geometry.usable_boxes`,
applied by `solver.classify_boxes` for the cascade's initialization and
layers and for both baselines.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from scenescale import geometry
from scenescale.baselines import pgm_fixed_height, pgm_full
from scenescale.documents import parse_document
from scenescale.geometry import (CameraParams, GroundObject,
                                 horizon_from_pitch, project_vertical)
from scenescale.solver import (DetectionBox, RefinementConfig, SceneArrays,
                               classify_boxes, scene_arrays, solve_scene)

_FIXTURES = Path(__file__).parent / "fixtures"

# Bottom offsets from the horizon (v grows downward: negative is above
# it), each with a step of 0; and v0 + 1e-6, the edge of the horizon
# band, with a step of one float down, none or one float up.
_BOTTOMS = st.one_of(
    st.tuples(st.sampled_from((-0.2, -1e-3, -5e-7, 5e-7, 2e-6, 1e-3, 0.2,
                               0.45)), st.just(0)),
    st.tuples(st.just(1e-6), st.sampled_from((-1, 0, 1))))
_SPANS = st.one_of(st.sampled_from((1e-12, 1e-4)), st.floats(0.05, 0.5))


def _bottom(v0: float, offset: float, step: int) -> float:
    """v0 + offset, or its float neighbour below (step -1) or above (1)."""
    v = v0 + offset
    return math.nextafter(v, step * math.inf) if step else v


def _outcome(estimate):
    """The result of `estimate()`, or None when it raises ValueError."""
    try:
        return estimate()
    except ValueError:
        return None


def _numbers(est, dets) -> list[float]:
    """Every number of `est`, and the residual (detected minus reprojected
    top) of each box of `dets` it uses."""
    out = [est.cam_height_m, *est.heights_m, *est.upright_heights_m,
           *est.upright_ratios]
    out += [t for t in est.tops if t is not None]
    out += [d.v_top - t for d, t in zip(dets, est.tops) if t is not None]
    for t in est.trace:
        out += [t.cam_height_m, t.l_vt, t.prior_loss, t.total_loss]
    return out


@given(pitch_deg=st.floats(-40.0, 40.0), fov_deg=st.floats(20.0, 120.0),
       boxes=st.lists(st.tuples(_BOTTOMS, _SPANS,
                                st.sampled_from(("person", "car")),
                                st.sampled_from((0.5, 1.0, 2.0))),
                      min_size=1, max_size=8))
@settings(deadline=None, max_examples=200)
def test_every_method_uses_the_same_detections(pitch_deg, fov_deg, boxes):
    fov = math.radians(fov_deg)
    v0 = 0.5 + (geometry.focal_from_fov(fov, 1.0)
                * math.tan(math.radians(pitch_deg)))
    bottoms = [_bottom(v0, *at) for at, _, _, _ in boxes]
    dets = [DetectionBox(u_left=0.1, u_right=0.2, v_top=bottom - span,
                         v_bottom=bottom, category=category, weight=weight)
            for bottom, (_, span, category, weight) in zip(bottoms, boxes)]
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
            assert all(map(math.isfinite, _numbers(est, dets)))
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


def test_a_bottom_at_the_band_edge_gets_one_answer_from_every_method():
    # Box 1's bottom lies within a few floats of v0 + 1e-6, so which side
    # of the band edge it falls on rests on the last bits of the horizon.
    # Every method reads it from the camera built from v0 and the field
    # of view, so all three agree.
    fov, v0, vb = 0.4655576382979115, 0.20991658131711746, 0.20991758131711744
    boxes = [DetectionBox(0.1, 0.2, v0 + 0.1, v0 + 0.3),
             DetectionBox(0.3, 0.35, vb - 0.1, vb)]
    _, excluded = classify_boxes(geometry.camera_from_horizon(v0, fov),
                                 scene_arrays(boxes))
    for estimate in (solve_scene, pgm_full, pgm_fixed_height):
        assert estimate(v0, fov, boxes).excluded == excluded


def _depth_classification(camera, arrays):
    """The reference for `classify_boxes`: the rule given each bottom's
    full ground depth in place of the depth's numerator."""
    with np.errstate(divide="ignore", invalid="ignore"):
        depth = geometry.depths_from_bottoms(camera, arrays.v_bottom)
    return geometry.usable_boxes(horizon_from_pitch(camera).v0, arrays.v_top,
                                 arrays.v_bottom, depth)


@given(pitch_deg=st.floats(-80.0, 80.0), fov_deg=st.floats(10.0, 150.0),
       principal_v=st.floats(0.0, 1.0), image_h_px=st.sampled_from((1, 480)),
       boxes=st.lists(st.tuples(st.floats(-0.5, 2.0), _SPANS), min_size=1,
                      max_size=8))
@settings(deadline=None, max_examples=300)
def test_classify_boxes_keeps_the_boxes_with_a_ground_depth_in_front(
        pitch_deg, fov_deg, principal_v, image_h_px, boxes):
    pitch = math.radians(pitch_deg)
    camera = CameraParams.from_fov(pitch, math.radians(fov_deg), 1.6,
                                   image_h_px, image_h_px,
                                   principal_v * image_h_px)
    f = camera.focal_px / image_h_px
    v0 = horizon_from_pitch(camera).v0
    # Bottoms from above the horizon to past the row where the ground
    # ray turns behind the camera, 2f / |sin(2 pitch)| below the horizon.
    reach = 2.0 * f / max(abs(math.sin(2.0 * pitch)), 1e-3)
    t, span = np.array(boxes).T
    v_bottom = v0 + t * reach
    ones = np.ones_like(t)
    arrays = SceneArrays(v_bottom - span, v_bottom, ones, ones, ones)
    numerator = f * f + (arrays.v_bottom - principal_v) * (v0 - principal_v)
    assume(np.all(np.abs(numerator) > 1e-9))
    assume(np.all(np.abs(arrays.v_bottom - v0 - 1e-6) > 1e-9))
    mask, excluded = classify_boxes(camera, arrays)
    expect_mask, expect_excluded = _depth_classification(camera, arrays)
    assert mask.tolist() == expect_mask.tolist()
    assert excluded == expect_excluded


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
            assert all(map(math.isfinite, _numbers(est, dets))), (
                method, v0, dets)
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
