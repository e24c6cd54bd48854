"""Scene solver tests: initialization, losses, refinement, full solves.

Scenes below are built either by hand at pitch zero (where votes are
exact) or through the synthetic generator with known ground truth.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scenescale import solver, synth
from scenescale.geometry import CameraParams, GroundObject, \
    horizon_from_pitch, project_vertical
from scenescale.priors import (DEFAULT_PRIORS, COCO_KEYPOINT_NAMES,
                               CategoryPrior, KeypointSet, prior_penalty)
from scenescale.solver import (DetectionBox, RefinementConfig, SceneState,
                               box_ratios, classify_boxes, init_camera_height,
                               refine_layer, reprojection_loss, scene_arrays,
                               solve_scene, total_loss, total_loss_gradient,
                               weighted_median)


def _box_for(camera: CameraParams, depth: float, height: float,
             category: str = "person", du: float = 0.0,
             keypoints=None, weight: float = 1.0) -> DetectionBox:
    span = project_vertical(camera, GroundObject(depth, height))
    return DetectionBox(u_left=0.4 + du, u_right=0.5 + du,
                        v_top=span.v_top, v_bottom=span.v_bottom,
                        category=category, keypoints=keypoints, weight=weight)


def _camera(pitch_deg=0.0, fov_deg=60.0, cam_height=1.6) -> CameraParams:
    return CameraParams.from_fov(math.radians(pitch_deg),
                                 math.radians(fov_deg), cam_height, 1.0, 1.0)


def _scene_inputs(seed: int, n_objects: int = 5, noise=None,
                  ranges: synth.SceneRanges | None = None):
    scene = synth.sample_scene(ranges or synth.SceneRanges(),
                               n_objects=n_objects, seed=seed)
    boxes = synth.render_detections(scene, noise)
    cam = scene.camera
    cam_n = CameraParams.from_fov(cam.pitch_rad, cam.fov_rad, cam.cam_height_m,
                                  cam.image_w_px / cam.image_h_px, 1.0)
    return scene, boxes, horizon_from_pitch(cam_n).v0


# ---------------------------------------------------------------------------
# Weighted median.

def test_weighted_median_odd():
    assert weighted_median([3.0, 1.0, 2.0], [1.0, 1.0, 1.0]) == 2.0


def test_weighted_median_even_takes_lower_middle():
    assert weighted_median([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 1.0]) == 2.0


def test_weighted_median_respects_weights():
    assert weighted_median([1.0, 10.0], [5.0, 1.0]) == 1.0


def test_weighted_median_rejects_empty_and_bad_weights():
    with pytest.raises(ValueError):
        weighted_median([], [])
    with pytest.raises(ValueError):
        weighted_median([1.0], [0.0])


# ---------------------------------------------------------------------------
# Scene arrays.

def test_scene_arrays_layout_and_order():
    b1 = DetectionBox(u_left=0.1, u_right=0.2, v_top=0.6, v_bottom=0.7,
                      category="person")
    b2 = DetectionBox(u_left=0.3, u_right=0.5, v_top=0.55, v_bottom=0.9,
                      category="car", weight=2.5)
    arrays = scene_arrays([b1, b2])
    assert len(arrays) == 2
    np.testing.assert_array_equal(arrays.v_top, [0.6, 0.55])
    np.testing.assert_array_equal(arrays.v_bottom, [0.7, 0.9])
    np.testing.assert_array_equal(arrays.mu, [1.70, 1.59])
    np.testing.assert_array_equal(arrays.sigma, [0.09, 0.21])
    np.testing.assert_array_equal(arrays.weight, [1.0, 2.5])
    with pytest.raises(ValueError):
        arrays.mu[0] = 2.0
    # A prebuilt struct passes through unchanged, whatever the priors.
    assert scene_arrays(arrays, {"car": CategoryPrior("car", 4.0, 1.0)}) \
        is arrays


def test_scene_arrays_unknown_category_names_known_ones():
    box = DetectionBox(u_left=0.1, u_right=0.2, v_top=0.6, v_bottom=0.7,
                       category="bike")
    with pytest.raises(ValueError, match="no height prior for category "
                       "'bike'; known: \\['car', 'person'\\]"):
        scene_arrays([box])


def test_helpers_accept_box_lists_and_scene_arrays_alike():
    cam = _camera(pitch_deg=5.0, cam_height=1.9)
    boxes = [_box_for(cam, 6.0, 1.7, weight=2.0), _box_for(cam, 11.0, 1.6),
             DetectionBox(u_left=0.1, u_right=0.2, v_top=0.3, v_bottom=0.42,
                          category="car")]
    arrays = scene_arrays(boxes)
    state = _state_for(cam, boxes, [1.8, 1.5, 1.6])
    heights = [1.8, 1.5, 1.6]
    assert classify_boxes(cam, arrays) == classify_boxes(cam, boxes)
    assert init_camera_height(0.4, arrays) == init_camera_height(0.4, boxes)
    assert total_loss(state, arrays) == total_loss(state, boxes)
    np.testing.assert_array_equal(total_loss_gradient(state, arrays),
                                  total_loss_gradient(state, boxes))
    assert refine_layer(state, arrays) == refine_layer(state, boxes)
    rep_a = reprojection_loss(cam, heights, arrays)
    rep_b = reprojection_loss(cam, heights, boxes)
    np.testing.assert_array_equal(rep_a.residuals, rep_b.residuals)
    assert (rep_a.l_vt, rep_a.excluded) == (rep_b.l_vt, rep_b.excluded)


# ---------------------------------------------------------------------------
# Initialization.

def test_init_exact_on_zero_pitch_prior_mean_scene():
    cam = _camera(cam_height=1.6)
    boxes = [_box_for(cam, z, 1.70) for z in (5.0, 8.0, 13.0)]
    h0 = init_camera_height(0.5, boxes)
    assert h0 == pytest.approx(1.6, abs=1e-9)


def test_init_median_shrugs_off_outlier_vote():
    cam = _camera(cam_height=1.6)
    boxes = [_box_for(cam, 5.0, 1.70), _box_for(cam, 8.0, 1.70)]
    # a nearly horizon-touching bottom makes this box vote absurdly high
    v0 = 0.5
    outlier = DetectionBox(u_left=0.1, u_right=0.2, v_top=v0 + 0.001,
                           v_bottom=v0 + 0.002, category="person")
    h0 = init_camera_height(v0, boxes + [outlier])
    assert h0 == pytest.approx(1.6, abs=1e-9)


def test_init_clamps_votes_to_bounds():
    # a sliver of a box far below the horizon votes in the thousands
    v0 = 0.5
    sliver = DetectionBox(u_left=0.1, u_right=0.2, v_top=0.7,
                          v_bottom=0.7 + 1e-4, category="person")
    h0 = init_camera_height(v0, [sliver])
    assert h0 == RefinementConfig().cam_height_bounds[1]


def test_init_rejects_all_degenerate():
    v0 = 0.5
    flat = DetectionBox(u_left=0.1, u_right=0.2, v_top=0.8 - 1e-12,
                        v_bottom=0.8, category="person")
    on_horizon = DetectionBox(u_left=0.1, u_right=0.2, v_top=0.45,
                              v_bottom=v0 + 1e-9, category="person")
    with pytest.raises(ValueError):
        init_camera_height(v0, [flat, on_horizon])


def test_init_unknown_category_rejected():
    box = DetectionBox(u_left=0.1, u_right=0.2, v_top=0.6, v_bottom=0.7,
                       category="giraffe")
    with pytest.raises(ValueError):
        init_camera_height(0.5, [box])


# ---------------------------------------------------------------------------
# Reprojection loss.

def test_reprojection_zero_at_ground_truth():
    cam = _camera(pitch_deg=8.0, cam_height=2.2)
    heights = [1.55, 1.85, 1.7]
    boxes = [_box_for(cam, z, h) for z, h in zip((4.0, 9.0, 17.0), heights)]
    rep = reprojection_loss(cam, heights, boxes)
    assert rep.l_vt == pytest.approx(0.0, abs=1e-9)


def test_reprojection_increases_when_a_height_is_halved():
    cam = _camera(pitch_deg=8.0, cam_height=2.2)
    heights = [1.55, 1.85, 1.7]
    boxes = [_box_for(cam, z, h) for z, h in zip((4.0, 9.0, 17.0), heights)]
    base = reprojection_loss(cam, heights, boxes).l_vt
    bent = list(heights)
    bent[1] *= 0.5
    assert reprojection_loss(cam, bent, boxes).l_vt > base + 1e-4


def test_reprojection_excludes_horizon_side_boxes():
    cam = _camera(pitch_deg=0.0, cam_height=1.6)
    good = _box_for(cam, 8.0, 1.7)
    sky = DetectionBox(u_left=0.1, u_right=0.2, v_top=0.3, v_bottom=0.42,
                       category="person")
    rep = reprojection_loss(cam, [1.7, 1.7], [good, sky])
    assert math.isnan(rep.residuals[1])
    assert rep.l_vt == pytest.approx(abs(rep.residuals[0]), abs=1e-12)


def test_classify_boxes_reports_reasons():
    cam = _camera(pitch_deg=0.0, cam_height=1.6)
    good = _box_for(cam, 8.0, 1.7)
    sky = DetectionBox(u_left=0.1, u_right=0.2, v_top=0.3, v_bottom=0.42,
                       category="person")
    active, excluded = classify_boxes(cam, [good, sky])
    assert active == (True, False)
    assert len(excluded) == 1 and excluded[0][0] == 1


@given(pitch_deg=st.floats(-40.0, 40.0), fov_deg=st.floats(20.0, 120.0),
       cam_height=st.floats(0.1, 50.0),
       offsets=st.lists(st.sampled_from([0.0, 1e-10, -1e-10, 2e-9, -2e-9,
                                         1e-3, -1e-3, 0.2, -0.2, 0.45]),
                        min_size=1, max_size=8))
@settings(deadline=None, max_examples=60)
# A bottom on the horizon sends its ground depth to infinity.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_reprojection_excludes_exactly_what_classify_boxes_excludes(
        pitch_deg, fov_deg, cam_height, offsets):
    cam = _camera(pitch_deg=pitch_deg, fov_deg=fov_deg, cam_height=cam_height)
    v0 = horizon_from_pitch(cam).v0
    boxes = [DetectionBox(u_left=0.1, u_right=0.2, v_top=v0 + off - 0.1,
                          v_bottom=v0 + off, category="person")
             for off in offsets]
    active, excluded = classify_boxes(cam, boxes)
    rep = reprojection_loss(cam, [1.7] * len(boxes), boxes)
    assert rep.excluded == excluded
    assert tuple(~np.isnan(rep.residuals)) == active


# ---------------------------------------------------------------------------
# Total loss and gradient.

def _state_for(cam, boxes, heights):
    active, _ = classify_boxes(cam, boxes)
    return SceneState(camera=cam, upright_heights=tuple(heights),
                      ratios=(1.0,) * len(boxes), active=active)


def test_total_loss_reduces_to_reprojection_when_prior_weight_zero():
    cam = _camera(pitch_deg=5.0, cam_height=1.9)
    boxes = [_box_for(cam, 6.0, 1.7), _box_for(cam, 11.0, 1.6)]
    state = _state_for(cam, boxes, [1.8, 1.5])
    config = RefinementConfig(prior_weight=0.0)
    rep = reprojection_loss(cam, [1.8, 1.5], boxes)
    assert total_loss(state, boxes, config=config) == pytest.approx(
        rep.l_vt, rel=1e-12)


def test_total_loss_prior_only_matches_prior_module():
    cam = _camera(pitch_deg=5.0, cam_height=1.9)
    boxes = [_box_for(cam, 6.0, 1.7), _box_for(cam, 11.0, 1.7, "car")]
    state = _state_for(cam, boxes, [1.7, 1.75])
    config = RefinementConfig(reprojection_weight=0.0, prior_weight=1.0,
                              prior_mode="log_density")
    person, car = DEFAULT_PRIORS["person"], DEFAULT_PRIORS["car"]
    expected = np.mean(prior_penalty(
        [1.7, 1.75], np.array([person.mean_m, car.mean_m]),
        np.array([person.sigma_m, car.sigma_m]), "log_density"))
    assert total_loss(state, boxes, config=config) == pytest.approx(
        expected, rel=1e-12)
    # No active object leaves no heights to average the penalty over.
    inactive = dataclasses.replace(state, active=(False, False))
    with pytest.raises(ValueError, match="no active objects"):
        total_loss(inactive, boxes, config=config)


def test_total_loss_infinite_when_top_crosses_camera_plane():
    # at pitch -30, depth 3, the top crosses once h > 2 + 3/tan(30)
    cam = _camera(pitch_deg=-30.0, cam_height=2.0)
    boxes = [_box_for(cam, 3.0, 1.7)]
    state = _state_for(cam, boxes, [7.5])
    assert total_loss(state, boxes) == math.inf


@pytest.mark.parametrize("mode", ["density", "log_density"])
def test_gradient_matches_finite_differences(mode):
    rng = np.random.default_rng(5)
    config = RefinementConfig(prior_mode=mode)
    for trial in range(20):
        scene, boxes, v0 = _scene_inputs(seed=100 + trial, n_objects=4)
        cam = CameraParams.from_fov(
            scene.camera.pitch_rad, scene.camera.fov_rad,
            scene.camera.cam_height_m * rng.uniform(0.8, 1.2),
            scene.camera.image_w_px / scene.camera.image_h_px, 1.0)
        heights = [o.height_m * rng.uniform(0.9, 1.1) for o in scene.objects]
        state = _state_for(cam, boxes, heights)
        grad = total_loss_gradient(state, boxes, config=config)

        def loss_at(x):
            cam_x = CameraParams.from_fov(cam.pitch_rad, cam.fov_rad, x[0],
                                          cam.image_w_px, cam.image_h_px)
            st_x = dataclasses.replace(state, camera=cam_x,
                                       upright_heights=tuple(x[1:]))
            return total_loss(st_x, boxes, config=config)

        x0 = np.array([cam.cam_height_m, *heights])
        eps = 1e-6
        for k in range(len(x0)):
            hi, lo = x0.copy(), x0.copy()
            hi[k] += eps
            lo[k] -= eps
            fd = (loss_at(hi) - loss_at(lo)) / (2 * eps)
            assert grad[k] == pytest.approx(fd, rel=1e-4, abs=1e-8)


# ---------------------------------------------------------------------------
# Refinement layers.

def test_layer_is_stationary_at_the_optimum():
    cam = _camera(pitch_deg=4.0, cam_height=2.0)
    boxes = [_box_for(cam, z, 1.70) for z in (4.0, 7.0, 12.0)]
    state = _state_for(cam, boxes, [1.70, 1.70, 1.70])
    out = refine_layer(state, boxes)
    assert out.camera.cam_height_m == pytest.approx(2.0, abs=1e-8)
    assert np.allclose(out.upright_heights, state.upright_heights, atol=1e-8)


def test_layer_reduces_overestimated_camera_height():
    cam_true = _camera(pitch_deg=3.0, cam_height=1.8)
    boxes = [_box_for(cam_true, z, 1.70) for z in (4.0, 8.0, 15.0)]
    cam_wrong = _camera(pitch_deg=3.0, cam_height=3.2)
    state = _state_for(cam_wrong, boxes, [1.70, 1.70, 1.70])
    out = refine_layer(state, boxes)
    assert out.camera.cam_height_m < 3.2


def test_loss_non_increasing_over_layers_on_random_scenes():
    config = RefinementConfig()
    noise = synth.NoiseModel(box_sigma=0.004)
    for seed in range(50):
        scene, boxes, v0 = _scene_inputs(seed=200 + seed, n_objects=4,
                                         noise=noise)
        est = solve_scene(v0, scene.camera.fov_rad, boxes, config=config)
        losses = [t.total_loss for t in est.trace]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


# ---------------------------------------------------------------------------
# Full solves.

def test_zero_layers_returns_initialization():
    scene, boxes, v0 = _scene_inputs(seed=42, n_objects=5)
    config = RefinementConfig(num_layers=0)
    est = solve_scene(v0, scene.camera.fov_rad, boxes, config=config)
    assert len(est.trace) == 1
    assert est.cam_height_m == pytest.approx(
        init_camera_height(v0, boxes), rel=1e-12)
    assert est.heights_m == tuple(1.70 for _ in boxes)


def test_noiseless_prior_mean_scene_recovers_camera():
    scene, _, _ = _scene_inputs(seed=9, n_objects=3)
    objects = tuple(dataclasses.replace(o, height_m=1.70)
                    for o in scene.objects)
    scene = dataclasses.replace(scene, objects=objects)
    boxes = synth.render_detections(scene)
    cam = scene.camera
    cam_n = CameraParams.from_fov(cam.pitch_rad, cam.fov_rad, cam.cam_height_m,
                                  cam.image_w_px / cam.image_h_px, 1.0)
    v0 = horizon_from_pitch(cam_n).v0
    est = solve_scene(v0, cam.fov_rad, boxes)
    rel = abs(est.cam_height_m - cam.cam_height_m) / cam.cam_height_m
    assert rel <= 1e-3


def test_permutation_invariance():
    scene, boxes, v0 = _scene_inputs(seed=77, n_objects=6)
    est = solve_scene(v0, scene.camera.fov_rad, boxes)
    perm = [3, 0, 5, 1, 4, 2]
    est_p = solve_scene(v0, scene.camera.fov_rad, [boxes[i] for i in perm])
    assert est_p.cam_height_m == pytest.approx(est.cam_height_m, abs=1e-12)
    for slot, src in enumerate(perm):
        assert est_p.heights_m[slot] == pytest.approx(
            est.heights_m[src], abs=1e-12)


@given(seed=st.integers(0, 10_000))
@settings(deadline=None, max_examples=15)
def test_permutation_invariance_property(seed):
    scene, boxes, v0 = _scene_inputs(seed=seed, n_objects=4)
    est = solve_scene(v0, scene.camera.fov_rad, boxes)
    est_r = solve_scene(v0, scene.camera.fov_rad, list(reversed(boxes)))
    assert est_r.cam_height_m == pytest.approx(est.cam_height_m, abs=1e-12)
    np.testing.assert_allclose(est_r.heights_m,
                               tuple(reversed(est.heights_m)), atol=1e-12)


def test_scale_family_spans_and_losses_identical():
    # scaling camera height, depths and heights together leaves the
    # rendered v coordinates fixed, so with no prior term every solve
    # sees the same problem
    base, _, v0 = _scene_inputs(seed=31, n_objects=4)
    traces = []
    for lam in (0.5, 1.0, 2.0):
        cam = base.camera
        cam_s = CameraParams.from_fov(cam.pitch_rad, cam.fov_rad,
                                      cam.cam_height_m * lam,
                                      cam.image_w_px, cam.image_h_px)
        objects = tuple(dataclasses.replace(o, depth_m=o.depth_m * lam,
                                            height_m=o.height_m * lam)
                        for o in base.objects)
        scene = dataclasses.replace(base, camera=cam_s, objects=objects)
        boxes = synth.render_detections(scene)
        config = RefinementConfig(prior_weight=0.0)
        est = solve_scene(v0, cam.fov_rad, boxes, config=config)
        traces.append([t.l_vt for t in est.trace])
        if lam == 0.5:
            ref_v = [(b.v_top, b.v_bottom) for b in boxes]
        else:
            for (vt, vb), b in zip(ref_v, boxes):
                assert b.v_top == pytest.approx(vt, abs=1e-9)
                assert b.v_bottom == pytest.approx(vb, abs=1e-9)
    for other in traces[1:]:
        assert np.allclose(traces[0], other, atol=1e-9)


def test_estimate_reports_exclusions_and_keeps_prior_height():
    cam = _camera(pitch_deg=0.0, cam_height=1.6)
    good = _box_for(cam, 8.0, 1.7)
    sky = DetectionBox(u_left=0.1, u_right=0.2, v_top=0.3, v_bottom=0.42,
                       category="person")
    est = solve_scene(0.5, cam.fov_rad, [good, sky])
    assert [i for i, _ in est.excluded] == [1]
    assert est.trace[-1].spans[1] is None
    assert est.trace[-1].residuals[1] is None
    assert est.heights_m[1] == pytest.approx(1.70, abs=1e-9)


def test_solve_classifies_once_and_refines_from_the_trace_loss(monkeypatch):
    # Eligibility does not depend on the camera height, so one
    # classification serves the whole solve, and each layer's loss is
    # evaluated once, by the trace, not again by the refinement.
    calls = {"classify": 0, "loss_in_refine": 0}
    classify, loss, refine = (solver.classify_boxes, solver.total_loss,
                              solver.refine_layer)
    in_refine = []

    def counting_classify(*args, **kwargs):
        calls["classify"] += 1
        return classify(*args, **kwargs)

    def counting_loss(state, *args, **kwargs):
        if in_refine and state is in_refine[-1]:
            calls["loss_in_refine"] += 1
        return loss(state, *args, **kwargs)

    def tracking_refine(state, *args, **kwargs):
        in_refine.append(state)
        try:
            return refine(state, *args, **kwargs)
        finally:
            in_refine.pop()

    monkeypatch.setattr(solver, "classify_boxes", counting_classify)
    monkeypatch.setattr(solver, "total_loss", counting_loss)
    monkeypatch.setattr(solver, "refine_layer", tracking_refine)
    scene, boxes, v0 = _scene_inputs(seed=21, n_objects=6,
                                     noise=synth.NoiseModel(box_sigma=0.003))
    est = solve_scene(v0, scene.camera.fov_rad, boxes)
    assert len(est.trace) == 4
    assert calls == {"classify": 1, "loss_in_refine": 0}


def test_solve_rejects_empty_and_fully_degenerate_inputs():
    with pytest.raises(ValueError):
        solve_scene(0.5, math.radians(60.0), [])
    sky = DetectionBox(u_left=0.1, u_right=0.2, v_top=0.3, v_bottom=0.42,
                       category="person")
    with pytest.raises(ValueError):
        solve_scene(0.5, math.radians(60.0), [sky])


def test_trace_total_loss_is_consistent_with_parts():
    scene, boxes, v0 = _scene_inputs(seed=55, n_objects=5,
                                     noise=synth.NoiseModel(box_sigma=0.003))
    config = RefinementConfig()
    est = solve_scene(v0, scene.camera.fov_rad, boxes, config=config)
    for t in est.trace:
        expected = (config.reprojection_weight * t.l_vt
                    + config.prior_weight * t.prior_loss)
        assert t.total_loss == pytest.approx(expected, rel=1e-9)


def test_camera_height_stays_within_bounds():
    config = RefinementConfig(cam_height_bounds=(1.0, 2.0))
    scene, boxes, v0 = _scene_inputs(seed=13, n_objects=4)
    est = solve_scene(v0, scene.camera.fov_rad, boxes, config=config)
    assert 1.0 <= est.cam_height_m <= 2.0


# ---------------------------------------------------------------------------
# Posture-corrected solves.

def _folded_keypoints() -> KeypointSet:
    # vertical torso 0.3, leg folded horizontal 0.3: ratio 0.5 before the
    # head extension (which cancels between numerator and denominator here)
    named = {
        "nose": (0.5, 0.10),
        "left_shoulder": (0.5, 0.20), "right_shoulder": (0.5, 0.20),
        "left_hip": (0.5, 0.40), "right_hip": (0.5, 0.40),
        "left_knee": (0.7, 0.40), "left_ankle": (0.8, 0.40),
    }
    rows = []
    for name in COCO_KEYPOINT_NAMES:
        if name in named:
            rows.append((*named[name], 2.0))
        else:
            rows.append((0.0, 0.0, 0.0))
    return KeypointSet(tuple(rows))


def test_box_ratios_default_to_one_without_keypoints():
    box = DetectionBox(u_left=0.1, u_right=0.2, v_top=0.6, v_bottom=0.7,
                       category="person")
    assert box_ratios([box]) == (1.0,)


def test_box_ratios_fall_back_to_one_on_missing_keypoints():
    empty = KeypointSet(((0.0, 0.0, 0.0),) * 17)
    box = DetectionBox(u_left=0.1, u_right=0.2, v_top=0.6, v_bottom=0.7,
                       category="person", keypoints=empty)
    assert box_ratios([box]) == (1.0,)


def test_actual_height_is_upright_times_ratio():
    cam = _camera(pitch_deg=2.0, cam_height=1.7)
    kps = _folded_keypoints()
    ratio = 0.348 / 0.648
    boxes = [_box_for(cam, 5.0, 1.70), _box_for(cam, 9.0, 1.70),
             _box_for(cam, 7.0, 1.70 * ratio, keypoints=kps)]
    est = solve_scene(0.5 + math.tan(cam.pitch_rad) * cam.focal_px,
                      cam.fov_rad, boxes)
    assert est.upright_ratios[2] == pytest.approx(ratio, abs=1e-12)
    for i in range(3):
        assert est.heights_m[i] == pytest.approx(
            est.upright_heights_m[i] * est.upright_ratios[i], rel=1e-12)


def test_upright_ratio_can_be_disabled():
    cam = _camera(pitch_deg=2.0, cam_height=1.7)
    kps = _folded_keypoints()
    boxes = [_box_for(cam, 7.0, 1.2, keypoints=kps),
             _box_for(cam, 5.0, 1.70)]
    config = RefinementConfig(use_upright_ratio=False)
    est = solve_scene(0.5 + math.tan(cam.pitch_rad) * cam.focal_px,
                      cam.fov_rad, boxes, config=config)
    assert est.upright_ratios == (1.0, 1.0)


# ---------------------------------------------------------------------------
# Config and box validation.

def test_refinement_config_validation():
    with pytest.raises(ValueError):
        RefinementConfig(num_layers=-1)
    with pytest.raises(ValueError):
        RefinementConfig(prior_mode="huber")
    with pytest.raises(ValueError):
        RefinementConfig(cam_height_bounds=(5.0, 1.0))
    with pytest.raises(ValueError):
        RefinementConfig(reprojection_weight=-0.1)


def test_detection_box_validation():
    with pytest.raises(ValueError):
        DetectionBox(u_left=0.5, u_right=0.4, v_top=0.2, v_bottom=0.3,
                     category="person")
    with pytest.raises(ValueError):
        DetectionBox(u_left=0.1, u_right=0.4, v_top=0.5, v_bottom=0.3,
                     category="person")
    with pytest.raises(ValueError):
        DetectionBox(u_left=0.1, u_right=0.4, v_top=0.2, v_bottom=0.3,
                     category="person", weight=0.0)
