"""Scene solver tests: initialization, losses, refinement, full solves.

Scenes below are built either by hand (at pitch zero the linear
horizon-ratio model is exact) or through the synthetic generator with
known ground truth.
"""

import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scenescale import geometry, solver, synth
from scenescale.baselines import weighted_median
from scenescale.documents import parse_document
from scenescale.geometry import CameraParams, GroundObject, \
    horizon_from_pitch, project_tops_with_grads, project_vertical
from scenescale.priors import (DEFAULT_PRIORS, COCO_KEYPOINT_NAMES,
                               KeypointSet, prior_penalty, prior_penalty_grad)
from scenescale.solver import (DetectionBox, RefinementConfig, box_ratios,
                               classify_boxes, detection_columns,
                               init_camera_height, loss_boxes, refine_layer,
                               reprojection_loss, scene_arrays, solve_scene,
                               total_loss, total_loss_gradient)


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
# Weighted median (the vote of baselines.pgm_fixed_height).

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


def test_scene_arrays_unknown_category_names_known_ones():
    box = DetectionBox(u_left=0.1, u_right=0.2, v_top=0.6, v_bottom=0.7,
                       category="bike")
    with pytest.raises(ValueError, match="no height prior for category "
                       "'bike'; known: \\['car', 'person'\\]"):
        scene_arrays([box])


# ---------------------------------------------------------------------------
# Initialization.

def _start(camera: CameraParams, boxes, ratios=None,
           config: RefinementConfig = RefinementConfig()):
    """The cascade's start for `boxes` under `camera`'s pitch and focal
    length, the way solve_scene calls it."""
    arrays = scene_arrays(boxes)
    active, excluded = classify_boxes(camera, arrays)
    geometry.require_usable(excluded, len(arrays))
    return init_camera_height(camera, arrays,
                              ratios or box_ratios(boxes, config), active,
                              config)


def test_init_exact_on_zero_pitch_prior_mean_scene():
    cam = _camera(cam_height=1.6)
    boxes = [_box_for(cam, z, 1.70) for z in (5.0, 8.0, 13.0)]
    h0, upright = _start(cam, boxes)
    assert h0 == pytest.approx(1.6, abs=1e-9)
    np.testing.assert_allclose(upright, 1.70, atol=1e-9)


def test_init_clamps_votes_to_bounds():
    # a sliver of a box far below the horizon implies a camera in the
    # thousands of meters, and a height under the lower bound at 50 m
    sliver = DetectionBox(u_left=0.1, u_right=0.2, v_top=0.7,
                          v_bottom=0.7 + 1e-4, category="person")
    config = RefinementConfig()
    h0, upright = _start(_camera(), [sliver], config=config)
    assert h0 == config.cam_height_bounds[1]
    assert upright.tolist() == [config.object_height_bounds[0]]


def test_init_rejects_all_degenerate():
    flat = DetectionBox(u_left=0.1, u_right=0.2, v_top=0.8 - 1e-12,
                        v_bottom=0.8, category="person")
    on_horizon = DetectionBox(u_left=0.1, u_right=0.2, v_top=0.45,
                              v_bottom=0.5 + 1e-9, category="person")
    with pytest.raises(ValueError):
        _start(_camera(), [flat, on_horizon])


def test_init_unknown_category_rejected():
    box = DetectionBox(u_left=0.1, u_right=0.2, v_top=0.6, v_bottom=0.7,
                       category="giraffe")
    with pytest.raises(ValueError):
        _start(_camera(), [box])


def test_init_starts_every_used_box_on_its_detected_top():
    cam = _camera(pitch_deg=-12.0, cam_height=2.3)
    heights = [1.62, 1.81, 1.45, 1.70]
    boxes = [_box_for(cam, z, h) for z, h in zip((4.0, 7.0, 11.0, 19.0),
                                                 heights)]
    h0, upright = _start(cam, boxes)
    start = dataclasses.replace(cam, cam_height_m=h0)
    residuals, _ = _reprojection(start, upright, boxes)
    assert len(residuals) == len(boxes)
    np.testing.assert_allclose(residuals, 0.0, atol=1e-12)
    # Each height is the start camera height's share of its true height.
    np.testing.assert_allclose(upright, np.array(heights) * h0 / 2.3,
                               rtol=1e-12)


def test_init_ignores_the_height_of_the_camera_it_is_given():
    scene, boxes, _ = _scene_inputs(seed=8, n_objects=4)
    starts = [_start(dataclasses.replace(scene.camera, cam_height_m=h), boxes)
              for h in (1.0, 0.37, 12.5)]
    for h0, upright in starts[1:]:
        assert h0 == pytest.approx(starts[0][0], rel=1e-12)
        np.testing.assert_allclose(upright, starts[0][1], rtol=1e-12)


def test_init_counts_a_weight_two_box_as_two_boxes():
    cam = _camera(pitch_deg=7.0, cam_height=1.9)
    a, b = _box_for(cam, 5.0, 1.55), _box_for(cam, 9.0, 1.95)
    heavy = dataclasses.replace(a, weight=2.0)
    h_weighted, _ = _start(cam, [heavy, b])
    h_twice, _ = _start(cam, [a, a, b])
    assert h_weighted == pytest.approx(h_twice, rel=1e-14)
    assert h_weighted != pytest.approx(_start(cam, [a, b])[0], rel=1e-6)


def test_init_posture_ratio_divides_the_implied_height():
    cam = _camera(pitch_deg=3.0, cam_height=1.6)
    boxes = [_box_for(cam, 6.0, 1.70), _box_for(cam, 9.0, 1.70)]
    h_up, upright_up = _start(cam, boxes, ratios=(1.0, 1.0))
    h_half, upright_half = _start(cam, boxes, ratios=(0.5, 0.5))
    # Crouched to half their upright height, the same boxes imply people
    # twice as tall, which the priors answer with half the camera height.
    assert h_half == pytest.approx(h_up / 2.0, rel=1e-12)
    np.testing.assert_allclose(upright_half, upright_up, rtol=1e-12)


def test_init_refuses_tops_beyond_the_zenith_with_the_reason():
    # Pitched up 35 deg with a 114 deg field of view, the top row of the
    # image looks past straight up: no height puts a top there.
    fov = math.radians(114.0)
    cam = CameraParams.from_fov(math.radians(35.0), fov, 1.0, 1.0, 1.0)
    box = DetectionBox(u_left=0.1, u_right=0.2, v_top=0.02, v_bottom=0.97,
                       category="car")
    message = ("no usable detection fixes the scale: the ray through the "
               "top of each of the 1 usable boxes points straight up or "
               "backward")
    with pytest.raises(ValueError, match=f"^{message}$"):
        _start(cam, [box])
    with pytest.raises(ValueError, match=f"^{message}$"):
        solve_scene(horizon_from_pitch(cam).v0, fov, [box])


# ---------------------------------------------------------------------------
# Reprojection loss.

def _used_boxes(cam, boxes, ratios=None):
    """The `LossBoxes` of the boxes `classify_boxes` keeps under `cam`'s
    pitch and focal length, the way solve_scene builds them, and their
    indices."""
    arrays = scene_arrays(boxes)
    active, _ = classify_boxes(cam, arrays)
    used = np.flatnonzero(active)
    return loss_boxes(cam, arrays, ratios or (1.0,) * len(boxes), used), used


def _reprojection(cam, heights, boxes):
    """(residuals, l_vt) of `reprojection_loss` over the used boxes of
    `boxes` at `cam`, each at its entry of the actual `heights`."""
    used_boxes, used = _used_boxes(cam, boxes)
    *_, residuals, l_vt = reprojection_loss(
        used_boxes, cam, np.asarray(heights, dtype=float)[used])
    return residuals, l_vt


def test_reprojection_zero_at_ground_truth():
    cam = _camera(pitch_deg=8.0, cam_height=2.2)
    heights = [1.55, 1.85, 1.7]
    boxes = [_box_for(cam, z, h) for z, h in zip((4.0, 9.0, 17.0), heights)]
    _, l_vt = _reprojection(cam, heights, boxes)
    assert l_vt == pytest.approx(0.0, abs=1e-9)


def test_reprojection_increases_when_a_height_is_halved():
    cam = _camera(pitch_deg=8.0, cam_height=2.2)
    heights = [1.55, 1.85, 1.7]
    boxes = [_box_for(cam, z, h) for z, h in zip((4.0, 9.0, 17.0), heights)]
    base = _reprojection(cam, heights, boxes)[1]
    bent = list(heights)
    bent[1] *= 0.5
    assert _reprojection(cam, bent, boxes)[1] > base + 1e-4


def test_reprojection_excludes_horizon_side_boxes():
    cam = _camera(pitch_deg=0.0, cam_height=1.6)
    good = _box_for(cam, 8.0, 1.7)
    sky = DetectionBox(u_left=0.1, u_right=0.2, v_top=0.3, v_bottom=0.42,
                       category="person")
    residuals, l_vt = _reprojection(cam, [1.7, 1.7], [good, sky])
    assert len(residuals) == 1
    assert l_vt == pytest.approx(abs(residuals[0]), abs=1e-12)


def test_classify_boxes_reports_reasons():
    cam = _camera(pitch_deg=0.0, cam_height=1.6)
    good = _box_for(cam, 8.0, 1.7)
    sky = DetectionBox(u_left=0.1, u_right=0.2, v_top=0.3, v_bottom=0.42,
                       category="person")
    active, excluded = classify_boxes(cam, scene_arrays([good, sky]))
    assert active.tolist() == [True, False]
    assert len(excluded) == 1 and excluded[0][0] == 1


# ---------------------------------------------------------------------------
# Total loss and gradient.

def _evaluate(cam, boxes, heights, config=RefinementConfig()):
    """The used boxes of `boxes` under `cam` and their `total_loss` at
    `cam`, each at its entry of the upright `heights`."""
    used_boxes, used = _used_boxes(cam, boxes)
    return used_boxes, total_loss(
        used_boxes, cam, np.asarray(heights, dtype=float)[used], config)


def test_total_loss_prior_only_matches_prior_module():
    cam = _camera(pitch_deg=5.0, cam_height=1.9)
    boxes = [_box_for(cam, 6.0, 1.7), _box_for(cam, 11.0, 1.7, "car")]
    person, car = DEFAULT_PRIORS["person"], DEFAULT_PRIORS["car"]
    expected = np.mean(prior_penalty(
        [1.7, 1.75], np.array([person.mean_m, car.mean_m]),
        np.array([person.sigma_m, car.sigma_m])))
    _, ev = _evaluate(cam, boxes, [1.7, 1.75])
    assert ev.prior_loss == pytest.approx(expected, rel=1e-12)


def test_total_loss_infinite_when_top_crosses_camera_plane():
    # at pitch -30, depth 3, the top crosses once h > 2 + 3/tan(30)
    cam = _camera(pitch_deg=-30.0, cam_height=2.0)
    boxes = [_box_for(cam, 3.0, 1.7)]
    assert _evaluate(cam, boxes, [7.5])[1].total_loss == math.inf


@pytest.mark.parametrize("weighted", [False, True],
                         ids=["unit", "weighted"])
def test_gradient_matches_finite_differences(weighted):
    rng = np.random.default_rng(5)
    config = RefinementConfig()
    for trial in range(20):
        scene, boxes, v0 = _scene_inputs(seed=100 + trial, n_objects=4)
        cam = CameraParams.from_fov(
            scene.camera.pitch_rad, scene.camera.fov_rad,
            scene.camera.cam_height_m * rng.uniform(0.8, 1.2),
            scene.camera.image_w_px / scene.camera.image_h_px, 1.0)
        heights = [o.height_m * rng.uniform(0.9, 1.1) for o in scene.objects]
        if weighted:
            boxes = [dataclasses.replace(box, weight=w) for box, w in
                     zip(boxes, rng.uniform(0.2, 4.0, len(boxes)))]
        used_boxes, ev = _evaluate(cam, boxes, heights, config)
        grad = total_loss_gradient(used_boxes, ev)

        def loss_at(x):
            cam_x = CameraParams.from_fov(cam.pitch_rad, cam.fov_rad, x[0],
                                          cam.image_w_px, cam.image_h_px)
            return total_loss(used_boxes, cam_x, x[1:], config).total_loss

        x0 = np.array([cam.cam_height_m, *ev.upright])
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
    used_boxes, ev = _evaluate(cam, boxes, [1.70, 1.70, 1.70])
    out = refine_layer(ev, used_boxes, RefinementConfig())
    assert out.camera.cam_height_m == pytest.approx(2.0, abs=1e-8)
    assert np.allclose(out.upright, ev.upright, atol=1e-8)


def test_layer_reduces_overestimated_camera_height():
    cam_true = _camera(pitch_deg=3.0, cam_height=1.8)
    boxes = [_box_for(cam_true, z, 1.70) for z in (4.0, 8.0, 15.0)]
    cam_wrong = _camera(pitch_deg=3.0, cam_height=3.2)
    used_boxes, ev = _evaluate(cam_wrong, boxes, [1.70, 1.70, 1.70])
    out = refine_layer(ev, used_boxes, RefinementConfig())
    assert out.camera.cam_height_m < 3.2


# ---------------------------------------------------------------------------
# The arrow-shaped Gauss-Newton step.

def _arrow_case(rng, k: int):
    """k objects seen by a random camera and an evaluation away from the
    truth (camera height, heights and posture ratios), with random box
    weights: (used boxes, evaluation)."""
    cam_true = _camera(pitch_deg=rng.uniform(-3.0, 10.0),
                       fov_deg=rng.uniform(40.0, 90.0),
                       cam_height=rng.uniform(1.2, 5.0))
    boxes = [_box_for(cam_true, z, h) for z, h in zip(
        rng.uniform(3.0, 30.0, k), rng.uniform(1.5, 1.9, k))]
    cam = dataclasses.replace(
        cam_true, cam_height_m=cam_true.cam_height_m * rng.uniform(0.7, 1.3))
    upright = rng.uniform(1.4, 2.0, k)
    ratios = tuple(rng.uniform(0.6, 1.0, k).tolist())
    boxes = [dataclasses.replace(box, weight=w)
             for box, w in zip(boxes, rng.uniform(0.2, 4.0, k))]
    used_boxes, used = _used_boxes(cam, boxes, ratios)
    return used_boxes, total_loss(used_boxes, cam, upright[used],
                                  RefinementConfig())


def _dense_step(boxes, ev):
    """The damped Gauss-Newton step from the dense (k+1)x(k+1) system,
    assembled entry by entry and solved by LU."""
    ratios, upright = boxes.ratios, ev.upright
    vt, d_hc, d_h, _ = project_tops_with_grads(
        ev.camera, boxes.v_bottom, upright * ratios)
    r = boxes.v_top - vt
    weight = boxes.weight
    w = weight / np.maximum(np.abs(r), 1e-6)
    coef = solver._REPROJECTION_WEIGHT / weight.sum()
    prior_coef = solver._PRIOR_WEIGHT / weight.sum() * weight
    a, b = -d_hc, -d_h * ratios
    mu, sigma = boxes.mu, boxes.sigma
    k = len(r)
    m = np.zeros((k + 1, k + 1))
    g = np.zeros(k + 1)
    m[0, 0] = coef * np.sum(w * a * a)
    g[0] = coef * np.sum(w * r * a)
    for i in range(k):
        m[0, i + 1] = m[i + 1, 0] = coef * w[i] * a[i] * b[i]
        # The penalty's second derivative is 1 / sigma^2.
        m[i + 1, i + 1] = (coef * w[i] * b[i] ** 2
                           + prior_coef[i] / sigma[i] ** 2)
        g[i + 1] = (coef * w[i] * r[i] * b[i] + prior_coef[i]
                    * prior_penalty_grad(upright[i], mu[i], sigma[i]))
    m[np.diag_indices_from(m)] += solver._DAMPING * np.maximum(np.diag(m),
                                                               1e-12)
    return np.linalg.solve(m, -g)


def _arrow_step(boxes, ev):
    return solver._arrow_solve(*solver._arrow_system(boxes, ev))


@pytest.mark.parametrize("k", [1, 2, 50, 2000])
def test_arrow_step_matches_the_dense_solve(k):
    rng = np.random.default_rng(k)
    for _ in range(3 if k < 2000 else 1):
        boxes, ev = _arrow_case(rng, k)
        assert len(boxes.v_top) == k
        np.testing.assert_allclose(_arrow_step(boxes, ev),
                                   _dense_step(boxes, ev), rtol=1e-9)


@pytest.mark.parametrize("k", [1, 2, 50, 2000])
def test_arrow_gradient_is_the_loss_gradient(k):
    # Off the IRLS floor each weight is 1/|r|, so the model's gradient
    # (g0, g1) is the gradient of the L1 loss itself.
    rng = np.random.default_rng([k, 8])
    for _ in range(3 if k < 2000 else 1):
        boxes, ev = _arrow_case(rng, k)
        assert np.all(np.abs(ev.residuals) >= 1e-6)
        _, _, _, g0, g1 = solver._arrow_system(boxes, ev)
        np.testing.assert_allclose(
            np.concatenate(([g0], g1)), total_loss_gradient(boxes, ev),
            rtol=1e-12, atol=1e-15)


def _assert_finite_or_unchanged(ev, out):
    assert out is ev or (
        math.isfinite(out.camera.cam_height_m)
        and np.all(np.isfinite(out.upright))
        and math.isfinite(out.total_loss))


def test_arrow_step_without_camera_sensitivity_is_finite(monkeypatch):
    # No residual moves with the camera height: the off-diagonal row and
    # the camera's own curvature vanish.
    def flat_in_camera(camera, v_bottoms, heights):
        vt, d_hc, d_h, depth = project_tops_with_grads(camera, v_bottoms,
                                                       heights)
        return vt, np.zeros_like(d_hc), d_h, depth

    rng = np.random.default_rng(4)
    config = RefinementConfig()
    boxes, ev = _arrow_case(rng, 20)
    monkeypatch.setattr(geometry, "project_tops_with_grads", flat_in_camera)
    ev = total_loss(boxes, ev.camera, ev.upright, config)
    step = _arrow_step(boxes, ev)
    assert np.all(np.isfinite(step))
    assert step[0] == 0.0
    _assert_finite_or_unchanged(ev, refine_layer(ev, boxes, config))


@pytest.mark.parametrize("m00", [1.0, math.inf], ids=["s=0", "s=inf"])
def test_singular_arrow_system_returns_the_input_state(monkeypatch, m00):
    # The Schur complement s = m00 - off^2/d is 0 or not finite: the step
    # is not finite and the layer returns its input evaluation.
    rng = np.random.default_rng(5)
    boxes, ev = _arrow_case(rng, 1)
    monkeypatch.setattr(solver, "_arrow_system", lambda *args: (
        m00, np.array([1.0]), np.array([1.0]), 1.0, np.array([0.5])))
    assert refine_layer(ev, boxes, RefinementConfig()) is ev


def test_refine_layer_memory_is_linear_in_k():
    # A dense (k+1)^2 system at k=2000 is 32 MB on its own.
    rng = np.random.default_rng(6)
    boxes, ev = _arrow_case(rng, 2000)
    tracemalloc.start()
    try:
        out = refine_layer(ev, boxes, RefinementConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out is not ev
    assert peak < 4 * 2 ** 20


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
    # The start puts every used box's top on its detected top, as pgm does
    # under the linear model (criterion 10).
    scene, boxes, v0 = _scene_inputs(seed=42, n_objects=5)
    config = RefinementConfig(num_layers=0)
    est = solve_scene(v0, scene.camera.fov_rad, boxes, config=config)
    assert len(est.trace) == 1
    assert not est.excluded
    assert est.trace[0].l_vt <= 1e-12
    assert max(abs(b.v_top - t) for b, t in zip(boxes, est.tops)) <= 1e-12
    camera = CameraParams.from_fov(
        geometry.pitch_from_horizon(v0, geometry.focal_from_fov(
            scene.camera.fov_rad, 1.0), 1.0), scene.camera.fov_rad,
        1.0, 1.0, 1.0)
    h0, upright = _start(camera, boxes, config=config)
    assert est.cam_height_m == h0
    assert est.heights_m == tuple(upright.tolist())


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
    # rendered v coordinates fixed, so every solve sees the same problem
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
        est = solve_scene(v0, cam.fov_rad, boxes)
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
    assert est.tops[1] is None
    assert est.heights_m[1] == pytest.approx(1.70, abs=1e-9)


def _spy_solve(monkeypatch, num_layers: int = 3):
    """A solve of a noisy 6-object scene with `num_layers` layers, and the
    calls it made through the `solver` and `geometry` module attributes:
    `classify_boxes`, `geometry.project_tops_with_grads` and
    `reprojection_loss` counts, the evaluations `total_loss` made outside
    a layer (`start`) and inside one (`candidates`), the
    `reprojection_loss` calls each `total_loss` made (`reprojections`),
    and each `refine_layer` call's input and result (`steps`)."""
    calls = {"classify": 0, "project": 0, "reproject": 0, "start": [],
             "candidates": [], "reprojections": [], "steps": []}
    classify, project = solver.classify_boxes, geometry.project_tops_with_grads
    reproject, evaluate = solver.reprojection_loss, solver.total_loss
    step = solver.refine_layer
    in_step = []

    def counting_classify(*args, **kwargs):
        calls["classify"] += 1
        return classify(*args, **kwargs)

    def counting_project(*args, **kwargs):
        calls["project"] += 1
        return project(*args, **kwargs)

    def counting_reproject(*args, **kwargs):
        calls["reproject"] += 1
        return reproject(*args, **kwargs)

    def recording_evaluate(*args, **kwargs):
        before = calls["reproject"]
        ev = evaluate(*args, **kwargs)
        calls["reprojections"].append(calls["reproject"] - before)
        calls["candidates" if in_step else "start"].append(ev)
        return ev

    def recording_step(ev, boxes, config):
        in_step.append(True)
        try:
            out = step(ev, boxes, config)
        finally:
            in_step.pop()
        calls["steps"].append((ev, out))
        return out

    monkeypatch.setattr(solver, "classify_boxes", counting_classify)
    monkeypatch.setattr(geometry, "project_tops_with_grads", counting_project)
    monkeypatch.setattr(solver, "reprojection_loss", counting_reproject)
    monkeypatch.setattr(solver, "total_loss", recording_evaluate)
    monkeypatch.setattr(solver, "refine_layer", recording_step)
    scene, boxes, v0 = _scene_inputs(seed=21, n_objects=6,
                                     noise=synth.NoiseModel(box_sigma=0.003))
    est = solve_scene(v0, scene.camera.fov_rad, boxes,
                      config=RefinementConfig(num_layers=num_layers))
    assert len(est.trace) == num_layers + 1
    return est, calls


def test_solve_classifies_once_and_refines_from_the_trace_loss(monkeypatch):
    # Eligibility does not depend on the camera height, so one
    # classification serves the whole solve, and each layer steps from the
    # evaluation the previous trace entry reports.
    est, calls = _spy_solve(monkeypatch)
    assert calls["classify"] == 1
    assert len(calls["steps"]) == 3
    for (ev, _), entry in zip(calls["steps"], est.trace):
        assert (ev.camera.cam_height_m, ev.total_loss) == (
            entry.cam_height_m, entry.total_loss)


def test_solve_evaluates_the_loss_of_each_state_once(monkeypatch):
    # The start is evaluated once, outside the layers; every later entry
    # is the evaluation of the candidate a step accepted, and the next
    # step starts from that same evaluation.
    est, calls = _spy_solve(monkeypatch)
    assert len(calls["start"]) == 1
    assert len(calls["candidates"]) >= 3
    assert all(out is not ev for ev, out in calls["steps"])
    evaluations = calls["start"] + [out for _, out in calls["steps"]]
    for ev, (step_input, _) in zip(evaluations, calls["steps"]):
        assert step_input is ev
    assert [ev.total_loss for ev in evaluations] == [
        t.total_loss for t in est.trace]
    assert len({t.total_loss for t in est.trace}) == 4


@pytest.mark.parametrize("num_layers", [3, 30])
def test_solve_projects_each_state_once(monkeypatch, num_layers):
    # One projection for the start and one for each candidate a layer
    # scores; the trace, the accept test and the next layer's system read
    # the evaluation the step returned.
    _, calls = _spy_solve(monkeypatch, num_layers)
    assert len(calls["candidates"]) >= 3
    assert calls["project"] == 1 + len(calls["candidates"])


def test_solve_reaches_the_loss_functions_through_their_module_names(
        monkeypatch):
    # The benchmark's tracer (perfbench/spans.py) wraps these module
    # attributes, so the solve must call them there: one refine_layer per
    # layer, and one reprojection_loss inside each total_loss.
    _, calls = _spy_solve(monkeypatch)
    assert len(calls["steps"]) == 3
    evaluations = len(calls["start"]) + len(calls["candidates"])
    assert evaluations >= 4
    assert calls["reprojections"] == [1] * evaluations
    assert calls["reproject"] == evaluations


@pytest.mark.parametrize("config", [RefinementConfig(),
                                    RefinementConfig(num_layers=10)],
                         ids=["default", "10-layers"])
def test_a_weight_two_box_solves_like_the_box_listed_twice(config):
    scene, boxes, v0 = _scene_inputs(seed=64, n_objects=5,
                                     noise=synth.NoiseModel(box_sigma=0.003))
    heavy = [dataclasses.replace(boxes[0], weight=2.0), *boxes[1:]]
    twice = [boxes[0], *boxes]
    est_w = solve_scene(v0, scene.camera.fov_rad, heavy, config=config)
    est_2 = solve_scene(v0, scene.camera.fov_rad, twice, config=config)
    unit = solve_scene(v0, scene.camera.fov_rad, boxes, config=config)
    assert est_w.cam_height_m == pytest.approx(est_2.cam_height_m, rel=1e-9)
    assert est_w.cam_height_m != pytest.approx(unit.cam_height_m, rel=1e-6)
    np.testing.assert_allclose(est_2.heights_m[:2], est_w.heights_m[0],
                               rtol=1e-9)
    np.testing.assert_allclose(est_2.heights_m[2:], est_w.heights_m[1:],
                               rtol=1e-9)
    # The layers move the camera from the closed-form start in both.
    assert est_w.trace[-1].total_loss < est_w.trace[0].total_loss
    assert est_2.trace[-1].total_loss < est_2.trace[0].total_loss


def _fixture_inputs():
    doc = parse_document(
        (Path(__file__).parent / "fixtures" / "scene_0000.json").read_bytes())
    cal = doc.calibration
    return cal.horizon_v0(), cal.fov_rad, doc.detections


def _noisy_synth_inputs():
    scene, boxes, v0 = _scene_inputs(seed=21, n_objects=6,
                                     noise=synth.NoiseModel(box_sigma=0.003))
    return v0, scene.camera.fov_rad, boxes


@pytest.mark.parametrize("inputs", [_fixture_inputs, _noisy_synth_inputs],
                         ids=["fixture", "noisy-synth"])
def test_a_shorter_solve_traces_a_prefix_and_reports_its_own_rows(inputs):
    # The rows of layer j of a solve are the final rows of the same solve
    # run with j layers.
    v0, fov, boxes = inputs()
    v_tops = detection_columns(boxes).v_top.tolist()
    full = solve_scene(v0, fov, boxes, config=RefinementConfig(num_layers=3))
    assert len({t.total_loss for t in full.trace}) > 1
    for j in range(4):
        est = solve_scene(v0, fov, boxes,
                          config=RefinementConfig(num_layers=j))
        assert est.trace == full.trace[:j + 1]
        assert est.cam_height_m == est.trace[-1].cam_height_m
        excluded = dict(est.excluded)
        used = [i for i in range(len(est.heights_m)) if i not in excluded]
        assert used
        for i in range(len(est.heights_m)):
            if i in excluded:
                assert est.tops[i] is None
            else:
                assert math.isfinite(est.tops[i])
        # The tops are the last layer's: their mean |residual| is its l_vt.
        assert np.mean([abs(v_tops[i] - est.tops[i]) for i in used]) == (
            pytest.approx(est.trace[-1].l_vt, rel=1e-12))


def test_a_layer_traced_after_convergence_repeats_the_previous_entry():
    scene, boxes, v0 = _scene_inputs(seed=21, n_objects=6,
                                     noise=synth.NoiseModel(box_sigma=0.003))
    config = RefinementConfig(num_layers=40)
    est = solve_scene(v0, scene.camera.fov_rad, boxes, config=config)
    assert est.converged
    losses = [t.total_loss for t in est.trace]
    first = next(j for j in range(1, len(losses))
                 if losses[j - 1] - losses[j] < solver._LOSS_TOLERANCE)
    assert first < len(est.trace) - 1
    for prev, entry in zip(est.trace[first:], est.trace[first + 1:]):
        assert entry.layer == prev.layer + 1
        assert dataclasses.replace(entry, layer=prev.layer) == prev
    assert est.cam_height_m == est.trace[first].cam_height_m


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
        expected = (solver._REPROJECTION_WEIGHT * t.l_vt
                    + solver._PRIOR_WEIGHT * t.prior_loss)
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
    assert [f.name for f in dataclasses.fields(RefinementConfig)] == [
        "num_layers", "cam_height_bounds", "object_height_bounds",
        "use_upright_ratio"]
    assert RefinementConfig(num_layers=0).num_layers == 0
    assert RefinementConfig(num_layers=solver.MAX_LAYERS).num_layers == 1000
    for bad in (-1, solver.MAX_LAYERS + 1):
        with pytest.raises(ValueError,
                           match=r"num_layers must lie in \[0, 1000\]"):
            RefinementConfig(num_layers=bad)
    with pytest.raises(ValueError):
        RefinementConfig(cam_height_bounds=(5.0, 1.0))
    with pytest.raises(ValueError):
        RefinementConfig(object_height_bounds=(0.0, 1.0))


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
