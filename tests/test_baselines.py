"""Baseline estimator tests.

Both baselines assume the linear model v_top = v_bottom + h * (v0 -
v_bottom) / h_cam, which agrees with the exact projection at pitch zero.
Scenes here are therefore built at pitch zero (exact recovery expected)
or checked against closed forms derived independently below.
"""

import dataclasses
import math

import numpy as np
import pytest

from scenescale import synth
from scenescale.baselines import (CAM_HEIGHT_PRIOR, CANONICAL_HEIGHTS,
                                  pgm_fixed_height, pgm_full)
from scenescale.geometry import (CameraParams, GroundObject,
                                 horizon_from_pitch, project_vertical)
from scenescale.priors import DEFAULT_PRIORS, HeightPrior
from scenescale.solver import DetectionBox, RefinementConfig, solve_scene


_FOV = math.radians(60.0)


def _camera(cam_height=1.6) -> CameraParams:
    return CameraParams.from_fov(0.0, _FOV, cam_height, 1.0, 1.0)


def _box_for(camera: CameraParams, depth: float, height: float,
             category: str = "person", weight: float = 1.0) -> DetectionBox:
    span = project_vertical(camera, GroundObject(depth, height))
    return DetectionBox(u_left=0.4, u_right=0.5, v_top=span.v_top,
                        v_bottom=span.v_bottom, category=category,
                        weight=weight)


def _q(v0: float, box: DetectionBox) -> float:
    return (box.v_top - box.v_bottom) / (v0 - box.v_bottom)


# ---------------------------------------------------------------------------
# Canonical heights and the camera-height prior.

def test_canonical_heights_values():
    assert CANONICAL_HEIGHTS == {"person": 1.70, "car": 1.59}


def test_cam_height_prior_defaults():
    assert CAM_HEIGHT_PRIOR == HeightPrior(1.6, 0.5)


def test_cam_height_prior_rejects_nonpositive():
    with pytest.raises(ValueError):
        HeightPrior(0.0, 0.5)
    with pytest.raises(ValueError):
        HeightPrior(1.6, -1.0)


# ---------------------------------------------------------------------------
# Fixed-height baseline.

def test_pgm_fixed_exact_at_pitch_zero():
    # Objects at exactly the canonical heights make the linear votes exact.
    camera = _camera(cam_height=2.3)
    v0 = horizon_from_pitch(camera).v0
    boxes = [_box_for(camera, 6.0, 1.70, "person"),
             _box_for(camera, 9.0, 1.59, "car"),
             _box_for(camera, 14.0, 1.70, "person")]
    est = pgm_fixed_height(v0, camera.fov_rad, boxes)
    assert est.cam_height_m == pytest.approx(2.3, rel=1e-12)
    assert est.method == "pgm-fixed"
    assert est.converged and not est.ill_posed


def test_pgm_fixed_heights_stay_canonical():
    camera = _camera()
    v0 = horizon_from_pitch(camera).v0
    boxes = [_box_for(camera, 5.0, 1.9, "person"),
             _box_for(camera, 8.0, 1.4, "car")]
    est = pgm_fixed_height(v0, camera.fov_rad, boxes)
    assert est.heights_m == (1.70, 1.59)
    assert est.upright_heights_m == est.heights_m
    assert est.upright_ratios == (1.0, 1.0)


def test_pgm_fixed_vote_is_weighted_median():
    camera = _camera(cam_height=2.0)
    v0 = horizon_from_pitch(camera).v0
    # Three consistent votes at h_cam=2 plus one heavy sliver pulling low.
    good = [_box_for(camera, d, 1.70, "person") for d in (4.0, 6.0, 9.0)]
    crush = DetectionBox(u_left=0.1, u_right=0.2, v_top=0.88, v_bottom=0.9,
                         category="person", weight=2.0)
    votes = sorted([1.70 / _q(v0, b) for b in good + [crush]])
    est = pgm_fixed_height(v0, camera.fov_rad, good + [crush])
    # Weight 2 on the low vote drags the weighted median to the second
    # smallest vote.
    assert est.cam_height_m == pytest.approx(votes[1], rel=1e-12)


def test_pgm_fixed_excludes_degenerates_with_reasons():
    camera = _camera()
    v0 = horizon_from_pitch(camera).v0
    ok = _box_for(camera, 6.0, 1.70, "person")
    sliver = DetectionBox(u_left=0.1, u_right=0.2, v_top=0.7,
                          v_bottom=0.7 + 1e-12, category="person")
    on_horizon = DetectionBox(u_left=0.1, u_right=0.2, v_top=v0 - 0.2,
                              v_bottom=v0 + 1e-9, category="person")
    est = pgm_fixed_height(v0, camera.fov_rad, [sliver, ok, on_horizon])
    assert dict(est.excluded) == {0: "zero-span", 2: "bottom-on-horizon"}
    assert est.tops[0] is None
    assert est.tops[2] is None
    assert est.cam_height_m == pytest.approx(1.6, rel=1e-12)


def test_pgm_fixed_rejects_empty_and_all_degenerate():
    with pytest.raises(ValueError):
        pgm_fixed_height(0.5, _FOV, [])
    sliver = DetectionBox(u_left=0.1, u_right=0.2, v_top=0.7,
                          v_bottom=0.7 + 1e-12, category="person")
    with pytest.raises(ValueError, match="no usable detections: 1 zero-span"):
        pgm_fixed_height(0.5, _FOV, [sliver])


def test_pgm_fixed_unknown_category_names_known_ones():
    box = DetectionBox(u_left=0.1, u_right=0.2, v_top=0.6, v_bottom=0.8,
                       category="lamppost")
    with pytest.raises(ValueError, match="person"):
        pgm_fixed_height(0.5, _FOV, [box])


def test_pgm_fixed_permutation_invariant():
    camera = _camera(cam_height=2.0)
    v0 = horizon_from_pitch(camera).v0
    boxes = [_box_for(camera, d, h, c) for d, h, c in
             [(4.0, 1.6, "person"), (6.0, 1.8, "person"), (9.0, 1.5, "car"),
              (12.0, 1.75, "person"), (20.0, 1.62, "car")]]
    fwd = pgm_fixed_height(v0, camera.fov_rad, boxes)
    rev = pgm_fixed_height(v0, camera.fov_rad, boxes[::-1])
    assert fwd.cam_height_m == rev.cam_height_m
    assert fwd.heights_m == rev.heights_m[::-1]


# ---------------------------------------------------------------------------
# Full joint baseline.

def test_pgm_full_single_box_closed_form():
    # With one box the MAP camera height has the closed form
    #   h* = (q mu / s^2 + mu_c / s_c^2) / (q^2 / s^2 + 1 / s_c^2)
    # since each height is eliminated exactly as h_i = q_i h.
    v0 = 0.5
    box = DetectionBox(u_left=0.4, u_right=0.5, v_top=0.73, v_bottom=0.9,
                       category="person")
    q = _q(v0, box)
    prior = DEFAULT_PRIORS["person"]
    cam_prior = CAM_HEIGHT_PRIOR
    expect = ((q * prior.mean_m / prior.sigma_m ** 2
               + cam_prior.mean_m / cam_prior.sigma_m ** 2)
              / (q ** 2 / prior.sigma_m ** 2 + 1.0 / cam_prior.sigma_m ** 2))
    est = pgm_full(v0, _FOV, [box])
    assert est.cam_height_m == pytest.approx(expect, rel=1e-12)
    assert est.heights_m[0] == pytest.approx(q * expect, rel=1e-12)
    assert est.method == "pgm"
    assert est.converged and not est.ill_posed


def test_pgm_full_matches_grid_search():
    # Dense scan of the log posterior must peak at the reported estimate.
    camera = _camera(cam_height=2.4)
    v0 = horizon_from_pitch(camera).v0
    boxes = [_box_for(camera, d, h, c) for d, h, c in
             [(5.0, 1.78, "person"), (8.0, 1.52, "car"),
              (12.0, 1.66, "person")]]
    qs = np.array([_q(v0, b) for b in boxes])
    mu = np.array([DEFAULT_PRIORS[b.category].mean_m for b in boxes])
    var = np.array([DEFAULT_PRIORS[b.category].sigma_m ** 2 for b in boxes])
    cam_prior = CAM_HEIGHT_PRIOR

    grid = np.arange(0.2, 8.0, 1e-4)
    post = (-0.5 * np.sum((np.outer(grid, qs) - mu) ** 2 / var, axis=1)
            - 0.5 * (grid - cam_prior.mean_m) ** 2 / cam_prior.sigma_m ** 2)
    est = pgm_full(v0, camera.fov_rad, boxes)
    assert abs(est.cam_height_m - grid[np.argmax(post)]) < 2e-4


def test_pgm_full_reprojection_loss_is_zero():
    # Heights are eliminated exactly, so the linear reprojection residual
    # vanishes even on noisy input.
    noise = synth.NoiseModel(box_sigma=0.01)
    for seed in range(5):
        scene = synth.sample_scene(synth.SceneRanges(), n_objects=6,
                                   seed=100 + seed)
        boxes = synth.render_detections(scene, noise)
        cam = scene.camera
        cam_n = CameraParams.from_fov(cam.pitch_rad, cam.fov_rad,
                                      cam.cam_height_m,
                                      cam.image_w_px / cam.image_h_px, 1.0)
        est = pgm_full(horizon_from_pitch(cam_n).v0, cam_n.fov_rad, boxes)
        assert est.trace[-1].l_vt <= 1e-9
        for b, t in zip(boxes, est.tops):
            assert t is None or abs(b.v_top - t) <= 1e-9


def test_pgm_full_flat_priors_flag_ill_posed():
    # With uninformative object priors only the camera prior is left and
    # the scale family collapses onto its mean.
    v0 = 0.5
    box = DetectionBox(u_left=0.4, u_right=0.5, v_top=0.7, v_bottom=0.9,
                       category="person")
    flat = {"person": HeightPrior(1.70, 1e9)}
    est = pgm_full(v0, _FOV, [box], prior_map=flat)
    assert est.ill_posed
    assert est.cam_height_m == pytest.approx(1.6, rel=1e-9)


def test_pgm_full_excluded_boxes_fall_back_to_prior_mean():
    camera = _camera()
    v0 = horizon_from_pitch(camera).v0
    ok = _box_for(camera, 6.0, 1.70, "person")
    sliver = DetectionBox(u_left=0.1, u_right=0.2, v_top=0.7,
                          v_bottom=0.7 + 1e-12, category="car")
    est = pgm_full(v0, camera.fov_rad, [ok, sliver])
    assert dict(est.excluded) == {1: "zero-span"}
    assert est.heights_m[1] == DEFAULT_PRIORS["car"].mean_m
    assert est.tops[1] is None


def test_pgm_full_permutation_invariant():
    camera = _camera(cam_height=2.0)
    v0 = horizon_from_pitch(camera).v0
    boxes = [_box_for(camera, d, h, c) for d, h, c in
             [(4.0, 1.6, "person"), (7.0, 1.85, "person"), (9.0, 1.5, "car"),
              (13.0, 1.72, "person")]]
    fwd = pgm_full(v0, camera.fov_rad, boxes)
    rev = pgm_full(v0, camera.fov_rad, boxes[::-1])
    assert fwd.cam_height_m == pytest.approx(rev.cam_height_m, abs=1e-12)
    np.testing.assert_allclose(fwd.heights_m, rev.heights_m[::-1],
                               atol=1e-12)


def test_pgm_full_custom_camera_prior_shifts_estimate():
    v0 = 0.5
    box = DetectionBox(u_left=0.4, u_right=0.5, v_top=0.7, v_bottom=0.9,
                       category="person")
    lo = pgm_full(v0, _FOV, [box],
                  cam_height_prior=HeightPrior(1.0, 0.1))
    hi = pgm_full(v0, _FOV, [box],
                  cam_height_prior=HeightPrior(5.0, 0.1))
    assert lo.cam_height_m < hi.cam_height_m


def test_pgm_full_counts_a_weight_two_box_as_two_boxes():
    camera = _camera(cam_height=2.1)
    v0 = horizon_from_pitch(camera).v0
    a = _box_for(camera, 5.0, 1.55, "person")
    b = _box_for(camera, 9.0, 1.62, "car")
    heavy = dataclasses.replace(a, weight=2.0)
    weighted = pgm_full(v0, camera.fov_rad, [heavy, b])
    twice = pgm_full(v0, camera.fov_rad, [a, a, b])
    assert weighted.cam_height_m == pytest.approx(twice.cam_height_m,
                                                  rel=1e-14)
    assert weighted.cam_height_m != pytest.approx(
        pgm_full(v0, camera.fov_rad, [a, b]).cam_height_m, rel=1e-6)


def test_pgm_full_and_the_cascade_start_share_the_closed_form():
    # At pitch zero the linear model is exact, so with pgm's camera prior
    # made flat the two estimators solve the same problem.
    camera = _camera(cam_height=2.4)
    v0 = horizon_from_pitch(camera).v0
    boxes = [_box_for(camera, d, h, c, w) for d, h, c, w in
             [(5.0, 1.78, "person", 1.0), (8.0, 1.52, "car", 0.5),
              (12.0, 1.66, "person", 3.0)]]
    flat = HeightPrior(1.6, 1e12)
    start = solve_scene(v0, camera.fov_rad, boxes,
                        config=RefinementConfig(num_layers=0))
    est = pgm_full(v0, camera.fov_rad, boxes, cam_height_prior=flat)
    assert start.cam_height_m == pytest.approx(est.cam_height_m, rel=1e-9)
    np.testing.assert_allclose(start.heights_m, est.heights_m, rtol=1e-9)
