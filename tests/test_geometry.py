"""Projection geometry tests.

The closed-form span projection and its inversions are validated against
an independent homogeneous projection-matrix oracle, hand-computed values
at pitch zero (where everything collapses to similar triangles), and
round trips.  Coordinates are normalized by image height, v grows down,
pitch > 0 looks up.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scenescale import geometry
from scenescale.geometry import (CameraParams, GroundObject, HorizonEstimate,
                                 ImageVerticalSpan, depth_from_bottom,
                                 depths_from_bottoms, focal_from_fov,
                                 fov_from_focal, height_from_box_exact,
                                 height_from_box_linear, heights_from_spans,
                                 horizon_from_pitch, oracle_project_points,
                                 pitch_from_horizon, project_spans,
                                 project_tops_with_grads, project_vertical,
                                 projection_matrix, projection_oracle,
                                 usable_boxes)


def _camera(pitch_deg=0.0, fov_deg=60.0, cam_height=1.6, w=640.0, h=512.0):
    return CameraParams.from_fov(math.radians(pitch_deg), math.radians(fov_deg),
                                 cam_height, w, h)


# ---------------------------------------------------------------------------
# Focal length and field of view.

def test_focal_from_fov_right_angle():
    # tan(45 deg) = 1, so the focal equals half the image height
    assert focal_from_fov(math.radians(90.0), 512.0) == pytest.approx(256.0)


def test_focal_from_fov_sixty_degrees():
    assert focal_from_fov(math.radians(60.0), 512.0) == pytest.approx(
        443.40500673763256, rel=1e-12)


def test_focal_fov_round_trip_near_domain_edge():
    fov = math.radians(179.99)
    f = focal_from_fov(fov, 512.0)
    assert f == pytest.approx(0.022340, rel=1e-4)
    assert fov_from_focal(f, 512.0) == pytest.approx(fov, rel=1e-9)


@pytest.mark.parametrize("fov", [0.0, math.pi, -0.3, 4.0])
def test_focal_rejects_out_of_domain_fov(fov):
    with pytest.raises(ValueError):
        focal_from_fov(fov, 512.0)


def test_camera_params_rejects_inconsistent_focal_and_fov():
    with pytest.raises(ValueError):
        CameraParams(pitch_rad=0.0, fov_rad=math.radians(60.0), focal_px=999.0,
                     cam_height_m=1.6, image_w_px=640.0, image_h_px=512.0)


def test_camera_params_principal_defaults_to_center():
    cam = _camera()
    assert cam.principal_v_px == pytest.approx(256.0)


# ---------------------------------------------------------------------------
# Horizon and pitch.

def test_horizon_at_zero_pitch_is_principal_row():
    cam = _camera(pitch_deg=0.0)
    assert horizon_from_pitch(cam).v0 == pytest.approx(0.5)


def test_horizon_fifteen_degrees_up():
    cam = _camera(pitch_deg=15.0)
    v0_px = horizon_from_pitch(cam).v0 * cam.image_h_px
    expected = 256.0 + 443.40500673763256 * math.tan(math.radians(15.0))
    assert v0_px == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(374.81, abs=0.01)


def test_pitch_horizon_round_trip():
    cam = _camera(pitch_deg=15.0)
    v0 = horizon_from_pitch(cam)
    pitch = pitch_from_horizon(v0, cam.focal_px, cam.image_h_px)
    assert pitch == pytest.approx(math.radians(15.0), abs=1e-12)


@given(pitch=st.floats(-1.4, 1.4), fov=st.floats(0.35, 2.0))
@settings(deadline=None, max_examples=60)
def test_pitch_horizon_round_trip_property(pitch, fov):
    cam = CameraParams.from_fov(pitch, fov, 1.6, 640.0, 480.0)
    v0 = horizon_from_pitch(cam)
    assert pitch_from_horizon(v0, cam.focal_px, cam.image_h_px) == pytest.approx(
        pitch, abs=1e-11)


# ---------------------------------------------------------------------------
# Forward projection.

def test_project_vertical_zero_pitch_hand_computed():
    # f=500, v_c=256: v_b = 256 + 500*1.6/8 = 356, v_t = 256 - 500*0.1/8
    cam = CameraParams.from_focal(0.0, 500.0, 1.6, 640.0, 512.0)
    span = project_vertical(cam, GroundObject(depth_m=8.0, height_m=1.7))
    assert span.v_bottom * 512.0 == pytest.approx(356.0, abs=1e-9)
    assert span.v_top * 512.0 == pytest.approx(249.75, abs=1e-9)


def test_project_vertical_zero_height_collapses():
    cam = _camera(pitch_deg=12.0)
    span = project_vertical(cam, GroundObject(depth_m=9.0, height_m=0.0))
    assert span.v_top == pytest.approx(span.v_bottom, abs=1e-15)


def test_project_vertical_matches_oracle_at_pitch():
    cam = CameraParams.from_focal(math.radians(15.0), 443.405, 2.0, 640.0, 512.0)
    obj = GroundObject(depth_m=10.0, height_m=1.7)
    span = project_vertical(cam, obj)
    _, v_bottom = projection_oracle(cam, (0.0, 0.0, 10.0))
    _, v_top = projection_oracle(cam, (0.0, 1.7, 10.0))
    assert span.v_bottom == pytest.approx(v_bottom, abs=1e-9 / 512.0)
    assert span.v_top == pytest.approx(v_top, abs=1e-9 / 512.0)


def test_project_vertical_singular_configuration_raises():
    # top reaches the camera plane: z*cos + (h - h_cam)*sin = 0 at
    # pitch -45, h_cam 2, z 1, h 3
    cam = _camera(pitch_deg=-45.0, cam_height=2.0)
    with pytest.raises(ValueError):
        project_vertical(cam, GroundObject(depth_m=1.0, height_m=3.0))


def test_horizon_limit_of_far_ground_points():
    cam = _camera(pitch_deg=7.0, cam_height=1.6)
    v0 = horizon_from_pitch(cam).v0
    span = project_vertical(cam, GroundObject(depth_m=1e9, height_m=0.0))
    assert span.v_bottom * cam.image_h_px == pytest.approx(
        v0 * cam.image_h_px, abs=1e-6)


def test_bottom_moves_down_as_objects_approach():
    cam = _camera(pitch_deg=-10.0)
    depths = [40.0, 20.0, 10.0, 5.0, 2.5]
    bottoms = [project_vertical(cam, GroundObject(d, 0.0)).v_bottom
               for d in depths]
    assert all(b2 > b1 for b1, b2 in zip(bottoms, bottoms[1:]))


# ---------------------------------------------------------------------------
# Oracle equivalence and round trips (small sweep; the large sweep lives in
# the acceptance suite).

def _random_configs(rng, n):
    """Random configurations with both endpoints in front of the camera.

    Configurations whose top or bottom point crosses the camera plane are
    geometrically invalid for span projection and are filtered out.
    """
    pitch = rng.uniform(-math.pi / 4, math.pi / 4, n)
    fov = rng.uniform(math.radians(20), math.radians(120), n)
    h_cam = rng.uniform(0.3, 20.0, n)
    z = rng.uniform(1.0, 200.0, n)
    h_obj = rng.uniform(0.2, 5.0, n)
    st, ct = np.sin(pitch), np.cos(pitch)
    ok = (z * ct - h_cam * st > 1e-6) & (z * ct + (h_obj - h_cam) * st > 1e-6)
    return pitch[ok], fov[ok], h_cam[ok], z[ok], h_obj[ok]


def test_closed_form_equals_matrix_oracle_on_random_configs():
    rng = np.random.default_rng(7)
    pitch, fov, h_cam, z, h_obj = _random_configs(rng, 500)
    assert len(pitch) > 300
    for i in range(len(pitch)):
        cam = CameraParams.from_fov(pitch[i], fov[i], h_cam[i], 640.0, 480.0)
        span = project_vertical(cam, GroundObject(z[i], h_obj[i]))
        _, vb = projection_oracle(cam, (0.0, 0.0, z[i]))
        _, vt = projection_oracle(cam, (0.0, h_obj[i], z[i]))
        assert abs(span.v_bottom - vb) <= 1e-9
        assert abs(span.v_top - vt) <= 1e-9


def test_height_and_depth_round_trips():
    rng = np.random.default_rng(8)
    pitch, fov, h_cam, z, h_obj = _random_configs(rng, 300)
    for i in range(len(pitch)):
        cam = CameraParams.from_fov(pitch[i], fov[i], h_cam[i], 640.0, 480.0)
        span = project_vertical(cam, GroundObject(z[i], h_obj[i]))
        assert height_from_box_exact(cam, span) == pytest.approx(
            h_obj[i], rel=1e-9)
        ground = project_vertical(cam, GroundObject(z[i], 0.0))
        assert depth_from_bottom(cam, ground.v_bottom) == pytest.approx(
            z[i], rel=1e-9)


@given(st.floats(-0.7, 0.7), st.floats(0.4, 2.0), st.floats(0.4, 15.0),
       st.floats(1.5, 150.0), st.floats(0.3, 4.0))
@settings(deadline=None, max_examples=80)
def test_round_trip_property(pitch, fov, h_cam, z, h_obj):
    cam = CameraParams.from_fov(pitch, fov, h_cam, 640.0, 480.0)
    try:
        span = project_vertical(cam, GroundObject(z, h_obj))
    except ValueError:
        return  # configuration crosses the camera plane; not a round trip case
    assert height_from_box_exact(cam, span) == pytest.approx(h_obj, rel=1e-8)


def test_scale_family_leaves_spans_fixed():
    # monocular ambiguity: scaling camera height, depths and heights together
    cam = _camera(pitch_deg=9.0, cam_height=1.7)
    obj = GroundObject(depth_m=12.0, height_m=1.6)
    base = project_vertical(cam, obj)
    for lam in (0.5, 2.0, 7.3):
        cam_s = CameraParams.from_fov(cam.pitch_rad, cam.fov_rad,
                                      cam.cam_height_m * lam,
                                      cam.image_w_px, cam.image_h_px)
        span = project_vertical(cam_s, GroundObject(12.0 * lam, 1.6 * lam))
        assert span.v_top == pytest.approx(base.v_top, abs=1e-9)
        assert span.v_bottom == pytest.approx(base.v_bottom, abs=1e-9)


def test_depth_scales_linearly_with_camera_height():
    cam = _camera(pitch_deg=-6.0, cam_height=2.0)
    v_b = project_vertical(cam, GroundObject(15.0, 0.0)).v_bottom
    z1 = depth_from_bottom(cam, v_b)
    cam2 = CameraParams.from_fov(cam.pitch_rad, cam.fov_rad, 6.0,
                                 cam.image_w_px, cam.image_h_px)
    assert depth_from_bottom(cam2, v_b) == pytest.approx(z1 * 3.0, rel=1e-12)


def test_depth_from_bottom_rejects_horizon_and_sky():
    cam = _camera(pitch_deg=5.0)
    v0 = horizon_from_pitch(cam).v0
    with pytest.raises(ValueError):
        depth_from_bottom(cam, v0)
    with pytest.raises(ValueError):
        depth_from_bottom(cam, v0 - 0.1)  # above the horizon: no ground hit


# ---------------------------------------------------------------------------
# Linear (horizon-ratio) height model.

def test_linear_model_exact_at_zero_pitch():
    cam = CameraParams.from_focal(0.0, 500.0, 1.6, 640.0, 512.0)
    span = ImageVerticalSpan(v_top=249.75 / 512.0, v_bottom=356.0 / 512.0)
    v0 = horizon_from_pitch(cam)
    h_lin = height_from_box_linear(1.6, v0, span)
    h_exact = height_from_box_exact(cam, span)
    assert h_lin == pytest.approx(1.7, abs=1e-12)
    assert h_lin == pytest.approx(h_exact, rel=1e-12)


def test_linear_model_biased_at_fifteen_degrees():
    cam = _camera(pitch_deg=15.0, fov_deg=60.0, cam_height=2.0)
    span = project_vertical(cam, GroundObject(10.0, 1.7))
    v0 = horizon_from_pitch(cam)
    gap = abs(height_from_box_linear(2.0, v0, span) - 1.7)
    assert gap > 1e-3


def test_linear_model_degenerate_span_gives_zero():
    span = ImageVerticalSpan(v_top=0.7, v_bottom=0.7)
    assert height_from_box_linear(1.6, HorizonEstimate(0.4), span) == 0.0


def test_linear_model_rejects_bottom_on_horizon():
    span = ImageVerticalSpan(v_top=0.35, v_bottom=0.4)
    with pytest.raises(ValueError):
        height_from_box_linear(1.6, HorizonEstimate(0.4), span)


def test_the_inversions_refuse_the_band_the_estimators_exclude():
    # A bottom 5e-7 below v0 is "bottom-on-horizon" to every estimator, so
    # the inversions refuse it too rather than return a depth of 1.7e6
    # camera heights or a height of 2.6e5 m.
    cam = _camera(fov_deg=60.0, cam_height=1.0)
    v0 = horizon_from_pitch(cam).v0
    span = ImageVerticalSpan(v_top=0.42, v_bottom=v0 + 5e-7)
    _, excluded = usable_boxes(v0, [span.v_top], [span.v_bottom], np.ones(1))
    assert excluded == ((0, "bottom-on-horizon"),)
    with pytest.raises(ValueError, match="coincides with the horizon"):
        depth_from_bottom(cam, span.v_bottom)
    with pytest.raises(ValueError, match="coincides with the horizon"):
        height_from_box_linear(1.6, v0, span)


# ---------------------------------------------------------------------------
# Array kernels used by the solver hot path.

def test_array_kernels_match_scalar_ops():
    cam = _camera(pitch_deg=11.0, cam_height=2.4)
    depths = np.array([3.0, 8.0, 21.0, 55.0])
    heights = np.array([1.5, 1.9, 0.8, 3.2])
    v_t, v_b = project_spans(cam, depths, heights)
    for i in range(4):
        span = project_vertical(cam, GroundObject(depths[i], heights[i]))
        assert v_t[i] == pytest.approx(span.v_top, abs=1e-14)
        assert v_b[i] == pytest.approx(span.v_bottom, abs=1e-14)
    assert np.allclose(depths_from_bottoms(cam, v_b), depths, rtol=1e-11)
    assert np.allclose(heights_from_spans(cam, v_t, v_b), heights, rtol=1e-11)


def test_top_projection_gradients_match_finite_differences():
    cam = _camera(pitch_deg=-13.0, cam_height=3.1)
    v_bottoms = np.array([0.62, 0.71, 0.86])
    heights = np.array([1.4, 1.8, 2.3])
    v_top, d_cam, d_h, depths = project_tops_with_grads(cam, v_bottoms, heights)
    assert np.all(depths > 0)
    eps = 1e-7
    cam_hi = CameraParams.from_fov(cam.pitch_rad, cam.fov_rad,
                                   cam.cam_height_m + eps,
                                   cam.image_w_px, cam.image_h_px)
    cam_lo = CameraParams.from_fov(cam.pitch_rad, cam.fov_rad,
                                   cam.cam_height_m - eps,
                                   cam.image_w_px, cam.image_h_px)
    top_hi, _, _, _ = project_tops_with_grads(cam_hi, v_bottoms, heights)
    top_lo, _, _, _ = project_tops_with_grads(cam_lo, v_bottoms, heights)
    assert np.allclose((top_hi - top_lo) / (2 * eps), d_cam, rtol=1e-5)
    top_hi, _, _, _ = project_tops_with_grads(cam, v_bottoms, heights + eps)
    top_lo, _, _, _ = project_tops_with_grads(cam, v_bottoms, heights - eps)
    assert np.allclose((top_hi - top_lo) / (2 * eps), d_h, rtol=1e-5)


# ---------------------------------------------------------------------------
# Projection matrix plumbing.

def test_projection_matrix_shape_and_oracle_consistency():
    cam = _camera(pitch_deg=4.0, cam_height=1.9)
    P = projection_matrix(cam)
    assert P.shape == (3, 4)
    pts = np.array([[0.5, 0.0, 6.0], [-1.0, 1.7, 14.0]])
    uv = oracle_project_points(cam, pts)
    for k in range(2):
        u, v = projection_oracle(cam, pts[k])
        assert uv[k, 0] == pytest.approx(u, abs=1e-12)
        assert uv[k, 1] == pytest.approx(v, abs=1e-12)


def test_oracle_rejects_points_behind_camera():
    cam = _camera()
    with pytest.raises(ValueError):
        projection_oracle(cam, (0.0, 0.0, -3.0))


def test_span_kernel_keeps_floats_floats():
    # The scalar path (`project_vertical`) runs the kernel on plain
    # floats, with the same values as the array path.
    cam = _camera(pitch_deg=11.0, cam_height=2.4)
    v_t, v_b = project_spans(cam, 8.0, 1.9)
    assert type(v_t) is float and type(v_b) is float
    arr_t, arr_b = project_spans(cam, np.array([8.0]), np.array([1.9]))
    assert (v_t, v_b) == (arr_t[0], arr_b[0])
    list_t, list_b = project_spans(cam, [8.0], [1.9])
    assert (list_t.tolist(), list_b.tolist()) == ([v_t], [v_b])
    span = project_vertical(cam, GroundObject(8.0, 1.9))
    assert (span.v_top, span.v_bottom) == (v_t, v_b)


def test_bottom_rays_serve_every_camera_height_of_their_pitch():
    cam = _camera(pitch_deg=7.0, cam_height=1.0, w=1.0, h=1.0)
    v_bottoms = np.array([0.62, 0.75, 0.98])
    heights = np.array([1.7, 1.5, 0.4])
    rays = geometry.bottom_rays(cam, v_bottoms)
    for hc in (0.5, 1.0, 3.2):
        taller = dataclasses.replace(cam, cam_height_m=hc)
        for got, want in zip(
                geometry.project_tops_with_grads(taller, rays, heights),
                geometry.project_tops_with_grads(taller, v_bottoms, heights)):
            np.testing.assert_array_equal(got, want)
    tilted = _camera(pitch_deg=8.0, cam_height=1.0, w=1.0, h=1.0)
    with pytest.raises(ValueError, match="another camera pitch"):
        geometry.project_tops_with_grads(tilted, rays, heights)
