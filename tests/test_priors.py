"""Height priors and the keypoint posture-ratio correction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scenescale.priors import (COCO_KEYPOINT_NAMES, CategoryPrior,
                               DEFAULT_PRIORS, KeypointSet,
                               MissingKeypointsError, _gaussian_pdf,
                               prior_curvature, prior_penalty,
                               prior_penalty_grad, upright_ratio)

PERSON = DEFAULT_PRIORS["person"]
CAR = DEFAULT_PRIORS["car"]


def _kps(named: dict, vis: float = 2.0) -> KeypointSet:
    """KeypointSet with the named points visible and everything else absent."""
    rows = []
    for name in COCO_KEYPOINT_NAMES:
        if name in named:
            u, v = named[name]
            rows.append((u, v, vis))
        else:
            rows.append((0.0, 0.0, 0.0))
    return KeypointSet(tuple(rows))


def _vertical_pose(scale: float = 1.0, du: float = 0.0, dv: float = 0.0) -> dict:
    pose = {
        "nose": (0.5, 0.10),
        "left_shoulder": (0.45, 0.20), "right_shoulder": (0.55, 0.20),
        "left_hip": (0.46, 0.40), "right_hip": (0.54, 0.40),
        "left_knee": (0.5, 0.55), "right_knee": (0.5, 0.55),
        "left_ankle": (0.5, 0.70), "right_ankle": (0.5, 0.70),
    }
    return {k: (u * scale + du, v * scale + dv) for k, (u, v) in pose.items()}


# ---------------------------------------------------------------------------
# Default priors.

def test_default_prior_values():
    assert (PERSON.mean_m, PERSON.sigma_m) == (1.70, 0.09)
    assert (CAR.mean_m, CAR.sigma_m) == (1.59, 0.21)


def test_prior_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        CategoryPrior("person", 1.7, 0.0)


# ---------------------------------------------------------------------------
# Prior penalty.

def _penalty(heights, prior, mode):
    return prior_penalty(heights, prior.mean_m, prior.sigma_m, mode)


def test_density_loss_at_person_mean():
    expected = -1.0 / (0.09 * math.sqrt(2.0 * math.pi))
    loss = _penalty([1.70], PERSON, "density")[0]
    assert loss == pytest.approx(expected, rel=1e-12)
    assert loss == pytest.approx(-4.4326, abs=1e-4)


def test_density_loss_at_car_mean():
    loss = _penalty([1.59], CAR, "density")[0]
    assert loss == pytest.approx(-1.0 / (0.21 * math.sqrt(2.0 * math.pi)),
                                 rel=1e-12)
    assert loss == pytest.approx(-1.8997, abs=1e-4)


@pytest.mark.parametrize("mode", ["density", "log_density"])
def test_mean_is_the_global_minimizer(mode):
    at_mean = _penalty([PERSON.mean_m], PERSON, mode)[0]
    for delta in (0.05, -0.05, 0.3, -0.3):
        assert at_mean < _penalty([PERSON.mean_m + delta], PERSON, mode)[0]


@pytest.mark.parametrize("mode", ["density", "log_density"])
def test_loss_is_symmetric_about_the_mean(mode):
    for delta in (0.01, 0.12, 0.5):
        hi = _penalty([PERSON.mean_m + delta], PERSON, mode)[0]
        lo = _penalty([PERSON.mean_m - delta], PERSON, mode)[0]
        assert hi == pytest.approx(lo, abs=1e-12)


def test_loss_averages_over_heights():
    # Elementwise over heights with per-object priors, so the mean over a
    # mixed batch is the mean of the single-object penalties.
    heights = [1.7, 1.5, 1.7]
    mu = np.array([PERSON.mean_m, CAR.mean_m, PERSON.mean_m])
    sigma = np.array([PERSON.sigma_m, CAR.sigma_m, PERSON.sigma_m])
    batch = prior_penalty(heights, mu, sigma, "density")
    singles = [prior_penalty([h], m, s, "density")[0]
               for h, m, s in zip(heights, mu, sigma)]
    np.testing.assert_array_equal(batch, singles)
    assert np.mean(prior_penalty([1.7] * 3, PERSON.mean_m, PERSON.sigma_m,
                                 "density")) == pytest.approx(
        _penalty([1.7], PERSON, "density")[0], rel=1e-12)


def test_unknown_mode_rejected():
    for fn in (prior_penalty, prior_penalty_grad, prior_curvature):
        with pytest.raises(ValueError):
            fn([1.7], PERSON.mean_m, PERSON.sigma_m, "huber")


@pytest.mark.parametrize("mode", ["density", "log_density"])
def test_gradient_matches_central_differences(mode):
    rng = np.random.default_rng(3)
    heights = PERSON.mean_m + rng.uniform(-3, 3, 8) * PERSON.sigma_m
    grad = prior_penalty_grad(heights, PERSON.mean_m, PERSON.sigma_m, mode)
    eps = 1e-6
    fd = (_penalty(heights + eps, PERSON, mode)
          - _penalty(heights - eps, PERSON, mode)) / (2 * eps)
    np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-10)


def test_gaussian_pdf_peak():
    # The density that all three density-mode functions share.
    assert _gaussian_pdf(1.70, 1.70, 0.09) == pytest.approx(
        1.0 / (0.09 * math.sqrt(2 * math.pi)), rel=1e-12)


@pytest.mark.parametrize("mode", ["density", "log_density"])
def test_curvature_is_the_step_model_second_derivative(mode):
    # Exact second derivative in log_density mode; in density mode the
    # nonnegative surrogate, which is exact at the mean.
    heights = PERSON.mean_m + np.linspace(-3, 3, 7) * PERSON.sigma_m
    curv = prior_curvature(heights, PERSON.mean_m, PERSON.sigma_m, mode)
    eps = 1e-6
    fd = (prior_penalty_grad(heights + eps, PERSON.mean_m, PERSON.sigma_m,
                             mode)
          - prior_penalty_grad(heights - eps, PERSON.mean_m, PERSON.sigma_m,
                               mode)) / (2 * eps)
    assert np.all(curv > 0)
    if mode == "log_density":
        np.testing.assert_allclose(curv, fd, rtol=1e-5)
    else:
        assert curv[3] == pytest.approx(fd[3], rel=1e-5)
        assert np.all(curv >= fd - 1e-9)


# ---------------------------------------------------------------------------
# Upright ratio.

def test_vertical_pose_has_ratio_one():
    r = upright_ratio(_kps(_vertical_pose()))
    assert r.ratio == pytest.approx(1.0, abs=1e-12)


def test_vertical_pose_ratio_independent_of_head_extension():
    kps = _kps(_vertical_pose())
    assert upright_ratio(kps, head_extension=0.0).ratio == pytest.approx(1.0)
    assert upright_ratio(kps, head_extension=0.2).ratio == pytest.approx(1.0)


def test_folded_leg_halves_the_extent():
    # torso 0.3 vertical; the leg folds fully horizontal (0.2 + 0.1), so
    # the vertical extent is exactly half the 0.6 chain
    pose = {
        "nose": (0.5, 0.10),
        "left_shoulder": (0.5, 0.20), "right_shoulder": (0.5, 0.20),
        "left_hip": (0.5, 0.40), "right_hip": (0.5, 0.40),
        "left_knee": (0.7, 0.40), "left_ankle": (0.8, 0.40),
    }
    r = upright_ratio(_kps(pose), head_extension=0.0)
    assert r.ratio == pytest.approx(0.5, abs=1e-12)
    # with the default 0.08 head extension both lengths grow by the same
    # absolute amount: (0.3 + 0.048) / (0.6 + 0.048)
    r_ext = upright_ratio(_kps(pose))
    assert r_ext.ratio == pytest.approx(0.348 / 0.648, abs=1e-12)


def test_ratio_clamped_at_upper_bound():
    # short visible leg chain but the other ankle dangles far below it
    pose = {
        "nose": (0.5, 0.10),
        "left_shoulder": (0.5, 0.20), "right_shoulder": (0.5, 0.20),
        "left_hip": (0.5, 0.40), "right_hip": (0.5, 0.40),
        "left_knee": (0.5, 0.45), "left_ankle": (0.5, 0.50),
        "right_ankle": (0.5, 0.95),
    }
    assert upright_ratio(_kps(pose)).ratio == pytest.approx(1.05)


@given(scale=st.floats(0.05, 40.0), du=st.floats(-5.0, 5.0),
       dv=st.floats(-5.0, 5.0))
@settings(deadline=None, max_examples=60)
def test_ratio_invariant_to_scale_and_translation(scale, du, dv):
    base = upright_ratio(_kps(_vertical_pose())).ratio
    moved = upright_ratio(_kps(_vertical_pose(scale, du, dv))).ratio
    assert moved == pytest.approx(base, rel=1e-9)


def test_missing_ankles_reported():
    pose = _vertical_pose()
    del pose["left_ankle"], pose["right_ankle"]
    with pytest.raises(MissingKeypointsError) as err:
        upright_ratio(_kps(pose))
    assert any("ankle" in part for part in err.value.missing)


def test_missing_head_reported():
    pose = _vertical_pose()
    del pose["nose"]
    with pytest.raises(MissingKeypointsError) as err:
        upright_ratio(_kps(pose))
    assert any("head" in part for part in err.value.missing)


def test_single_visible_shoulder_suffices():
    # the lone shoulder stands in for the midpoint, so keep it centered
    pose = _vertical_pose()
    del pose["right_shoulder"]
    pose["left_shoulder"] = (0.5, 0.20)
    assert upright_ratio(_kps(pose)).ratio == pytest.approx(1.0, abs=1e-9)


def test_keypoint_set_requires_seventeen_points():
    with pytest.raises(ValueError):
        KeypointSet(((0.0, 0.0, 0.0),) * 5)
