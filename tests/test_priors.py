"""Height priors and the keypoint posture-ratio correction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scenescale.priors import (COCO_KEYPOINT_NAMES, HeightPrior,
                               DEFAULT_PRIORS, HEAD_KEYPOINT_NAMES,
                               KeypointSet, MissingKeypointsError,
                               UprightRatio, prior_penalty,
                               prior_penalty_grad, scale_map, upright_ratio)

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
        HeightPrior(1.7, 0.0)


# ---------------------------------------------------------------------------
# Prior penalty.

def _penalty(heights, prior):
    return prior_penalty(heights, prior.mean_m, prior.sigma_m)


def test_density_loss_at_person_mean():
    # The negative log of the density's peak 1 / (sigma sqrt(2 pi)).
    expected = math.log(0.09 * math.sqrt(2.0 * math.pi))
    loss = _penalty([1.70], PERSON)[0]
    assert loss == pytest.approx(expected, rel=1e-12)
    assert loss == pytest.approx(-1.4890, abs=1e-4)


def test_density_loss_at_car_mean():
    loss = _penalty([1.59], CAR)[0]
    assert loss == pytest.approx(math.log(0.21 * math.sqrt(2.0 * math.pi)),
                                 rel=1e-12)
    assert loss == pytest.approx(-0.6417, abs=1e-4)


def test_mean_is_the_global_minimizer():
    at_mean = _penalty([PERSON.mean_m], PERSON)[0]
    for delta in (0.05, -0.05, 0.3, -0.3):
        assert at_mean < _penalty([PERSON.mean_m + delta], PERSON)[0]


def test_loss_is_symmetric_about_the_mean():
    for delta in (0.01, 0.12, 0.5):
        hi = _penalty([PERSON.mean_m + delta], PERSON)[0]
        lo = _penalty([PERSON.mean_m - delta], PERSON)[0]
        assert hi == pytest.approx(lo, abs=1e-12)


def test_loss_averages_over_heights():
    # Elementwise over heights with per-object priors, so the mean over a
    # mixed batch is the mean of the single-object penalties.
    heights = [1.7, 1.5, 1.7]
    mu = np.array([PERSON.mean_m, CAR.mean_m, PERSON.mean_m])
    sigma = np.array([PERSON.sigma_m, CAR.sigma_m, PERSON.sigma_m])
    batch = prior_penalty(heights, mu, sigma)
    singles = [prior_penalty([h], m, s)[0]
               for h, m, s in zip(heights, mu, sigma)]
    np.testing.assert_array_equal(batch, singles)
    assert np.mean(prior_penalty([1.7] * 3, PERSON.mean_m,
                                 PERSON.sigma_m)) == pytest.approx(
        _penalty([1.7], PERSON)[0], rel=1e-12)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(3)
    heights = PERSON.mean_m + rng.uniform(-3, 3, 8) * PERSON.sigma_m
    grad = prior_penalty_grad(heights, PERSON.mean_m, PERSON.sigma_m)
    eps = 1e-6
    fd = (_penalty(heights + eps, PERSON)
          - _penalty(heights - eps, PERSON)) / (2 * eps)
    np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-10)


def test_gaussian_pdf_peak():
    # The penalty is the negative log of the Gaussian density.
    assert math.exp(-_penalty([1.70], PERSON)[0]) == pytest.approx(
        1.0 / (0.09 * math.sqrt(2 * math.pi)), rel=1e-12)


def test_curvature_is_the_step_model_second_derivative():
    # The refine step's model takes the penalty's curvature as the
    # constant 1 / sigma^2 (`solver._arrow_system`).
    heights = PERSON.mean_m + np.linspace(-3, 3, 7) * PERSON.sigma_m
    eps = 1e-6
    fd = (prior_penalty_grad(heights + eps, PERSON.mean_m, PERSON.sigma_m)
          - prior_penalty_grad(heights - eps, PERSON.mean_m, PERSON.sigma_m)
          ) / (2 * eps)
    np.testing.assert_allclose(fd, 1.0 / PERSON.sigma_m ** 2, rtol=1e-5)


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


def _reference_upright_ratio(kps, head_extension=0.08):
    """`upright_ratio` as it was written through `KeypointSet.coords` and
    `visible`, kept to check that indexing the points changes no bit."""
    def midpoint(left, right):
        pts = [kps.coords(n) for n in (left, right) if kps.visible(n)]
        if not pts:
            return None
        return (sum(p[0] for p in pts) / len(pts),
                sum(p[1] for p in pts) / len(pts))

    def dist(a, b):
        return math.hypot(a[0] - b[0], a[1] - b[1])

    missing = []
    head_pts = [kps.coords(n) for n in HEAD_KEYPOINT_NAMES if kps.visible(n)]
    if not head_pts:
        missing.append("head (nose/eyes/ears)")
    shoulder_mid = midpoint("left_shoulder", "right_shoulder")
    if shoulder_mid is None:
        missing.append("shoulders")
    hip_mid = midpoint("left_hip", "right_hip")
    if hip_mid is None:
        missing.append("hips")
    ankles = [kps.coords(n) for n in ("left_ankle", "right_ankle")
              if kps.visible(n)]
    if not ankles:
        missing.append("ankles")
    legs = []
    for side in ("left", "right"):
        knee, ankle = f"{side}_knee", f"{side}_ankle"
        if kps.visible(knee) and kps.visible(ankle):
            legs.append((kps.coords(knee), kps.coords(ankle)))
    if not legs:
        missing.append("knee+ankle pair")
    if missing:
        raise MissingKeypointsError(tuple(missing))
    head = min(head_pts, key=lambda p: p[1])
    torso = dist(head, shoulder_mid) + dist(shoulder_mid, hip_mid)
    chain = max(torso + dist(hip_mid, knee) + dist(knee, ankle)
                for knee, ankle in legs)
    if chain <= 0.0:
        raise ValueError("degenerate skeleton: zero chain length")
    extension = head_extension * chain
    upright = chain + extension
    head_top_v = head[1] - extension
    lowest_ankle_v = max(v for _, v in ankles)
    actual = lowest_ankle_v - head_top_v
    return UprightRatio(min(max(actual / upright, 1e-6), 1.05))


def _outcome(ratio, kps, head_extension):
    try:
        return ratio(kps, head_extension).ratio.hex()
    except ValueError as exc:        # MissingKeypointsError among them
        return type(exc), str(exc)


# Coordinates with repeats (zero-length segments, ties for the highest
# head point), both zeros, and visibilities that are often 0.
_COORD = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 1e-300]),
                   st.floats(-2.0, 3.0))
_POINT = st.tuples(_COORD, _COORD, st.sampled_from([0.0, 0.0, 1.0, 2.0]))


@given(points=st.lists(_POINT, min_size=17, max_size=17),
       head_extension=st.one_of(st.just(0.08), st.floats(0.0, 1.0)))
@settings(deadline=None, max_examples=400)
def test_ratio_keeps_every_bit_of_the_per_keypoint_version(points,
                                                           head_extension):
    kps = KeypointSet(tuple(points))
    assert (_outcome(upright_ratio, kps, head_extension)
            == _outcome(_reference_upright_ratio, kps, head_extension))


def test_keypoint_set_requires_seventeen_points():
    with pytest.raises(ValueError):
        KeypointSet(((0.0, 0.0, 0.0),) * 5)


# ---------------------------------------------------------------------------
# Closed-form scale.

_SCALE_BOXES = dict(q=np.array([0.9, 1.3, 0.45, 2.2]),
                    mu=np.array([1.70, 1.59, 1.70, 1.59]),
                    sigma=np.array([0.09, 0.21, 0.09, 0.21]),
                    weight=np.array([1.0, 0.5, 2.0, 1.5]))


@pytest.mark.parametrize("prior", [None, HeightPrior(1.6, 0.5),
                                   HeightPrior(4.0, 0.05)])
def test_scale_map_matches_a_grid_search(prior):
    q, mu, sigma, w = _SCALE_BOXES.values()
    grid = np.arange(0.2, 8.0, 1e-4)
    log_post = -0.5 * np.sum(w * (np.outer(grid, q) - mu) ** 2 / sigma ** 2,
                             axis=1)
    if prior is not None:
        log_post -= 0.5 * (grid - prior.mean_m) ** 2 / prior.sigma_m ** 2
    h, info = scale_map(q, mu, sigma, w, prior)
    assert abs(h - grid[np.argmax(log_post)]) < 1e-4
    assert info == pytest.approx(np.sum(w * q * q / sigma ** 2), rel=1e-15)


def test_scale_map_unit_weights_keep_every_bit():
    # pgm's bytes rest on this: the weight multiplies first, and by 1 exactly.
    q, mu, sigma, _ = _SCALE_BOXES.values()
    prior = HeightPrior(1.6, 0.5)
    var = sigma ** 2
    info = float(np.sum(q * q / var))
    expect = float((np.sum(q * mu / var) + prior.mean_m / prior.sigma_m ** 2)
                   / (info + 1.0 / prior.sigma_m ** 2))
    assert scale_map(q, mu, sigma, np.ones(4), prior) == (expect, info)
