"""Category size priors and keypoint-based posture handling.

Height priors are Gaussians over the metric height of an UPRIGHT object.
A detected person may be crouching or sitting; the keypoint skeleton
gives a posture ratio (actual vertical extent over reconstructed upright
extent) that converts between the two so the prior always applies to the
upright height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

COCO_KEYPOINT_NAMES = (
    "nose", "left_eye", "right_eye", "left_ear", "right_ear",
    "left_shoulder", "right_shoulder", "left_elbow", "right_elbow",
    "left_wrist", "right_wrist", "left_hip", "right_hip",
    "left_knee", "right_knee", "left_ankle", "right_ankle",
)
_KP_INDEX = {name: i for i, name in enumerate(COCO_KEYPOINT_NAMES)}

HEAD_KEYPOINT_NAMES = ("nose", "left_eye", "right_eye", "left_ear", "right_ear")

# The visible head keypoints sit below the top of the skull; extend the
# highest one upward by this fraction of the skeleton chain length.
DEFAULT_HEAD_EXTENSION = 0.08

_RATIO_MAX = 1.05
_RATIO_MIN = 1e-6


@dataclass(frozen=True)
class CategoryPrior:
    """Gaussian prior over the upright metric height of a category."""

    category: str
    mean_m: float
    sigma_m: float

    def __post_init__(self) -> None:
        if self.mean_m <= 0:
            raise ValueError(f"prior mean must be positive, got {self.mean_m}")
        if self.sigma_m <= 0:
            raise ValueError(f"prior sigma must be positive, got {self.sigma_m}")


DEFAULT_PRIORS = {
    "person": CategoryPrior("person", 1.70, 0.09),
    "car": CategoryPrior("car", 1.59, 0.21),
}


class MissingKeypointsError(ValueError):
    """Raised when a skeleton lacks the joints needed for the posture ratio."""

    def __init__(self, missing: tuple[str, ...]):
        self.missing = missing
        super().__init__(f"keypoints missing or invisible: {', '.join(missing)}")


@dataclass(frozen=True)
class KeypointSet:
    """17 COCO-ordered keypoints as (u, v, visibility) triples.

    Coordinates follow the package convention (normalized by image
    height, v down).  visibility == 0 means absent; any nonzero flag
    counts as usable.
    """

    points: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if len(self.points) != len(COCO_KEYPOINT_NAMES):
            raise ValueError(
                f"expected {len(COCO_KEYPOINT_NAMES)} keypoints, "
                f"got {len(self.points)}")

    @classmethod
    def from_array(cls, arr) -> "KeypointSet":
        a = np.asarray(arr, dtype=float)
        if a.shape != (17, 3):
            raise ValueError(f"keypoint array must be (17, 3), got {a.shape}")
        return cls(tuple((float(u), float(v), float(vis)) for u, v, vis in a))

    def visible(self, name: str) -> bool:
        return self.points[_KP_INDEX[name]][2] != 0.0

    def coords(self, name: str) -> tuple[float, float]:
        u, v, _ = self.points[_KP_INDEX[name]]
        return u, v


@dataclass(frozen=True)
class UprightRatio:
    """Actual vertical extent over reconstructed upright extent, in (0, 1.05]."""

    ratio: float

    def __post_init__(self) -> None:
        if not _RATIO_MIN <= self.ratio <= _RATIO_MAX:
            raise ValueError(
                f"ratio must lie in [{_RATIO_MIN}, {_RATIO_MAX}], got {self.ratio}")


def _midpoint(kps: KeypointSet, left: str, right: str) -> tuple[float, float] | None:
    pts = [kps.coords(n) for n in (left, right) if kps.visible(n)]
    if not pts:
        return None
    return (sum(p[0] for p in pts) / len(pts), sum(p[1] for p in pts) / len(pts))


def _dist(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def upright_ratio(kps: KeypointSet,
                  head_extension: float = DEFAULT_HEAD_EXTENSION) -> UprightRatio:
    """Posture ratio of a person skeleton.

    The upright length is the summed segment chain head -> shoulder
    midpoint -> hip midpoint -> knee -> ankle (the longer of the two
    legs), extended upward by `head_extension` times the chain length to
    account for the skull above the highest visible head keypoint.  The
    actual length is the vertical extent from that extended head top down
    to the lowest visible ankle.  Invariant under uniform scaling and
    translation of the keypoints; clamped to (0, 1.05].
    """
    missing: list[str] = []

    head_pts = [kps.coords(n) for n in HEAD_KEYPOINT_NAMES if kps.visible(n)]
    if not head_pts:
        missing.append("head (nose/eyes/ears)")
    shoulder_mid = _midpoint(kps, "left_shoulder", "right_shoulder")
    if shoulder_mid is None:
        missing.append("shoulders")
    hip_mid = _midpoint(kps, "left_hip", "right_hip")
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

    head = min(head_pts, key=lambda p: p[1])  # highest in the image
    torso = _dist(head, shoulder_mid) + _dist(shoulder_mid, hip_mid)
    chain = max(torso + _dist(hip_mid, knee) + _dist(knee, ankle)
                for knee, ankle in legs)
    if chain <= 0.0:
        raise ValueError("degenerate skeleton: zero chain length")

    extension = head_extension * chain
    upright = chain + extension
    head_top_v = head[1] - extension
    lowest_ankle_v = max(v for _, v in ankles)
    actual = lowest_ankle_v - head_top_v

    ratio = min(max(actual / upright, _RATIO_MIN), _RATIO_MAX)
    return UprightRatio(ratio)


# ---------------------------------------------------------------------------
# Prior penalty, elementwise over heights with per-object mean and sigma.
#
# mode="log_density" is the negative log density (the solver's default and
# the prior loss the baselines report); mode="density" is the negative
# density, bounded below by -pdf(mean) and not scale-invariant.

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _gaussian_pdf(heights, mu, sigma):
    z = (heights - mu) / sigma
    return np.exp(-0.5 * z * z) / (sigma * _SQRT_2PI)


def _unknown_mode(mode: str) -> ValueError:
    return ValueError(f"unknown prior mode {mode!r}")


def prior_penalty(heights_m, mu, sigma, mode: str):
    """Prior penalty of each height under N(mu, sigma^2)."""
    h = np.asarray(heights_m, dtype=float)
    if mode == "density":
        return -_gaussian_pdf(h, mu, sigma)
    if mode == "log_density":
        z = (h - mu) / sigma
        return 0.5 * z * z + np.log(sigma * _SQRT_2PI)
    raise _unknown_mode(mode)


def prior_penalty_grad(heights_m, mu, sigma, mode: str):
    """d prior_penalty_i / d height_i."""
    h = np.asarray(heights_m, dtype=float)
    if mode == "density":
        return _gaussian_pdf(h, mu, sigma) * (h - mu) / sigma ** 2
    if mode == "log_density":
        return (h - mu) / sigma ** 2
    raise _unknown_mode(mode)


def prior_curvature(heights_m, mu, sigma, mode: str):
    """Nonnegative curvature of each penalty for a Gauss-Newton step model:
    exact in log_density mode, the positive part in density mode."""
    h = np.asarray(heights_m, dtype=float)
    if mode == "density":
        return _gaussian_pdf(h, mu, sigma) / sigma ** 2
    if mode == "log_density":
        return np.ones_like(h) / sigma ** 2
    raise _unknown_mode(mode)
