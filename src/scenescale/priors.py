"""Category size priors and keypoint-based posture handling.

Height priors are Gaussians over the metric height of an UPRIGHT object;
the penalty of a height is its negative log density (`prior_penalty`).
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
class HeightPrior:
    """Gaussian prior over an upright object height or the camera height."""

    mean_m: float
    sigma_m: float

    def __post_init__(self) -> None:
        if not (0 < self.mean_m < math.inf and 0 < self.sigma_m < math.inf):
            raise ValueError("prior mean and sigma must be positive and finite, "
                             f"got {self.mean_m} and {self.sigma_m}")


DEFAULT_PRIORS = {
    "person": HeightPrior(1.70, 0.09),
    "car": HeightPrior(1.59, 0.21),
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


_HEAD = tuple(_KP_INDEX[name] for name in HEAD_KEYPOINT_NAMES)
_SHOULDERS = (_KP_INDEX["left_shoulder"], _KP_INDEX["right_shoulder"])
_HIPS = (_KP_INDEX["left_hip"], _KP_INDEX["right_hip"])
_ANKLES = (_KP_INDEX["left_ankle"], _KP_INDEX["right_ankle"])
_LEGS = ((_KP_INDEX["left_knee"], _KP_INDEX["left_ankle"]),
         (_KP_INDEX["right_knee"], _KP_INDEX["right_ankle"]))


def _visible(points, indices) -> list[tuple[float, float, float]]:
    """The (u, v, visibility) points at `indices` whose visibility is not 0."""
    return [points[i] for i in indices if points[i][2] != 0.0]


def _midpoint(points, pair) -> tuple[float, float] | None:
    pts = _visible(points, pair)
    if not pts:
        return None
    return (sum(p[0] for p in pts) / len(pts), sum(p[1] for p in pts) / len(pts))


def _dist(a, b) -> float:
    """Image distance of two points, (u, v) or (u, v, visibility)."""
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
    points = kps.points

    head_pts = _visible(points, _HEAD)
    if not head_pts:
        missing.append("head (nose/eyes/ears)")
    shoulder_mid = _midpoint(points, _SHOULDERS)
    if shoulder_mid is None:
        missing.append("shoulders")
    hip_mid = _midpoint(points, _HIPS)
    if hip_mid is None:
        missing.append("hips")

    ankles = _visible(points, _ANKLES)
    if not ankles:
        missing.append("ankles")

    legs = [(points[knee], points[ankle]) for knee, ankle in _LEGS
            if points[knee][2] != 0.0 and points[ankle][2] != 0.0]
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
    lowest_ankle_v = max(p[1] for p in ankles)
    actual = lowest_ankle_v - head_top_v

    ratio = min(max(actual / upright, _RATIO_MIN), _RATIO_MAX)
    return UprightRatio(ratio)


_SQRT_2PI = math.sqrt(2.0 * math.pi)


def prior_penalty(heights_m, mu, sigma):
    """Prior penalty of each height: its negative log density under
    N(mu, sigma^2), elementwise with per-object mean and sigma."""
    h = np.asarray(heights_m, dtype=float)
    z = (h - mu) / sigma
    return 0.5 * z * z + np.log(sigma * _SQRT_2PI)


def prior_penalty_grad(heights_m, mu, sigma):
    """d prior_penalty_i / d height_i; the second derivative is the
    constant 1 / sigma^2."""
    h = np.asarray(heights_m, dtype=float)
    return (h - mu) / sigma ** 2


def scale_map(q, mu, sigma, weight, prior=None) -> tuple[float, float]:
    """(h, info): the MAP scale of heights q_i * h under the priors
    N(mu_i, sigma_i^2), each counted weight_i times, and under the
    `HeightPrior` `prior` over h if given.  In closed form,
    h = (sum w q mu / sigma^2 + mu_c / sigma_c^2)
        / (sum w q^2 / sigma^2 + 1 / sigma_c^2), the camera terms only
    with a prior; info = sum w q^2 / sigma^2.  Unit weights change no bit.
    """
    var = sigma ** 2
    wq = weight * q
    info = float(np.sum(wq * q / var))
    num = np.sum(wq * mu / var)
    if prior is None:
        return float(num / info), info
    var_c = prior.sigma_m ** 2
    return float((num + prior.mean_m / var_c) / (info + 1.0 / var_c)), info
