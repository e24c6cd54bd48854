"""Category size priors and keypoint-based posture handling.

Height priors are Gaussians over the metric height of an UPRIGHT object;
the penalty of a height is its negative log density (`prior_penalty`).
A detected person may be crouching or sitting; the keypoint skeleton
gives a posture ratio (actual vertical extent over reconstructed upright
extent) that converts between the two so the prior always applies to the
upright height.  `upright_ratio` scores a (k, 17, 3) stack of skeletons
with array operations; `KeypointSet` holds the skeleton of one box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import starmap

import numpy as np

COCO_KEYPOINT_NAMES = (
    "nose", "left_eye", "right_eye", "left_ear", "right_ear",
    "left_shoulder", "right_shoulder", "left_elbow", "right_elbow",
    "left_wrist", "right_wrist", "left_hip", "right_hip",
    "left_knee", "right_knee", "left_ankle", "right_ankle",
)

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


# Slices of the COCO order: the head points, and each joint pair's left
# and right point.  Steps of 6 and 2 pick a side: shoulder and hip, knee
# and ankle.
_HEAD = slice(0, 5)
_ANKLES = slice(15, 17)
_LEFT_TORSO, _RIGHT_TORSO = slice(5, 12, 6), slice(6, 13, 6)
_LEFT_LEG, _RIGHT_LEG = slice(13, 16, 2), slice(14, 17, 2)


def head_and_ankle_visible(points) -> np.ndarray:
    """Per skeleton of a (k, 17, 3) array: whether some head keypoint and
    some ankle are visible."""
    p = np.asarray(points)
    return p[:, _HEAD, 2].any(axis=1) & p[:, _ANKLES, 2].any(axis=1)


def upright_ratio(points,
                  head_extension: float = DEFAULT_HEAD_EXTENSION) -> np.ndarray:
    """Posture ratio of each skeleton of a (k, 17, 3) array, in (0, 1.05].

    The upright length is the summed segment chain head -> shoulder
    midpoint -> hip midpoint -> knee -> ankle (the longer of the two
    legs), extended upward by `head_extension` times the chain length to
    account for the skull above the highest visible head keypoint.  The
    actual length is the vertical extent from that extended head top down
    to the lowest visible ankle.  Invariant under uniform scaling and
    translation of the keypoints; clamped to (0, 1.05].

    A skeleton that cannot be scored reads 1.0: one without a visible head
    point, shoulder, hip or knee and ankle pair on one side, or whose chain
    has length 0 or an upright length beyond the float range.
    """
    p = np.asarray(points, dtype=float)
    seen = p[..., 2] != 0.0
    # The highest visible head point: the first of the smallest v.
    top = np.argmin(np.where(seen[:, _HEAD], p[:, _HEAD, 1], np.inf), axis=1)
    with np.errstate(all="ignore"):
        # `known` holds the (u, v) of the visible points and 0 for the
        # others; `joint` is it over the visibility, so an invisible point
        # is NaN and so is every length through it.  np.fmax passes over
        # a NaN leg or ankle; a chain that is NaN or 0, or whose upright
        # length (>= chain) overflows, so that inf / inf is NaN, reads 1.
        known = np.where(seen[..., None], p[..., :2], 0.0)
        joint = known / seen[..., None]
        # Shoulder and hip midpoints, each the mean of its visible points.
        mids = ((known[:, _LEFT_TORSO] + known[:, _RIGHT_TORSO])
                / np.add(seen[:, _LEFT_TORSO], seen[:, _RIGHT_TORSO],
                         dtype=float)[..., None])
        head = joint[np.arange(len(p)), top]
        # Joints in chain order, the hip twice: head, shoulder, hip, left
        # knee and ankle, hip, right knee and ankle.  Segment 4 (left
        # ankle to hip) is no segment.
        joints = np.concatenate(
            [head[:, None], mids, joint[:, _LEFT_LEG], mids[:, 1:],
             joint[:, _RIGHT_LEG]], axis=1)
        delta = joints[:, :-1] - joints[:, 1:]
        # math.hypot, not np.hypot: the two differ in the last bit of
        # some lengths, and the ratios keep the bits of the per-skeleton
        # form.
        length = np.fromiter(
            starmap(math.hypot, delta.reshape(-1, 2).tolist()),
            dtype=float, count=delta.size // 2).reshape(-1, 7)
        torso = length[:, 0] + length[:, 1]
        legs = torso[:, None] + length[:, 2::3] + length[:, 3::3]
        chain = np.fmax(*legs.T)
        extension = head_extension * chain
        upright = chain + extension
        head_top_v = head[:, 1] - extension
        actual = np.fmax(*joint[:, _ANKLES, 1].T) - head_top_v
        ratio = np.minimum(np.maximum(actual / upright, _RATIO_MIN),
                           _RATIO_MAX)
        return np.where((0.0 < chain) & (upright < np.inf), ratio, 1.0)


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
