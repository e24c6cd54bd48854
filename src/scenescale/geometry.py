"""Ground-plane perspective geometry for single-image scale estimation.

Conventions, fixed across the whole package:

  Image frame   u grows to the right, v grows DOWNWARD, origin at the
                top-left corner.  Every coordinate crossing a public API
                is normalized by the image height, so v = 0 is the top
                edge, v = 1 the bottom edge, and u spans [0, width/height].
  World frame   x right, y UP, z forward (away from the camera).  The
                ground plane is y = 0 and the optical center sits at
                [0, cam_height_m, 0].
  Pitch         rotation about the camera x axis.  pitch > 0 tilts the
                optical axis up, which moves the horizon line down in the
                image: v0 = v_c + f * tan(pitch)  (pixel units, v down).

A thin upright object standing on the ground at depth z with height h
projects to a vertical image span [v_top, v_bottom].  Everything here is
derived from the single pinhole model above; `projection_oracle` builds
the full homogeneous projection matrix and exists as an independent
cross-check of the closed forms.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Guards against numerically meaningless configurations.
_SINGULAR_DEPTH = 1e-12     # camera-plane crossings (meters, camera z)
_CONSISTENCY_RTOL = 1e-9    # allowed focal/fov mismatch


def focal_from_fov(fov_rad: float, image_h_px: float) -> float:
    """Focal length in pixels for a vertical field of view."""
    if not 0.0 < fov_rad < math.pi:
        raise ValueError(f"field of view must lie in (0, pi), got {fov_rad}")
    if image_h_px <= 0:
        raise ValueError(f"image height must be positive, got {image_h_px}")
    return (image_h_px / 2.0) / math.tan(fov_rad / 2.0)


def fov_from_focal(focal_px: float, image_h_px: float) -> float:
    """Vertical field of view in radians for a pixel focal length."""
    if focal_px <= 0:
        raise ValueError(f"focal length must be positive, got {focal_px}")
    if image_h_px <= 0:
        raise ValueError(f"image height must be positive, got {image_h_px}")
    return 2.0 * math.atan(image_h_px / (2.0 * focal_px))


@dataclass(frozen=True)
class CameraParams:
    """Pinhole camera with known pitch and field of view.

    `focal_px` and `fov_rad` are redundant on purpose; the constructor
    verifies they agree so that downstream math may use either.  Use
    `CameraParams.from_fov` / `from_focal` to build a consistent pair.
    """

    pitch_rad: float
    fov_rad: float
    focal_px: float
    cam_height_m: float
    image_w_px: float
    image_h_px: float
    principal_v_px: float | None = None  # defaults to the image center

    def __post_init__(self) -> None:
        if not abs(self.pitch_rad) < math.pi / 2:
            raise ValueError(f"|pitch| must be < pi/2, got {self.pitch_rad}")
        if not 0.0 < self.fov_rad < math.pi:
            raise ValueError(f"fov must lie in (0, pi), got {self.fov_rad}")
        if self.focal_px <= 0:
            raise ValueError(f"focal must be positive, got {self.focal_px}")
        if self.cam_height_m <= 0:
            raise ValueError(
                f"camera height must be positive, got {self.cam_height_m}")
        if self.image_w_px <= 0 or self.image_h_px <= 0:
            raise ValueError("image dimensions must be positive")
        expected = focal_from_fov(self.fov_rad, self.image_h_px)
        if abs(self.focal_px - expected) > _CONSISTENCY_RTOL * expected:
            raise ValueError(
                f"focal {self.focal_px} inconsistent with fov {self.fov_rad} "
                f"(expected {expected})")
        if self.principal_v_px is None:
            object.__setattr__(self, "principal_v_px", self.image_h_px / 2.0)

    @classmethod
    def from_fov(cls, pitch_rad: float, fov_rad: float, cam_height_m: float,
                 image_w_px: float, image_h_px: float,
                 principal_v_px: float | None = None) -> "CameraParams":
        return cls(pitch_rad, fov_rad, focal_from_fov(fov_rad, image_h_px),
                   cam_height_m, image_w_px, image_h_px, principal_v_px)

    @classmethod
    def from_focal(cls, pitch_rad: float, focal_px: float, cam_height_m: float,
                   image_w_px: float, image_h_px: float,
                   principal_v_px: float | None = None) -> "CameraParams":
        return cls(pitch_rad, fov_from_focal(focal_px, image_h_px), focal_px,
                   cam_height_m, image_w_px, image_h_px, principal_v_px)


@dataclass(frozen=True)
class GroundObject:
    """Thin upright object standing on the ground plane.

    height_m = 0 is allowed as the degenerate marker of a ground point;
    real objects have positive height.  `width_m` only matters for the
    horizontal extent of synthetic boxes.
    """

    depth_m: float
    height_m: float
    lateral_m: float = 0.0
    width_m: float = 0.5
    category: str = "person"

    def __post_init__(self) -> None:
        if self.depth_m <= 0:
            raise ValueError(f"depth must be positive, got {self.depth_m}")
        if self.height_m < 0:
            raise ValueError(f"height must be >= 0, got {self.height_m}")
        if self.width_m <= 0:
            raise ValueError(f"width must be positive, got {self.width_m}")


@dataclass(frozen=True)
class ImageVerticalSpan:
    """Vertical image extent [v_top, v_bottom] of an object, normalized.

    For an object of positive height in front of the camera v_top <
    v_bottom; the degenerate v_top == v_bottom span (zero height) is
    representable so inversion code can handle it explicitly.
    """

    v_top: float
    v_bottom: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.v_top) and math.isfinite(self.v_bottom)):
            raise ValueError("span coordinates must be finite")


@dataclass(frozen=True)
class HorizonEstimate:
    """Horizon line height v0, normalized by image height (v down)."""

    v0: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.v0):
            raise ValueError("horizon must be finite")


def horizon_from_pitch(camera: CameraParams) -> HorizonEstimate:
    """Horizon row implied by camera pitch: v0 = v_c + f*tan(pitch)."""
    v0_px = camera.principal_v_px + camera.focal_px * math.tan(camera.pitch_rad)
    return HorizonEstimate(v0_px / camera.image_h_px)


def pitch_from_horizon(v0: float | HorizonEstimate, focal_px: float,
                       image_h_px: float,
                       principal_v_px: float | None = None) -> float:
    """Pitch that puts the horizon at normalized height v0 (inverse of
    `horizon_from_pitch`)."""
    if isinstance(v0, HorizonEstimate):
        v0 = v0.v0
    if principal_v_px is None:
        principal_v_px = image_h_px / 2.0
    return math.atan2(v0 * image_h_px - principal_v_px, focal_px)


def camera_from_horizon(v0: float, fov_rad: float,
                        principal_v: float = 0.5) -> CameraParams:
    """The camera of a normalized image (height and width 1, camera
    height 1) whose horizon lies at v0."""
    pitch = pitch_from_horizon(v0, focal_from_fov(fov_rad, 1.0), 1.0,
                               principal_v)
    return CameraParams.from_fov(pitch, fov_rad, 1.0, 1.0, 1.0,
                                 principal_v_px=principal_v)


# ---------------------------------------------------------------------------
# Array kernels.  These carry the actual formulas; the scalar operations
# below add the per-call guards.  Inputs and outputs are normalized by
# image height; no validity checks, non-finite values propagate.

def project_spans(camera: CameraParams, depths, heights):
    """Vertical spans (v_tops, v_bottoms) of upright objects: float
    depths and heights give floats, sequences give arrays."""
    st, ct = math.sin(camera.pitch_rad), math.cos(camera.pitch_rad)
    f, vc, h_im = camera.focal_px, camera.principal_v_px, camera.image_h_px
    hc = float(camera.cam_height_m)
    # Python floats skip numpy, which would cost more than the formulas.
    z = depths if type(depths) is float else np.asarray(depths, dtype=float)
    h = heights if type(heights) is float else np.asarray(heights,
                                                           dtype=float)
    v_bottom = (vc + f * (hc * ct + z * st) / (z * ct - hc * st)) / h_im
    v_top = (vc + f * ((hc - h) * ct + z * st)
             / (z * ct + (h - hc) * st)) / h_im
    return v_top, v_bottom


def depths_from_bottoms(camera: CameraParams, v_bottoms):
    """Ground depth of each bottom coordinate, vectorized.

    Linear in camera height: halving cam_height_m halves every depth.
    """
    st, ct = math.sin(camera.pitch_rad), math.cos(camera.pitch_rad)
    f, vc, h_im = camera.focal_px, camera.principal_v_px, camera.image_h_px
    w = np.asarray(v_bottoms, dtype=float) * h_im - vc
    return camera.cam_height_m * (f * ct + w * st) / (w * ct - f * st)


def heights_from_spans(camera: CameraParams, v_tops, v_bottoms):
    """Exact object heights from vertical spans, vectorized."""
    st, ct = math.sin(camera.pitch_rad), math.cos(camera.pitch_rad)
    f, vc, h_im = camera.focal_px, camera.principal_v_px, camera.image_h_px
    z = depths_from_bottoms(camera, v_bottoms)
    a = np.asarray(v_tops, dtype=float) * h_im - vc
    return camera.cam_height_m + z * (f * st - a * ct) / (f * ct + a * st)


class BottomRays(NamedTuple):
    """What `project_tops_with_grads` needs of each detected bottom under
    one camera pitch and focal length, at any camera height: the bottom's
    ground depth per unit camera height c, and the derivatives in camera
    height of the camera-frame y and z of a top above it, cos + c*sin and
    c*cos - sin.  `camera` is the `_ray_key` of the camera they hold for.
    """

    camera: tuple
    c: np.ndarray
    d_num: np.ndarray
    d_den: np.ndarray


def _ray_key(camera: CameraParams) -> tuple:
    """The camera fields `BottomRays` depend on: all but the height."""
    return (camera.pitch_rad, camera.focal_px, camera.principal_v_px,
            camera.image_h_px)


def bottom_rays(camera: CameraParams, v_bottoms) -> BottomRays:
    """The `BottomRays` of these bottoms under `camera`, computed once for
    every camera height."""
    st, ct = math.sin(camera.pitch_rad), math.cos(camera.pitch_rad)
    f, vc, h_im = camera.focal_px, camera.principal_v_px, camera.image_h_px
    w = np.asarray(v_bottoms, dtype=float) * h_im - vc
    c = (f * ct + w * st) / (w * ct - f * st)
    return BottomRays(_ray_key(camera), c, ct + c * st, c * ct - st)


def project_tops_with_grads(camera: CameraParams, v_bottoms, heights):
    """Top coordinates of bottom-anchored objects plus analytic partials.

    Each object keeps its bottom pinned to the detected coordinate, so
    its depth is a function of camera height.  `v_bottoms` are the
    bottoms, or their `bottom_rays` under this camera.  Returns
    (v_tops, d v_top / d cam_height, d v_top / d height, depths).
    """
    rays = v_bottoms
    if not isinstance(rays, BottomRays):
        rays = bottom_rays(camera, v_bottoms)
    elif rays.camera != _ray_key(camera):
        raise ValueError("bottom rays of another camera pitch or focal length")
    st, ct = math.sin(camera.pitch_rad), math.cos(camera.pitch_rad)
    f, vc, h_im = camera.focal_px, camera.principal_v_px, camera.image_h_px
    hc = camera.cam_height_m
    h = np.asarray(heights, dtype=float)
    num = hc * rays.d_num - h * ct             # camera-frame y of the top
    den = hc * rays.d_den + h * st             # camera-frame z of the top
    v_top = (vc + f * num / den) / h_im
    common = f / (den * den) / h_im
    d_dhc = common * (rays.d_num * den - num * rays.d_den)
    d_dh = common * (-ct * den - num * st)
    return v_top, d_dhc, d_dh, hc * rays.c


_USABLE_SPAN_EPS = 1e-9  # shorter boxes carry no height
_USABLE_BAND_EPS = 1e-6  # bottoms this close to the horizon carry no depth


def usable_boxes(v0: float, v_tops, v_bottoms, depth_signs):
    """(mask, excluded) of the boxes an estimator can use, the rule all
    methods share; `excluded` gives each other box's index and the first
    reason it meets: "zero-span" (span under 1e-9), "bottom-on-horizon"
    (within 1e-6 of v0), "bottom-above-horizon" and "bottom-behind-camera"
    (its `depth_signs` entry, of the sign of its ground depth, is not
    finite and positive)."""
    spans = np.subtract(v_bottoms, v_tops)
    below = np.subtract(v_bottoms, v0)
    mask = ((below > _USABLE_BAND_EPS) & (np.abs(spans) >= _USABLE_SPAN_EPS)
            & (depth_signs > 0) & (depth_signs < np.inf))
    return mask, tuple(
        (i, "zero-span" if abs(spans[i]) < _USABLE_SPAN_EPS
         else "bottom-on-horizon" if abs(below[i]) <= _USABLE_BAND_EPS
         else "bottom-above-horizon" if below[i] < 0
         else "bottom-behind-camera") for i in np.flatnonzero(~mask).tolist())


def require_usable(excluded, n: int) -> None:
    """Raise the ValueError of a scene none of whose `n` boxes is usable,
    given the `excluded` pairs of `usable_boxes`."""
    if len(excluded) == n:
        reasons = Counter(reason for _, reason in excluded)
        raise ValueError("no usable detections: " + ", ".join(
            f"{count} {reason}" for reason, count in sorted(reasons.items())))


# ---------------------------------------------------------------------------
# Scalar operations with domain guards.

def project_vertical(camera: CameraParams, obj: GroundObject) -> ImageVerticalSpan:
    """Project an upright ground object to its vertical image span.

    Raises ValueError when the object's top or bottom crosses the camera
    plane (the projective expressions lose meaning there).
    """
    st, ct = math.sin(camera.pitch_rad), math.cos(camera.pitch_rad)
    # Python floats: numpy scalars would run the kernel several times slower.
    z, h = float(obj.depth_m), float(obj.height_m)
    hc = float(camera.cam_height_m)
    den_bottom = z * ct - hc * st
    den_top = z * ct + (h - hc) * st
    if abs(den_bottom) < _SINGULAR_DEPTH or abs(den_top) < _SINGULAR_DEPTH:
        raise ValueError(
            "singular configuration: object crosses the camera plane "
            f"(depth {z}, height {h}, pitch {camera.pitch_rad})")
    v_top, v_bottom = project_spans(camera, z, h)
    return ImageVerticalSpan(float(v_top), float(v_bottom))


def depth_from_bottom(camera: CameraParams, v_bottom: float) -> float:
    """Ground depth whose projection lands at normalized v_bottom.

    The result scales linearly with camera.cam_height_m.  Raises
    ValueError if v_bottom sits on the horizon, within the 1e-6 band that
    `usable_boxes` excludes as "bottom-on-horizon" (depth diverges), or
    on the sky side of it (no ground intersection in front of the camera).
    """
    v0 = horizon_from_pitch(camera).v0
    if abs(v_bottom - v0) <= _USABLE_BAND_EPS:
        raise ValueError(
            f"bottom coordinate {v_bottom} coincides with the horizon {v0}")
    z = float(depths_from_bottoms(camera, v_bottom))
    if z <= 0.0:
        raise ValueError(
            f"bottom coordinate {v_bottom} lies above the horizon {v0}; "
            "the viewing ray never reaches the ground in front of the camera")
    return z


def height_from_box_exact(camera: CameraParams, span: ImageVerticalSpan) -> float:
    """Object height from its vertical span under the full perspective model.

    Exact inverse of `project_vertical` with the depth recovered from the
    bottom coordinate; scales linearly in camera.cam_height_m.
    """
    st, ct = math.sin(camera.pitch_rad), math.cos(camera.pitch_rad)
    a = span.v_top * camera.image_h_px - camera.principal_v_px
    if abs(camera.focal_px * ct + a * st) < _SINGULAR_DEPTH:
        raise ValueError(
            "singular configuration: top coordinate crosses the camera plane")
    z = depth_from_bottom(camera, span.v_bottom)  # raises on horizon/sky side
    return float(heights_from_spans(camera, span.v_top, span.v_bottom))


def height_from_box_linear(cam_height_m: float, v0: float | HorizonEstimate,
                           span: ImageVerticalSpan) -> float:
    """Object height under the linear horizon-ratio approximation.

    h = cam_height * (v_top - v_bottom) / (v0 - v_bottom).  Agrees with
    the exact inversion only at zero pitch; elsewhere it is biased.
    Raises ValueError for a bottom within 1e-6 of v0.
    """
    if isinstance(v0, HorizonEstimate):
        v0 = v0.v0
    if cam_height_m <= 0:
        raise ValueError(f"camera height must be positive, got {cam_height_m}")
    denom = v0 - span.v_bottom
    if abs(denom) <= _USABLE_BAND_EPS:
        raise ValueError(
            f"bottom coordinate {span.v_bottom} coincides with the horizon {v0}")
    return cam_height_m * (span.v_top - span.v_bottom) / denom


# ---------------------------------------------------------------------------
# Independent cross-check path: full homogeneous projection matrix.

def projection_matrix(camera: CameraParams) -> np.ndarray:
    """3x4 homogeneous projection (pixel output, world frame of module).

    Built as K @ E @ [I | -C] with C the optical center [0, h_cam, 0] and
    E the world-to-camera axis map (pitch about x composed with the
    y-up -> v-down flip).  Deliberately matrix-based so it shares no code
    with the closed forms above.
    """
    f = camera.focal_px
    k = np.array([
        [f, 0.0, camera.image_w_px / 2.0],
        [0.0, f, camera.principal_v_px],
        [0.0, 0.0, 1.0],
    ])
    st, ct = math.sin(camera.pitch_rad), math.cos(camera.pitch_rad)
    # Rotation about x by -pitch, composed with diag(1, -1, 1).
    e = np.array([
        [1.0, 0.0, 0.0],
        [0.0, -ct, st],
        [0.0, st, ct],
    ])
    center = np.array([0.0, camera.cam_height_m, 0.0])
    rt = np.hstack([np.eye(3), -center[:, None]])
    return k @ e @ rt


def projection_oracle(camera: CameraParams,
                      point_world: tuple[float, float, float]) -> tuple[float, float]:
    """Project a world point through the full matrix; returns (u, v) normalized.

    Raises ValueError for points at or behind the camera plane.
    """
    p = projection_matrix(camera)
    x, y, z = point_world
    uvw = p @ np.array([x, y, z, 1.0])
    if uvw[2] < _SINGULAR_DEPTH:
        raise ValueError(f"point {point_world} is behind the camera plane")
    return (float(uvw[0] / uvw[2] / camera.image_h_px),
            float(uvw[1] / uvw[2] / camera.image_h_px))


def oracle_project_points(camera: CameraParams, points_world,
                          matrix: np.ndarray | None = None) -> np.ndarray:
    """Vectorized `projection_oracle`; points_world is (n, 3), returns (n, 2).

    `matrix` is the camera's `projection_matrix` when the caller already
    built it.
    """
    p = projection_matrix(camera) if matrix is None else matrix
    pts = np.asarray(points_world, dtype=float)
    hom = np.hstack([pts, np.ones((pts.shape[0], 1))])
    uvw = hom @ p.T
    with np.errstate(divide="ignore", invalid="ignore"):
        uv = uvw[:, :2] / uvw[:, 2:3]
    return uv / camera.image_h_px
