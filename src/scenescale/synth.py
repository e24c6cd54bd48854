"""Synthetic scene generation with exact projective rendering.

Scenes are sampled with the PCG64 generator (numpy's default_rng) so a
seed fully determines the output; separate child streams derive from
(seed, purpose) pairs so adding noise never disturbs scene sampling.
Rendering projects each object through the same camera model the solver
inverts, which makes noiseless synthetic data exactly recoverable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, priors
from .geometry import CameraParams, GroundObject
from .solver import DetectionBox

# Child-stream tags so each randomness source is independent of the others.
_STREAM_SCENE = 0
_STREAM_OUTLIER = 1
_STREAM_BOX = 2
_STREAM_CALIBRATION = 3

DEFAULT_WIDTHS = {"person": 0.5, "car": 1.8}

_MIN_HEIGHT = 0.05
_MAX_ORDER_RESAMPLES = 100

# Placement: attempts per object checked one at a time before blocks
# start, the first block's size and its growth, and the margin by which
# a screened candidate must fail (normalized units) to be dropped.
_SCALAR_ATTEMPTS = 2
_FIRST_BLOCK = 32
_BLOCK_GROWTH = 4
_SCREEN_EPS = 1e-9


@dataclass(frozen=True)
class SceneRanges:
    """Sampling ranges for random scenes (uniform unless stated)."""

    pitch_rad: tuple[float, float] = (-math.pi / 6, math.pi / 6)     # +-30 deg
    fov_rad: tuple[float, float] = (math.radians(30), math.radians(100))
    cam_height_m: tuple[float, float] = (0.5, 10.0)
    depth_m: tuple[float, float] = (2.0, 40.0)
    lateral_frac: float = 0.35        # |x| <= frac * depth
    image_w_px: float = 640.0
    image_h_px: float = 480.0
    categories: tuple[str, ...] = ("person",)
    horizon_margin: float = 1e-3      # bottoms stay this far below the horizon

    def __post_init__(self) -> None:
        for name in ("pitch_rad", "fov_rad", "cam_height_m", "depth_m"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise ValueError(f"range {name} is empty: {(lo, hi)}")
        for name in ("depth_m", "cam_height_m"):
            if not getattr(self, name)[0] > 0.0:
                raise ValueError(
                    f"range {name} must lie above 0: {getattr(self, name)}")
        for name in ("lateral_frac", "horizon_margin"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(
                    f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.categories:
            raise ValueError("need at least one category")


@dataclass(frozen=True)
class NoiseModel:
    """Observation noise applied at render / calibration time."""

    box_sigma: float = 0.0            # gaussian, per box coordinate (normalized)
    horizon_sigma: float = 0.0        # gaussian on v0 (normalized)
    fov_sigma_rad: float = 0.0        # gaussian on the field of view
    height_outlier_rate: float = 0.0  # fraction with heights ~ U[0.5mu, 1.5mu]

    def __post_init__(self) -> None:
        for name in ("box_sigma", "horizon_sigma", "fov_sigma_rad"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 <= self.height_outlier_rate <= 1.0:
            raise ValueError("height_outlier_rate must lie in [0, 1]")


@dataclass(frozen=True)
class SceneSpec:
    """A sampled camera plus ground-truth objects; seed reproduces it."""

    camera: CameraParams
    objects: tuple[GroundObject, ...]
    seed: int

    def heights(self) -> tuple[float, ...]:
        return tuple(o.height_m for o in self.objects)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _corner_box(camera: CameraParams, obj: GroundObject,
                matrix: np.ndarray | None = None):
    """Amodal bounding box (u_left, u_right, v_top, v_bottom), normalized;
    `matrix` is the camera's projection matrix, if already built."""
    span = geometry.project_vertical(camera, obj)
    half = obj.width_m / 2.0
    corners = [
        (obj.lateral_m - half, 0.0, obj.depth_m),
        (obj.lateral_m + half, 0.0, obj.depth_m),
        (obj.lateral_m - half, obj.height_m, obj.depth_m),
        (obj.lateral_m + half, obj.height_m, obj.depth_m),
    ]
    uv = geometry.oracle_project_points(camera, corners, matrix)
    return float(uv[:, 0].min()), float(uv[:, 0].max()), span.v_top, span.v_bottom


def _sample_height(rng: np.random.Generator, prior: priors.HeightPrior) -> float:
    for _ in range(100):
        h = rng.normal(prior.mean_m, prior.sigma_m)
        if h > _MIN_HEIGHT:
            return float(h)
    raise ValueError(f"could not draw a positive height from {prior}")


def _fits(camera: CameraParams, matrix: np.ndarray, obj: GroundObject,
          v0: float, ranges: SceneRanges) -> bool:
    """The placement test: fully inside the frame, bottom below the
    horizon; `matrix` is the camera's projection matrix."""
    try:
        u_l, u_r, v_t, v_b = _corner_box(camera, obj, matrix)
    except ValueError:
        return False
    return (0.0 <= v_t and v_b <= 1.0 and v_b > v0 + ranges.horizon_margin
            and 0.0 <= u_l and u_r <= camera.image_w_px)


def _screen(camera: CameraParams, v0: float, ranges: SceneRanges,
            depths: np.ndarray, laterals: np.ndarray, height: float,
            width: float) -> np.ndarray:
    """Mask of the candidates `_fits` might accept.

    Closed forms on the normalized camera: `project_spans` for v, and for
    u each corner's distance from the image midline, |u - W/2| =
    f*|x|/|z_c| with z_c = z*cos(pitch) + (y - h_cam)*sin(pitch) at y = 0
    and y = h.  The farthest corner has |x| = |lateral| + width/2 over
    the smaller |z_c|, so the frame test on u is one comparison.  A
    candidate is dropped only when it fails by more than `_SCREEN_EPS`;
    NaN compares false and survives.
    """
    st, ct = math.sin(camera.pitch_rad), math.cos(camera.pitch_rad)
    hc = camera.cam_height_m
    with np.errstate(divide="ignore", invalid="ignore"):
        v_t, v_b = geometry.project_spans(camera, depths, height)
    z_ct = depths * ct
    z_c = np.minimum(np.abs(z_ct - hc * st), np.abs(z_ct + (height - hc) * st))
    half_frame = camera.image_w_px / 2.0 + _SCREEN_EPS
    fails = ((v_t < -_SCREEN_EPS) | (v_b > 1.0 + _SCREEN_EPS)
             | (v_b <= v0 + ranges.horizon_margin - _SCREEN_EPS)
             | (camera.focal_px * (np.abs(laterals) + width / 2.0)
                > half_frame * z_c))
    return ~fails


def _place_object(rng: np.random.Generator, camera: CameraParams,
                  matrix: np.ndarray, v0: float, ranges: SceneRanges,
                  height: float, width: float, cat: str,
                  depth_attempts: int) -> GroundObject | None:
    """First of `depth_attempts` (depth, lateral) draws that `_fits`;
    `matrix` is the camera's projection matrix.

    Leaves `rng` exactly where one draw per attempt, stopping at the
    accepted one, would leave it.  The first `_SCALAR_ATTEMPTS` go
    through `_fits` one at a time, so an easy placement costs no more
    than that.  Later attempts come in growing blocks: one `rng.random`
    call gives the block's depths and laterals bit for bit as the
    per-attempt `rng.uniform` pairs would, `_screen` drops the clear
    misses, and `_fits` decides the rest in order.  On acceptance the
    saved state is restored and the accepted prefix redrawn; restoring
    keeps the 32-bit half that `rng.choice` leaves buffered, which
    `bit_generator.advance` would drop.
    """
    lo, hi = ranges.depth_m
    scalar = min(_SCALAR_ATTEMPTS, depth_attempts)
    for _ in range(scalar):
        depth = rng.uniform(lo, hi)
        lateral = rng.uniform(-1.0, 1.0) * ranges.lateral_frac * depth
        obj = GroundObject(depth, height, lateral, width, cat)
        if _fits(camera, matrix, obj, v0, ranges):
            return obj
    done, block = scalar, _FIRST_BLOCK
    while done < depth_attempts:
        k = min(block, depth_attempts - done)
        state = rng.bit_generator.state
        u = rng.random(2 * k)
        depths = lo + (hi - lo) * u[0::2]
        laterals = (-1.0 + 2.0 * u[1::2]) * ranges.lateral_frac * depths
        for j in np.flatnonzero(_screen(camera, v0, ranges, depths, laterals,
                                        height, width)):
            obj = GroundObject(float(depths[j]), height, float(laterals[j]),
                               width, cat)
            if _fits(camera, matrix, obj, v0, ranges):
                rng.bit_generator.state = state
                rng.random(2 * (int(j) + 1))
                return obj
        done += k
        block *= _BLOCK_GROWTH
    return None


def sample_scene(ranges: SceneRanges | None = None, n_objects: int = 5,
                 seed: int = 0,
                 prior_map: dict[str, priors.HeightPrior] | None = None,
                 camera_attempts: int = 50,
                 depth_attempts: int = 1000) -> SceneSpec:
    """Sample a camera and fully-visible ground objects.

    Object heights come from the category priors; depth and lateral
    placement are resampled (up to `depth_attempts` per object) until the
    object projects fully inside the frame with its bottom below the
    horizon.  Cameras admitting no such placement are redrawn up to
    `camera_attempts` times before an infeasible-ranges error.

    After two single attempts an object's placements are drawn in blocks
    and screened with closed-form projections; the scalar `_corner_box`
    check confirms the survivors in order, so the accepted object and
    its numbers are those of a one-attempt-at-a-time loop.  The random
    stream is consumed exactly as that loop consumes it, so a seed gives
    the same scene, and the same bytes downstream, as it always has.
    """
    ranges = ranges or SceneRanges()
    prior_map = prior_map or priors.DEFAULT_PRIORS
    if n_objects < 1:
        raise ValueError("n_objects must be >= 1")
    for cat in ranges.categories:
        if cat not in prior_map:
            raise ValueError(f"no height prior for category {cat!r}")
    rng = _rng(seed, _STREAM_SCENE)
    aspect = ranges.image_w_px / ranges.image_h_px

    for _ in range(camera_attempts):
        camera = CameraParams.from_fov(
            rng.uniform(*ranges.pitch_rad),
            rng.uniform(*ranges.fov_rad),
            rng.uniform(*ranges.cam_height_m),
            ranges.image_w_px, ranges.image_h_px)
        # Normalized-unit twin used for all projective checks.
        cam_n = CameraParams.from_fov(camera.pitch_rad, camera.fov_rad,
                                      camera.cam_height_m, aspect, 1.0)
        v0 = geometry.horizon_from_pitch(cam_n).v0
        matrix = geometry.projection_matrix(cam_n)
        objects: list[GroundObject] = []
        for _ in range(n_objects):
            cat = str(rng.choice(list(ranges.categories)))
            height = _sample_height(rng, prior_map[cat])
            placed = _place_object(rng, cam_n, matrix, v0, ranges, height,
                                   DEFAULT_WIDTHS.get(cat, 0.5), cat,
                                   depth_attempts)
            if placed is None:
                break
            objects.append(placed)
        if len(objects) == n_objects:
            return SceneSpec(camera=camera, objects=tuple(objects), seed=seed)
    raise ValueError(
        f"could not place {n_objects} objects within the given ranges "
        f"after {camera_attempts} camera draws")


def effective_heights(scene: SceneSpec, noise: NoiseModel | None = None
                      ) -> tuple[float, ...]:
    """Ground-truth heights after outlier substitution.

    With height_outlier_rate > 0 a deterministic fraction of objects
    swaps its height for a draw from U[0.5*mu, 1.5*mu] around the
    category prior mean; rendering uses the same stream, so these are the
    heights the rendered boxes actually correspond to.  Outlier objects
    are not re-checked against the frame.
    """
    if noise is None or noise.height_outlier_rate == 0.0:
        return scene.heights()
    rng = _rng(scene.seed, _STREAM_OUTLIER)
    prior_map = priors.DEFAULT_PRIORS
    out = []
    for obj in scene.objects:
        mu = prior_map[obj.category].mean_m if obj.category in prior_map \
            else obj.height_m
        if rng.uniform() < noise.height_outlier_rate:
            out.append(float(rng.uniform(0.5 * mu, 1.5 * mu)))
        else:
            out.append(obj.height_m)
    return tuple(out)


def render_detections(scene: SceneSpec, noise: NoiseModel | None = None
                      ) -> tuple[DetectionBox, ...]:
    """Project every object to its detection box, optionally with noise.

    Box noise adds independent gaussians to the four coordinates,
    resampling (up to 100 times) when an offset breaks the coordinate
    ordering and falling back to sorting the pair afterwards.  Identical
    (scene, noise) inputs produce identical boxes.
    """
    aspect = scene.camera.image_w_px / scene.camera.image_h_px
    cam_n = CameraParams.from_fov(scene.camera.pitch_rad, scene.camera.fov_rad,
                                  scene.camera.cam_height_m, aspect, 1.0)
    matrix = geometry.projection_matrix(cam_n)
    heights = effective_heights(scene, noise)
    rng = _rng(scene.seed, _STREAM_BOX)
    sigma = noise.box_sigma if noise is not None else 0.0
    boxes = []
    for obj, height in zip(scene.objects, heights):
        if height != obj.height_m:
            obj = GroundObject(obj.depth_m, height, obj.lateral_m,
                               obj.width_m, obj.category)
        u_l, u_r, v_t, v_b = _corner_box(cam_n, obj, matrix)
        if sigma > 0.0:
            for _ in range(_MAX_ORDER_RESAMPLES):
                du_l, du_r, dv_t, dv_b = rng.normal(0.0, sigma, size=4)
                if u_l + du_l < u_r + du_r and v_t + dv_t < v_b + dv_b:
                    u_l, u_r = u_l + du_l, u_r + du_r
                    v_t, v_b = v_t + dv_t, v_b + dv_b
                    break
            else:
                u_l, u_r = sorted((u_l, u_r))
                v_t, v_b = sorted((v_t, v_b))
        # Exact floats: numpy scalars would send the document through
        # canonical_json's slow json.dumps fallback.
        boxes.append(DetectionBox(float(u_l), float(u_r), float(v_t),
                                  float(v_b), category=obj.category))
    return tuple(boxes)


def observe_calibration(scene: SceneSpec, noise: NoiseModel | None = None
                        ) -> tuple[float, float]:
    """(v0, fov) as the calibration stage would report them, with noise."""
    aspect = scene.camera.image_w_px / scene.camera.image_h_px
    cam_n = CameraParams.from_fov(scene.camera.pitch_rad, scene.camera.fov_rad,
                                  scene.camera.cam_height_m, aspect, 1.0)
    v0 = geometry.horizon_from_pitch(cam_n).v0
    fov = scene.camera.fov_rad
    if noise is not None and (noise.horizon_sigma > 0 or noise.fov_sigma_rad > 0):
        rng = _rng(scene.seed, _STREAM_CALIBRATION)
        v0 += rng.normal(0.0, noise.horizon_sigma)
        fov = float(np.clip(fov + rng.normal(0.0, noise.fov_sigma_rad),
                            0.05, math.pi - 0.05))
    return float(v0), float(fov)
