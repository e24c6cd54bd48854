"""Joint camera-height / object-height estimation from one image.

Inputs are 2D detections plus a calibrated horizon and field of view;
absolute scale comes from category size priors.  The pipeline:

  0. Build the scene's array form once (`SceneArrays`: detected tops and
     bottoms, the height prior of each box and its weight) from the
     detections' columns (`DetectionColumns`, the one form a document and
     a filter result hold; `detection_columns` converts a `DetectionBox`
     sequence, the one-box input form); every later stage reads it.
  1. Decide once which objects are used (`classify_boxes`): the boxes
     `geometry.usable_boxes` keeps at the horizon of the camera built
     from v0, whose bottoms meet the ground in front of it (steps 0 and
     1 are `prepare_scene`, which all three methods share).  This
     depends only on the camera's pitch and focal length, and so do the
     bottoms' rays (`geometry.bottom_rays`: depth per unit camera height
     and the derivatives a projection needs), computed once into the
     used boxes' `LossBoxes` (`loss_boxes`, which also sums their
     weights once); the layers solve for those boxes alone.  Start
     from the closed form (`init_camera_height`): with each used
     object's top on its detected top, the height priors fix the camera
     height (`priors.scale_map`), and each object starts at the height
     that camera height implies for it.
  2. Run a fixed number of refinement layers.  The total loss is the L1
     reprojection of the box tops (`reprojection_loss`) plus 0.1 times
     the Gaussian prior penalty on the upright heights (their negative
     log density, `priors.prior_penalty`), each a mean weighted by the
     boxes' `weight`, so a box of weight 2 pulls like the same box listed
     twice.  `total_loss` scores one point (camera height, upright
     heights) and returns an `Evaluation`: the tops, their derivatives
     and the loss terms.  Each layer (`refine_layer`) takes one damped
     Gauss-Newton step from the last accepted evaluation, with
     backtracking, so the loss never increases, and returns the
     evaluation of the candidate it accepts, or its input when it finds
     no descent; the loop hands it to the trace and to the next layer.
     `total_loss_gradient` is the loss's analytic gradient at an
     evaluation.  Each object's residual depends only on the camera
     height and its own height, so the step's normal matrix is
     arrow-shaped; the Schur complement of its diagonal block solves it
     in O(k) time and memory for k objects.  Once the loss stops
     falling, a layer's entry is the previous one with its own layer
     number.  A trace entry holds a layer's camera height and losses;
     the per-box row (the reprojected tops) is built once, for the final
     evaluation (`trace_rows`).

Object depths are anchored to the detected bottom coordinate throughout:
depth is always the ground intersection of the bottom ray under the
current camera height.  When a person's keypoints are available, the
prior constrains the UPRIGHT height while reprojection uses the actual
(posture-scaled) height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from . import geometry, priors
from .geometry import CameraParams
from .priors import HeightPrior, KeypointSet

_IRLS_FLOOR = 1e-6        # residual magnitude floor for the L1 weights
MAX_LAYERS = 1000         # cap on refine.num_layers: each layer is traced

_REPROJECTION_WEIGHT = 1.0  # multiplies the L1 top-reprojection term
_PRIOR_WEIGHT = 0.1         # multiplies the height-prior term
_DAMPING = 1e-3             # Levenberg-style diagonal damping
_MAX_BACKTRACKS = 20
_LOSS_TOLERANCE = 1e-10     # decrease below this counts as converged


@dataclass(frozen=True)
class DetectionBox:
    """One detected object, coordinates normalized by image height."""

    u_left: float
    u_right: float
    v_top: float
    v_bottom: float
    category: str = "person"
    keypoints: KeypointSet | None = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.u_left < self.u_right:
            raise ValueError(
                f"u_left must be < u_right, got {self.u_left}, {self.u_right}")
        if not self.v_top < self.v_bottom:
            raise ValueError(
                f"v_top must be < v_bottom, got {self.v_top}, {self.v_bottom}")
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")


@dataclass(frozen=True, eq=False)
class DetectionColumns:
    """Detections as columns in input order: read-only arrays of the box
    coordinates, the weights, a mask of the boxes with a skeleton and
    those k skeletons ((k, 17, 3), in box order), and a categories tuple.

    The one in-memory form of detections: documents and filter results
    hold it and the estimators read it.  Its values are those of valid
    `DetectionBox` objects (`parse_document` checks them), and it compares
    and hashes by value, its floats as the boxes' do (-0.0 equals 0.0).
    """

    u_left: np.ndarray
    u_right: np.ndarray
    v_top: np.ndarray
    v_bottom: np.ndarray
    weight: np.ndarray
    category: tuple[str, ...]
    keypoints: np.ndarray
    has_keypoints: np.ndarray

    def __post_init__(self) -> None:
        if self.keypoints.shape != (np.count_nonzero(self.has_keypoints), 17, 3):
            raise ValueError("keypoints need a (17, 3) row per marked box")
        for column in (self.u_left, self.u_right, self.v_top, self.v_bottom,
                       self.weight, self.keypoints, self.has_keypoints):
            column.flags.writeable = False

    def __len__(self) -> int:
        return len(self.category)

    def _values(self) -> tuple:
        return (self.category, tuple(self.has_keypoints.tolist()),
                *(tuple(column.tolist()) for column in (
                    self.u_left, self.u_right, self.v_top, self.v_bottom,
                    self.weight, self.keypoints.ravel())))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def take(self, indices) -> "DetectionColumns":
        """The entries at `indices`, in that order."""
        idx = np.asarray(indices, dtype=np.intp)
        has = self.has_keypoints[idx]
        # Box i's skeleton row: the rank of i mod n among boxes with one.
        rows = self.has_keypoints.nonzero()[0].searchsorted(idx[has] % len(self))
        return DetectionColumns(
            self.u_left[idx], self.u_right[idx], self.v_top[idx],
            self.v_bottom[idx], self.weight[idx],
            tuple(map(self.category.__getitem__, idx.tolist())),
            self.keypoints[rows], has)


def detection_columns(boxes) -> DetectionColumns:
    """Column form of a box sequence; a DetectionColumns passes through."""
    if isinstance(boxes, DetectionColumns):
        return boxes
    boxes = tuple(boxes)
    numbers = np.array(list(map(_box_numbers, boxes)), dtype=float)
    has = np.array([box.keypoints is not None for box in boxes], dtype=bool)
    skeletons = [box.keypoints.points for box in boxes if box.keypoints]
    return DetectionColumns(*numbers.reshape(-1, 5).T.copy(),
                            tuple(map(attrgetter("category"), boxes)),
                            np.array(skeletons, dtype=float).reshape(-1, 17, 3),
                            has)


_box_numbers = attrgetter("u_left", "u_right", "v_top", "v_bottom", "weight")


@dataclass(frozen=True)
class RefinementConfig:
    """Knobs of the cascade refinement."""

    num_layers: int = 3                # at most MAX_LAYERS
    cam_height_bounds: tuple[float, float] = (0.1, 50.0)
    object_height_bounds: tuple[float, float] = (0.1, 10.0)
    use_upright_ratio: bool = True     # posture-correct heights via keypoints

    def __post_init__(self) -> None:
        if not 0 <= self.num_layers <= MAX_LAYERS:
            raise ValueError(f"num_layers must lie in [0, {MAX_LAYERS}], "
                             f"got {self.num_layers}")
        lo, hi = self.cam_height_bounds
        if not 0 < lo < hi:
            raise ValueError(f"bad camera height bounds {self.cam_height_bounds}")
        lo, hi = self.object_height_bounds
        if not 0 < lo < hi:
            raise ValueError(f"bad object height bounds {self.object_height_bounds}")


@dataclass(frozen=True)
class LayerTrace:
    """Camera height and losses after one layer (layer 0 = initialization)."""

    layer: int
    cam_height_m: float
    l_vt: float
    prior_loss: float
    total_loss: float


@dataclass(frozen=True)
class SceneEstimate:
    """Final scene estimate: one entry per box in each per-box column (the
    heights, posture ratios and the final reprojection), and the losses of
    every layer."""

    method: str
    cam_height_m: float
    heights_m: tuple[float, ...]           # actual (posture-scaled) heights
    upright_heights_m: tuple[float, ...]
    upright_ratios: tuple[float, ...]
    # Reprojected top of each used box at the final evaluation; None for an
    # excluded box.  Its residual is the detected top minus this one.
    tops: tuple[float | None, ...]
    excluded: tuple[tuple[int, str], ...]  # (object index, reason)
    converged: bool
    ill_posed: bool
    trace: tuple[LayerTrace, ...]

    def __post_init__(self) -> None:
        if not self.trace:
            raise ValueError("trace must hold at least one layer")
        n = len(self.heights_m)
        for name in ("upright_heights_m", "upright_ratios", "tops"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} and heights_m differ in length "
                                 f"({len(getattr(self, name))} != {n})")
        for i, _ in self.excluded:
            if not 0 <= i < n:
                raise ValueError(
                    f"excluded index {i} is not one of the {n} boxes")


class Evaluation(NamedTuple):
    """The loss at one point of a solve, over its used boxes (a
    `LossBoxes`, in their order): the camera, the upright and actual
    heights, the reprojection of the tops with its derivatives, the
    weighted L1 and prior terms and the total loss (`total_loss`).
    """

    camera: CameraParams
    upright: np.ndarray
    heights: np.ndarray
    residuals: np.ndarray                  # detected minus reprojected top
    tops: np.ndarray
    d_cam: np.ndarray                      # d top / d camera height
    d_height: np.ndarray                   # d top / d actual height
    l_vt: float
    prior_loss: float
    total_loss: float


@dataclass(frozen=True, eq=False)
class SceneArrays:
    """Array form of a scene's detections, one read-only entry per box in
    input order: detected top and bottom, the height prior of the box's
    category and the box weight.  Built once per solve by `scene_arrays`.
    """

    v_top: np.ndarray
    v_bottom: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    weight: np.ndarray

    def __len__(self) -> int:
        return len(self.v_top)


class LossBoxes(NamedTuple):
    """The boxes a loss runs over, in the order a solve uses them: their
    detected tops and bottoms, height priors, weights and posture ratios,
    the `geometry.bottom_rays` of their bottoms under the solve's camera
    pitch and focal length, and the sum of their weights."""

    v_top: np.ndarray
    v_bottom: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    weight: np.ndarray
    ratios: np.ndarray
    rays: geometry.BottomRays
    total_weight: float


def loss_boxes(camera: CameraParams, arrays: SceneArrays, ratios,
               used) -> LossBoxes:
    """The `LossBoxes` of the boxes of `arrays` at `used` (indices or a
    mask), `ratios` holding every box's posture ratio."""
    v_bottom = arrays.v_bottom[used]
    weight = arrays.weight[used]
    with np.errstate(divide="ignore", invalid="ignore"):
        rays = geometry.bottom_rays(camera, v_bottom)
    return LossBoxes(arrays.v_top[used], v_bottom, arrays.mu[used],
                     arrays.sigma[used], weight,
                     np.asarray(ratios, dtype=float)[used], rays,
                     np.sum(weight))


def scene_arrays(boxes, prior_map: dict[str, HeightPrior] | None = None
                 ) -> SceneArrays:
    """Array form of a box list or a DetectionColumns.

    Raises ValueError naming the first category without a height prior.
    """
    columns = detection_columns(boxes)
    prior_map = prior_map or priors.DEFAULT_PRIORS
    try:
        box_priors = list(map(prior_map.__getitem__, columns.category))
    except KeyError as exc:
        raise ValueError(
            f"no height prior for category {exc.args[0]!r}; "
            f"known: {sorted(prior_map)}") from None
    mu = np.array([p.mean_m for p in box_priors], dtype=float)
    sigma = np.array([p.sigma_m for p in box_priors], dtype=float)
    for column in (mu, sigma):
        column.flags.writeable = False
    return SceneArrays(columns.v_top, columns.v_bottom, mu, sigma,
                       columns.weight)


def box_ratios(boxes, config: RefinementConfig | None = None) -> tuple[float, ...]:
    """Posture ratio per box of a box list or a DetectionColumns: its
    skeleton's `priors.upright_ratio` when it has one and the ratio is
    enabled, 1.0 otherwise."""
    config = config or RefinementConfig()
    columns = detection_columns(boxes)
    ratios = np.ones(len(columns))
    # Synth documents carry no skeleton: skip upright_ratio's fixed cost.
    if config.use_upright_ratio and len(columns.keypoints):
        ratios[columns.has_keypoints] = priors.upright_ratio(columns.keypoints)
    return tuple(ratios.tolist())


def init_camera_height(camera: CameraParams, arrays: SceneArrays, ratios,
                       active, config: RefinementConfig
                       ) -> tuple[float, np.ndarray]:
    """Layer 0 of the cascade: (camera height, upright heights) to start at.

    With its top on the detected top, an `active` box has the upright
    height q_i * h_cam, q_i its `geometry.heights_from_spans` at `camera`'s
    pitch and a camera height of 1, over its posture ratio.  h_cam is the
    `priors.scale_map` of the active boxes with q_i > 0, clipped to its
    bounds; they start at q_i * h_cam, the others at their prior mean,
    clipped to the object-height bounds.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        q = geometry.heights_from_spans(
            replace(camera, cam_height_m=1.0), arrays.v_top, arrays.v_bottom
        ) / np.asarray(ratios)
    used = np.flatnonzero(np.asarray(active) & (q > 0) & (q < np.inf))
    if not used.size:
        raise ValueError(
            "no usable detection fixes the scale: the ray through the top of "
            f"each of the {int(np.sum(active))} usable boxes points straight "
            "up or backward")
    h_cam, _ = priors.scale_map(q[used], arrays.mu[used], arrays.sigma[used],
                                arrays.weight[used])
    h_cam = float(np.clip(h_cam, *config.cam_height_bounds))
    upright = arrays.mu.copy()
    upright[used] = q[used] * h_cam
    return h_cam, np.clip(upright, *config.object_height_bounds)


def classify_boxes(camera: CameraParams, arrays: SceneArrays
                   ) -> tuple[np.ndarray, tuple[tuple[int, str], ...]]:
    """`geometry.usable_boxes` at the camera's horizon v0.  A bottom's
    ground depth is (f^2 + w*w0) / (f*(v_bottom - v0)) per unit camera
    height, f the focal length and w, w0 the offsets of the bottom and of
    v0 from the principal row, over the image height; the rule keeps only
    bottoms below v0, so the numerator gives the depth's sign.  Never
    depends on the camera height, so it holds for a whole solve.
    """
    f = camera.focal_px / camera.image_h_px
    vc = camera.principal_v_px / camera.image_h_px
    v0 = geometry.horizon_from_pitch(camera).v0
    depth_signs = f * f + (arrays.v_bottom - vc) * (v0 - vc)
    return geometry.usable_boxes(v0, arrays.v_top, arrays.v_bottom,
                                 depth_signs)


def prepare_scene(v0: float, fov_rad: float, boxes,
                  prior_map: dict[str, HeightPrior] | None = None,
                  principal_v: float = 0.5) -> tuple:
    """(columns, arrays, camera, active, excluded), the start of all three
    estimators: the camera is `geometry.camera_from_horizon`'s, and
    ValueError means no detection, a category without a height prior or
    no usable box."""
    columns = detection_columns(boxes)
    if not len(columns):
        raise ValueError("no detections to estimate from")
    arrays = scene_arrays(columns, prior_map)
    camera = geometry.camera_from_horizon(v0, fov_rad, principal_v)
    active, excluded = classify_boxes(camera, arrays)
    geometry.require_usable(excluded, len(arrays))
    return columns, arrays, camera, active, excluded


def reprojection_loss(boxes: LossBoxes, camera: CameraParams,
                      heights: np.ndarray) -> tuple:
    """The reprojection of `boxes`' tops at this camera and these actual
    heights: (tops, d top / d camera height, d top / d actual height,
    depths, residuals, l_vt).  The residuals are the detected minus the
    reprojected tops, and l_vt is their weighted L1 mean
    sum(w*|r|)/sum(w)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        tops, d_cam, d_height, depths = geometry.project_tops_with_grads(
            camera, boxes.rays, heights)
        residuals = boxes.v_top - tops
    l_vt = float(np.sum(boxes.weight * np.abs(residuals)) / boxes.total_weight)
    return tops, d_cam, d_height, depths, residuals, l_vt


def total_loss(boxes: LossBoxes, camera: CameraParams, upright: np.ndarray,
               config: RefinementConfig) -> Evaluation:
    """The loss at this camera and these upright heights of `boxes`: the
    L1 reprojection of the tops (`reprojection_loss`) and the prior
    penalty, each a weighted mean sum(w*x)/sum(w) over the boxes, summed
    with the weights `_REPROJECTION_WEIGHT` and `_PRIOR_WEIGHT`.

    The total is +inf when the heights push some top across the camera
    plane, so line searches reject such candidates.
    """
    heights = upright * boxes.ratios
    tops, d_cam, d_height, depths, residuals, l_vt = reprojection_loss(
        boxes, camera, heights)
    pen = float(np.sum(boxes.weight * priors.prior_penalty(
        upright, boxes.mu, boxes.sigma)) / boxes.total_weight)
    # Camera-frame z of the anchored tops must stay positive.
    st, ct = math.sin(camera.pitch_rad), math.cos(camera.pitch_rad)
    top_z = depths * ct + (heights - camera.cam_height_m) * st
    if not np.all(np.isfinite(tops)) or np.any(top_z <= 0):
        loss = math.inf
    else:
        loss = _REPROJECTION_WEIGHT * l_vt + _PRIOR_WEIGHT * pen
    return Evaluation(camera, upright, heights, residuals, tops, d_cam,
                      d_height, l_vt, pen, loss)


def total_loss_gradient(boxes: LossBoxes, ev: Evaluation) -> np.ndarray:
    """Analytic gradient of `total_loss` at `ev` w.r.t. [cam_height,
    *upright_heights] of `boxes`.

    Assumes no residual sits exactly on the L1 kink.
    """
    weight = boxes.weight
    sign = np.sign(ev.residuals)
    coef = _REPROJECTION_WEIGHT / boxes.total_weight
    dr_dH = -ev.d_height * boxes.ratios
    pg = priors.prior_penalty_grad(ev.upright, boxes.mu, boxes.sigma)
    return np.concatenate((
        [coef * np.sum(weight * sign * -ev.d_cam)],
        coef * weight * sign * dr_dH
        + _PRIOR_WEIGHT / boxes.total_weight * weight * pg))


def _clamp_vars(x: np.ndarray, config: RefinementConfig) -> np.ndarray:
    out = x.copy()
    out[0] = min(max(out[0], config.cam_height_bounds[0]),
                 config.cam_height_bounds[1])
    out[1:] = np.clip(out[1:], *config.object_height_bounds)
    return out


def _arrow_system(boxes: LossBoxes, ev: Evaluation):
    """Damped Gauss-Newton system of one layer at `ev`, in arrow form.

    The unknowns are the camera height and the upright height of each
    box.  Each box's residual depends on the camera height and on its own
    height only, so the (k+1)x(k+1) normal matrix is a diagonal block
    with one dense first row and column: [[m00, off], [off, diag(d)]].
    Returns (m00, off, d, g0, g1), g being the gradient of the model,
    with the Levenberg damping already on m00 and on d.
    """
    r = ev.residuals                       # detected minus reprojected top

    # IRLS quadratic model of the L1 term plus the prior, which is
    # quadratic already; `w` is each box's IRLS weight times its box
    # weight.
    weight = boxes.weight
    w = weight / np.maximum(np.abs(r), _IRLS_FLOOR)
    coef = _REPROJECTION_WEIGHT / boxes.total_weight
    prior_coef = _PRIOR_WEIGHT / boxes.total_weight * weight
    a = -ev.d_cam                          # d r / d cam height
    b = -ev.d_height * boxes.ratios        # d r / d upright height
    pg = priors.prior_penalty_grad(ev.upright, boxes.mu, boxes.sigma)
    pc = np.ones_like(ev.upright) / boxes.sigma ** 2

    m00 = coef * np.sum(w * a * a)
    g0 = coef * np.sum(w * r * a)
    diag = coef * w * b * b + prior_coef * pc
    off = coef * w * a * b
    g1 = coef * w * r * b + prior_coef * pg
    m00 += _DAMPING * max(m00, 1e-12)
    diag += _DAMPING * np.maximum(diag, 1e-12)
    return m00, off, diag, g0, g1


def _arrow_solve(m00: float, off: np.ndarray, diag: np.ndarray,
                 g0: float, g1: np.ndarray) -> np.ndarray:
    """Step delta solving [[m00, off], [off, diag(d)]] delta = -[g0, g1].

    Eliminates the object heights through the Schur complement of the
    diagonal block, s = m00 - sum(off^2/d), in O(k) time and memory.
    The result is not finite when the system is singular or s is not
    finite.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = m00 - np.sum(off * off / diag)
        d0 = ((-g0 + np.sum(off * g1 / diag)) / s
              if math.isfinite(s) else math.nan)
        d1 = (-g1 - off * d0) / diag
    return np.concatenate(([d0], d1))


def refine_layer(ev: Evaluation, boxes: LossBoxes,
                 config: RefinementConfig) -> Evaluation:
    """One damped Gauss-Newton step from `ev` with backtracking.

    Returns the evaluation of the first candidate whose total loss is
    below `ev`'s, or `ev` itself when `ev`'s loss is not finite, the step
    is not finite, or no candidate within the backtracking budget lowers
    it.
    """
    if not math.isfinite(ev.total_loss):
        return ev
    delta = _arrow_solve(*_arrow_system(boxes, ev))
    if not np.all(np.isfinite(delta)):
        return ev

    x0 = np.concatenate(([ev.camera.cam_height_m], ev.upright))
    step = 1.0
    for _ in range(_MAX_BACKTRACKS + 1):
        cand = _clamp_vars(x0 + step * delta, config)
        cand_ev = total_loss(
            boxes, replace(ev.camera, cam_height_m=float(cand[0])), cand[1:],
            config)
        if cand_ev.total_loss < ev.total_loss:
            return cand_ev
        step *= 0.5
    return ev


def trace_rows(n: int, used, v_tops) -> tuple[float | None, ...]:
    """SceneEstimate `tops` of `n` boxes: the tops of the boxes at indices
    `used`, given in that order, and None for the rest."""
    tops = [None] * n
    for i, t in zip(used.tolist(), v_tops.tolist()):
        tops[i] = t
    return tuple(tops)


def _layer_trace(layer: int, ev: Evaluation) -> LayerTrace:
    return LayerTrace(layer, ev.camera.cam_height_m, ev.l_vt, ev.prior_loss,
                      ev.total_loss)


def solve_scene(v0: float, fov_rad: float, boxes,
                prior_map: dict[str, HeightPrior] | None = None,
                config: RefinementConfig | None = None,
                principal_v: float = 0.5) -> SceneEstimate:
    """Estimate camera height and per-object heights for one scene.

    v0 is the normalized horizon height, fov_rad the vertical field of
    view.  All geometry runs in image-height units internally.
    """
    config = config or RefinementConfig()
    columns, arrays, camera, active, excluded = prepare_scene(
        v0, fov_rad, boxes, prior_map, principal_v)
    ratios = box_ratios(columns, config)
    used = np.flatnonzero(active)
    used_boxes = loss_boxes(camera, arrays, ratios, used)
    cam_height, upright = init_camera_height(camera, arrays, ratios, active,
                                             config)
    ev = total_loss(used_boxes, replace(camera, cam_height_m=cam_height),
                    upright[used], config)
    trace = [_layer_trace(0, ev)]

    converged = False
    for j in range(1, config.num_layers + 1):
        moved = ev if converged else refine_layer(ev, used_boxes, config)
        if moved is ev:
            entry = replace(trace[-1], layer=j)
        else:
            ev = moved
            entry = _layer_trace(j, ev)
        trace.append(entry)
        if trace[-2].total_loss - entry.total_loss < _LOSS_TOLERANCE:
            converged = True

    # The layers solve for the used boxes alone; the others keep their
    # start.
    heights = upright * np.array(ratios)
    heights[used] = ev.heights
    upright[used] = ev.upright
    return SceneEstimate(
        method="cascade", cam_height_m=ev.camera.cam_height_m,
        heights_m=tuple(heights.tolist()),
        upright_heights_m=tuple(upright.tolist()), upright_ratios=ratios,
        tops=trace_rows(len(arrays), used, ev.tops), excluded=excluded,
        converged=converged, ill_posed=False, trace=tuple(trace))
