"""Joint camera-height / object-height estimation from one image.

Inputs are 2D detections plus a calibrated horizon and field of view;
absolute scale comes from category size priors.  The pipeline:

  0. Build the scene's array form once (`SceneArrays`: detected tops and
     bottoms, the height prior of each box and its weight) from the
     detections' columns (`DetectionColumns`, the form a parsed document
     holds); every later stage reads it.
  1. Decide once which objects are used (`classify_boxes`): the boxes
     `geometry.usable_boxes` keeps at the camera's horizon whose bottoms
     meet the ground in front of the camera.  This depends only on the
     camera's pitch and focal length, and so do the bottoms' rays
     (`geometry.bottom_rays`: depth per unit camera height and the
     derivatives a projection needs); both are computed here once, and
     the layers solve for the used boxes alone (`used_boxes`, a
     `SceneArrays` with rays).  Start from the closed form
     (`init_camera_height`): with each used object's top on its detected
     top, the height priors fix the camera height (`priors.scale_map`),
     and each object starts at the height that camera height implies for
     it.
  2. Run a fixed number of refinement layers.  Each layer takes one
     damped Gauss-Newton step on the total loss (L1 reprojection of the
     box tops + Gaussian prior penalty on upright heights) with
     backtracking, so the loss never increases.  Each object's residual
     depends only on the camera height and its own height, so the step's
     normal matrix is arrow-shaped; the Schur complement of its diagonal
     block solves it in O(k) time and memory for k objects.  Every state
     is evaluated once: `total_loss` projects it (through
     `reprojection_loss`) and leaves the tops, their derivatives and the
     loss terms on the state as its `Evaluation`, which the trace entry,
     the step's accept test and the next layer's system all read.  Once
     the loss stops falling, a layer's entry is the previous one with its
     own layer number.

Object depths are anchored to the detected bottom coordinate throughout:
depth is always the ground intersection of the bottom ray under the
current camera height.  When a person's keypoints are available, the
prior constrains the UPRIGHT height while reprojection uses the actual
(posture-scaled) height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from . import geometry, priors
from .geometry import CameraParams
from .priors import CategoryPrior, KeypointSet

_IRLS_FLOOR = 1e-6        # residual magnitude floor for the L1 weights
MAX_LAYERS = 1000         # cap on refine.num_layers: each layer is traced


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
    """Detections as columns, one entry per box in input order: the box
    coordinates and weights as read-only float64 arrays, the categories
    and the keypoints (None for a box without) as tuples.

    This is the form a parsed document holds and the filter and the
    estimators read.  The values are those of valid `DetectionBox`
    objects: `parse_document` checks them, `detection_columns` takes them
    from boxes, and `boxes` turns them back into boxes.
    """

    u_left: np.ndarray
    u_right: np.ndarray
    v_top: np.ndarray
    v_bottom: np.ndarray
    weight: np.ndarray
    category: tuple[str, ...]
    keypoints: tuple[KeypointSet | None, ...]

    def __post_init__(self) -> None:
        for column in (self.u_left, self.u_right, self.v_top, self.v_bottom,
                       self.weight):
            column.flags.writeable = False

    def __len__(self) -> int:
        return len(self.category)

    def boxes(self) -> tuple[DetectionBox, ...]:
        return tuple(map(DetectionBox, self.u_left.tolist(),
                         self.u_right.tolist(), self.v_top.tolist(),
                         self.v_bottom.tolist(), self.category,
                         self.keypoints, self.weight.tolist()))

    def take(self, indices) -> "DetectionColumns":
        """The entries at `indices`, in that order."""
        idx = np.asarray(indices, dtype=np.intp)
        pick = idx.tolist()
        return DetectionColumns(
            self.u_left[idx], self.u_right[idx], self.v_top[idx],
            self.v_bottom[idx], self.weight[idx],
            tuple(map(self.category.__getitem__, pick)),
            tuple(map(self.keypoints.__getitem__, pick)))


def detection_columns(boxes) -> DetectionColumns:
    """Column form of a box sequence; a DetectionColumns passes through."""
    if isinstance(boxes, DetectionColumns):
        return boxes
    boxes = tuple(boxes)
    numbers = np.array(list(map(_box_numbers, boxes)), dtype=float)
    return DetectionColumns(*numbers.reshape(-1, 5).T.copy(),
                            tuple(map(attrgetter("category"), boxes)),
                            tuple(map(attrgetter("keypoints"), boxes)))


_box_numbers = attrgetter("u_left", "u_right", "v_top", "v_bottom", "weight")


@dataclass(frozen=True)
class RefinementConfig:
    """Knobs of the cascade refinement."""

    num_layers: int = 3                # at most MAX_LAYERS
    reprojection_weight: float = 1.0   # multiplies the L1 top-reprojection term
    prior_weight: float = 0.1          # multiplies the height-prior term
    damping: float = 1e-3              # Levenberg-style diagonal damping
    max_backtracks: int = 20
    loss_tolerance: float = 1e-10      # decrease below this counts as converged
    prior_mode: str = "log_density"    # or "density"
    cam_height_bounds: tuple[float, float] = (0.1, 50.0)
    object_height_bounds: tuple[float, float] = (0.1, 10.0)
    use_upright_ratio: bool = True     # posture-correct heights via keypoints

    def __post_init__(self) -> None:
        if self.num_layers < 0 or self.max_backtracks < 0:
            raise ValueError("num_layers and max_backtracks must be >= 0")
        if self.num_layers > MAX_LAYERS:
            raise ValueError(f"num_layers must be at most {MAX_LAYERS}, "
                             f"got {self.num_layers}")
        for name in ("reprojection_weight", "prior_weight", "damping",
                     "loss_tolerance"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if self.prior_mode not in ("density", "log_density"):
            raise ValueError(f"unknown prior mode {self.prior_mode!r}")
        lo, hi = self.cam_height_bounds
        if not 0 < lo < hi:
            raise ValueError(f"bad camera height bounds {self.cam_height_bounds}")
        lo, hi = self.object_height_bounds
        if not 0 < lo < hi:
            raise ValueError(f"bad object height bounds {self.object_height_bounds}")


@dataclass(frozen=True, eq=False)
class SceneState:
    """Current iterate of the solver.

    upright_heights are the optimization variables; the actual heights
    used in reprojection are upright * ratio.  `active` marks objects
    that participate in the loss (those `classify_boxes` keeps).  The
    three are kept as read-only float (bool) arrays, whatever sequence
    they are given as.  `evaluation` is the state's last `total_loss`
    evaluation, which `refine_layer`, `total_loss_gradient` and the trace
    read instead of evaluating the state again; `dataclasses.replace`
    gives a state without one.  States compare by value, without their
    evaluation.
    """

    camera: CameraParams
    upright_heights: np.ndarray
    ratios: np.ndarray
    active: np.ndarray
    evaluation: Evaluation | None = field(default=None, init=False,
                                          repr=False)

    def __post_init__(self) -> None:
        for name, dtype in (("upright_heights", float), ("ratios", float),
                            ("active", bool)):
            value = np.asarray(getattr(self, name), dtype=dtype)
            if value.flags.writeable:
                value = value.copy()
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SceneState):
            return NotImplemented
        return (self.camera == other.camera
                and all(map(np.array_equal,
                            (self.upright_heights, self.ratios, self.active),
                            (other.upright_heights, other.ratios,
                             other.active))))

    __hash__ = None

    @property
    def loss(self) -> float | None:
        """The total loss of `evaluation`, None before one."""
        return None if self.evaluation is None else self.evaluation.total_loss

    def actual_heights(self) -> np.ndarray:
        return self.upright_heights * self.ratios


@dataclass(frozen=True)
class LayerTrace:
    """Losses and reprojections after one layer (layer 0 = initialization)."""

    layer: int
    cam_height_m: float
    heights_m: tuple[float, ...]
    l_vt: float
    prior_loss: float
    total_loss: float
    spans: tuple[tuple[float, float] | None, ...]
    residuals: tuple[float | None, ...]


@dataclass(frozen=True)
class SceneEstimate:
    """Final scene estimate plus the full per-layer trace."""

    method: str
    cam_height_m: float
    heights_m: tuple[float, ...]           # actual (posture-scaled) heights
    upright_heights_m: tuple[float, ...]
    upright_ratios: tuple[float, ...]
    excluded: tuple[tuple[int, str], ...]  # (object index, reason)
    converged: bool
    ill_posed: bool
    trace: tuple[LayerTrace, ...]

    def __post_init__(self) -> None:
        if not self.trace:
            raise ValueError("trace must hold at least one layer")


class ReprojectionResult(NamedTuple):
    residuals: np.ndarray                  # signed v_top residual, NaN = excluded
    l_vt: float
    excluded: tuple[tuple[int, str], ...]
    v_tops: np.ndarray                     # reprojected tops, meaningless if excluded
    d_cam: np.ndarray                      # d v_top / d camera height
    d_height: np.ndarray                   # d v_top / d actual height
    depths: np.ndarray                     # ground depth of each bottom


class Evaluation(NamedTuple):
    """One evaluation of a state by `total_loss`, over the boxes it uses
    (`scene`, in their order): their upright and actual heights and
    posture ratios, the reprojection of their tops with its derivatives,
    the prior penalty and the total loss.  `arrays` and `config` are the
    scene and config it was made under.
    """

    arrays: SceneArrays
    config: RefinementConfig
    scene: SceneArrays
    upright: np.ndarray
    ratios: np.ndarray
    heights: np.ndarray
    reprojection: ReprojectionResult
    prior_loss: float
    total_loss: float


@dataclass(frozen=True, eq=False)
class SceneArrays:
    """Array form of a scene's detections, one read-only entry per box in
    input order: detected top and bottom, the height prior of the box's
    category and the box weight.  Built once per solve by `scene_arrays`.

    `rays`, when set, are the boxes' `geometry.bottom_rays` under one
    camera pitch and focal length: the form of the boxes a loss runs over
    (`used_boxes`), which `reprojection_loss` projects through their rays
    and excludes none of.
    """

    v_top: np.ndarray
    v_bottom: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    weight: np.ndarray
    rays: geometry.BottomRays | None = None

    def __len__(self) -> int:
        return len(self.v_top)

    def same_boxes(self, other: SceneArrays) -> bool:
        """Whether `other` holds the same boxes and priors (rays aside)."""
        return self is other or all(map(
            np.array_equal,
            (self.v_top, self.v_bottom, self.mu, self.sigma, self.weight),
            (other.v_top, other.v_bottom, other.mu, other.sigma,
             other.weight)))


def used_boxes(camera: CameraParams, arrays: SceneArrays, used) -> SceneArrays:
    """The boxes of `arrays` at `used` (indices or a mask), with their
    bottom rays under `camera`: the boxes a loss runs over, all of them,
    as `total_loss` does over a state's active boxes."""
    v_bottom = arrays.v_bottom[used]
    return SceneArrays(arrays.v_top[used], v_bottom, arrays.mu[used],
                       arrays.sigma[used], arrays.weight[used],
                       geometry.bottom_rays(camera, v_bottom))


def _v_columns(boxes) -> tuple[np.ndarray, np.ndarray]:
    """(v_top, v_bottom) arrays of a box list, a DetectionColumns or a
    SceneArrays."""
    if not isinstance(boxes, SceneArrays):
        boxes = detection_columns(boxes)
    return boxes.v_top, boxes.v_bottom


def scene_arrays(boxes, prior_map: dict[str, CategoryPrior] | None = None
                 ) -> SceneArrays:
    """Array form of a box list or a DetectionColumns; a SceneArrays
    passes through unchanged.

    Raises ValueError naming the first category without a height prior.
    """
    if isinstance(boxes, SceneArrays):
        return boxes
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
    """Posture ratio per box of a box list or a DetectionColumns: computed
    from keypoints when present and enabled, 1.0 otherwise (including
    skeletons too sparse to score)."""
    config = config or RefinementConfig()
    keypoints = (boxes.keypoints if isinstance(boxes, DetectionColumns)
                 else [box.keypoints for box in boxes])
    out = [1.0] * len(keypoints)
    if config.use_upright_ratio:
        for i, kps in enumerate(keypoints):
            if kps is not None:
                try:
                    out[i] = priors.upright_ratio(kps).ratio
                except priors.MissingKeypointsError:
                    pass
    return tuple(out)


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


def classify_boxes(camera: CameraParams, boxes) -> tuple[tuple[bool, ...],
                                                         tuple[tuple[int, str], ...]]:
    """Static reprojection eligibility of each box under this camera: the
    rule of `geometry.usable_boxes` at the camera's horizon, given the
    ground depth of each bottom.

    Depends only on pitch/focal and the detected box, never on the
    camera height, so it stays fixed across the whole solve.
    """
    v_top, v_bottom = _v_columns(boxes)
    with np.errstate(divide="ignore", invalid="ignore"):
        depth = geometry.depths_from_bottoms(camera, v_bottom)
    active, excluded = geometry.usable_boxes(
        geometry.horizon_from_pitch(camera).v0, v_top, v_bottom, depth)
    return tuple(active.tolist()), excluded


def reprojection_loss(camera: CameraParams, heights_m, boxes) -> ReprojectionResult:
    """Signed v_top residuals of bottom-anchored objects and their L1 mean.

    heights_m are actual heights, one per box.  Excluded objects get NaN
    residuals and do not enter the mean; which objects are excluded is
    read off the depths the projection returns, by the rule of
    `classify_boxes`.  Boxes with bottom rays (`used_boxes`) are the boxes
    of a loss: they project through their rays and none is excluded.
    """
    v_top, v_bottom = _v_columns(boxes)
    if not len(v_top):
        raise ValueError("no detections to reproject")
    heights_m = np.asarray(heights_m, dtype=float)
    if heights_m.shape != v_top.shape:
        raise ValueError("heights_m must have one entry per box")
    rays = boxes.rays if isinstance(boxes, SceneArrays) else None
    with np.errstate(divide="ignore", invalid="ignore"):
        vt, d_hc, d_h, depth = geometry.project_tops_with_grads(
            camera, v_bottom if rays is None else rays, heights_m)
        if rays is None:
            active, excluded = geometry.usable_boxes(
                geometry.horizon_from_pitch(camera).v0, v_top, v_bottom,
                depth)
            residuals = np.where(active, v_top - vt, np.nan)
            used = residuals[active]
        else:
            excluded = ()
            residuals = used = v_top - vt
    l_vt = float(np.mean(np.abs(used))) if len(used) else math.nan
    return ReprojectionResult(residuals, l_vt, excluded, vt, d_hc, d_h, depth)


def total_loss(state: SceneState, boxes,
               prior_map: dict[str, CategoryPrior] | None = None,
               config: RefinementConfig | None = None) -> float:
    """Weighted sum of the L1 reprojection loss and the prior penalty.

    Returns +inf when the current heights push some object top across the
    camera plane, so line searches reject such candidates.  Leaves the
    whole evaluation in `state.evaluation`.
    """
    config = config or RefinementConfig()
    arrays = scene_arrays(boxes, prior_map)
    mask = state.active
    if not mask.any():
        raise ValueError("no active objects to evaluate")
    scene = arrays
    if arrays.rays is None or not mask.all():
        with np.errstate(divide="ignore", invalid="ignore"):
            scene = used_boxes(state.camera, arrays, mask)
    upright, ratios = state.upright_heights[mask], state.ratios[mask]
    actual = upright * ratios
    rep = reprojection_loss(state.camera, actual, scene)
    # Camera-frame z of the anchored tops must stay positive.
    st, ct = math.sin(state.camera.pitch_rad), math.cos(state.camera.pitch_rad)
    top_z = rep.depths * ct + (actual - state.camera.cam_height_m) * st
    pen = float(np.mean(priors.prior_penalty(upright, scene.mu, scene.sigma,
                                             config.prior_mode)))
    if not np.all(np.isfinite(rep.v_tops)) or np.any(top_z <= 0):
        loss = math.inf
    else:
        loss = (config.reprojection_weight * rep.l_vt
                + config.prior_weight * pen)
    object.__setattr__(state, "evaluation", Evaluation(
        arrays, config, scene, upright, ratios, actual, rep, pen, loss))
    return loss


def _evaluation(state: SceneState, arrays: SceneArrays,
                config: RefinementConfig) -> Evaluation:
    """The state's evaluation under this scene and config: the one it
    carries if that was made under the same boxes and an equal config,
    else a new one from `total_loss`."""
    ev = state.evaluation
    if (ev is None or not ev.arrays.same_boxes(arrays)
            or ev.config != config):
        total_loss(state, arrays, config=config)
        ev = state.evaluation
    return ev


def total_loss_gradient(state: SceneState, boxes,
                        prior_map: dict[str, CategoryPrior] | None = None,
                        config: RefinementConfig | None = None) -> np.ndarray:
    """Analytic gradient of `total_loss` w.r.t. [cam_height, *upright_heights].

    Entries of inactive objects are zero.  Assumes no residual sits
    exactly on the L1 kink.
    """
    config = config or RefinementConfig()
    arrays = scene_arrays(boxes, prior_map)
    grad = np.zeros(len(arrays) + 1)
    if not state.active.any():
        return grad
    ev = _evaluation(state, arrays, config)
    rep = ev.reprojection
    k = len(ev.upright)
    sign = np.sign(rep.residuals)
    coef = config.reprojection_weight / k
    grad[0] = coef * np.sum(sign * (-rep.d_cam))
    dr_dH = -rep.d_height * ev.ratios
    pg = priors.prior_penalty_grad(ev.upright, ev.scene.mu, ev.scene.sigma,
                                   config.prior_mode)
    grad[1:][state.active] = coef * sign * dr_dH + config.prior_weight / k * pg
    return grad


def _clamp_vars(x: np.ndarray, config: RefinementConfig) -> np.ndarray:
    out = x.copy()
    out[0] = min(max(out[0], config.cam_height_bounds[0]),
                 config.cam_height_bounds[1])
    out[1:] = np.clip(out[1:], *config.object_height_bounds)
    return out


def _state_with(state: SceneState, x: np.ndarray, mask: np.ndarray) -> SceneState:
    upright = state.upright_heights.copy()
    upright[mask] = x[1:]
    upright.flags.writeable = False
    return SceneState(replace(state.camera, cam_height_m=float(x[0])),
                      upright, state.ratios, state.active)


def _arrow_system(state: SceneState, arrays: SceneArrays,
                  config: RefinementConfig):
    """Damped Gauss-Newton system of one layer, in arrow form, built from
    the state's evaluation.

    The unknowns are the camera height and the upright height of each
    active object.  Each object's residual depends on the camera height
    and on its own height only, so the (k+1)x(k+1) normal matrix is a
    diagonal block with one dense first row and column:
    [[m00, off], [off, diag(d)]].  Returns (m00, off, d, g0, g1), g being
    the gradient of the model, with the Levenberg damping already on m00
    and on d.
    """
    ev = _evaluation(state, arrays, config)
    rep = ev.reprojection
    k = len(ev.upright)
    r = rep.residuals                      # detected minus reprojected top

    # IRLS quadratic model of the L1 term plus exact/nonnegative prior model.
    w = 1.0 / np.maximum(np.abs(r), _IRLS_FLOOR)
    coef = config.reprojection_weight / k
    a = -rep.d_cam                         # d r / d cam height
    b = -rep.d_height * ev.ratios          # d r / d upright height
    mu, sigma = ev.scene.mu, ev.scene.sigma
    pg = priors.prior_penalty_grad(ev.upright, mu, sigma, config.prior_mode)
    pc = priors.prior_curvature(ev.upright, mu, sigma, config.prior_mode)

    m00 = coef * np.sum(w * a * a)
    g0 = coef * np.sum(w * r * a)
    diag = coef * w * b * b + config.prior_weight / k * pc
    off = coef * w * a * b
    g1 = coef * w * r * b + config.prior_weight / k * pg
    m00 += config.damping * max(m00, 1e-12)
    diag += config.damping * np.maximum(diag, 1e-12)
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


def refine_layer(state: SceneState, boxes,
                 prior_map: dict[str, CategoryPrior] | None = None,
                 config: RefinementConfig | None = None) -> SceneState:
    """One damped Gauss-Newton step on the total loss with backtracking.

    The accepted state never has a larger total loss than the input and
    carries the evaluation it was accepted on; when no decrease is found
    within the backtracking budget, or the step is not finite, the input
    state is returned unchanged.
    """
    config = config or RefinementConfig()
    arrays = scene_arrays(boxes, prior_map)
    mask = state.active
    if not mask.any():
        return state
    ev = _evaluation(state, arrays, config)
    if not math.isfinite(ev.total_loss):
        return state

    delta = _arrow_solve(*_arrow_system(state, arrays, config))
    if not np.all(np.isfinite(delta)):
        return state

    x0 = np.concatenate(([state.camera.cam_height_m], ev.upright))
    step = 1.0
    for _ in range(config.max_backtracks + 1):
        cand = _clamp_vars(x0 + step * delta, config)
        cand_state = _state_with(state, cand, mask)
        if total_loss(cand_state, arrays, prior_map, config) < ev.total_loss:
            return cand_state
        step *= 0.5
    return state


def trace_rows(n: int, used, v_tops, v_bottoms, residuals
               ) -> tuple[tuple, tuple]:
    """LayerTrace `spans` and `residuals` of `n` boxes: the values of the
    boxes at indices `used`, given in that order, and None for the rest."""
    spans, rows = [None] * n, [None] * n
    for i, t, b, r in zip(used.tolist(), v_tops.tolist(), v_bottoms.tolist(),
                          residuals.tolist()):
        spans[i] = (t, b)
        rows[i] = r
    return tuple(spans), tuple(rows)


def _layer_trace(layer: int, state: SceneState, used: np.ndarray,
                 heights: np.ndarray) -> LayerTrace:
    """Trace entry of a state of the used boxes: `heights` holds every
    box's actual height, and the used boxes' are taken from the state."""
    ev = state.evaluation
    rep = ev.reprojection
    heights = heights.copy()
    heights[used] = ev.heights
    spans, residuals = trace_rows(len(heights), used, rep.v_tops,
                                  ev.scene.v_bottom, rep.residuals)
    return LayerTrace(
        layer=layer,
        cam_height_m=state.camera.cam_height_m,
        heights_m=tuple(heights.tolist()),
        l_vt=rep.l_vt,
        prior_loss=ev.prior_loss,
        total_loss=ev.total_loss,
        spans=spans,
        residuals=residuals,
    )


def solve_scene(v0: float, fov_rad: float, boxes,
                prior_map: dict[str, CategoryPrior] | None = None,
                config: RefinementConfig | None = None,
                principal_v: float = 0.5) -> SceneEstimate:
    """Estimate camera height and per-object heights for one scene.

    v0 is the normalized horizon height, fov_rad the vertical field of
    view.  All geometry runs in image-height units internally.
    """
    prior_map = prior_map or priors.DEFAULT_PRIORS
    config = config or RefinementConfig()
    columns = detection_columns(boxes)
    if not len(columns):
        raise ValueError("no detections to solve from")

    ratios = box_ratios(columns, config)
    arrays = scene_arrays(columns, prior_map)
    camera = geometry.camera_from_horizon(v0, fov_rad, principal_v)
    active, excluded = classify_boxes(camera, arrays)
    geometry.require_usable(excluded, len(arrays))
    used = np.flatnonzero(active)
    scene = used_boxes(camera, arrays, used)
    cam_height, upright = init_camera_height(camera, arrays, ratios, active,
                                             config)
    ratio_array = np.array(ratios)
    # The layers solve for the used boxes alone; the others keep their
    # start.
    heights = upright * ratio_array
    state = SceneState(replace(camera, cam_height_m=cam_height),
                       upright[used], ratio_array[used],
                       np.ones(len(used), dtype=bool))
    total_loss(state, scene, prior_map, config)
    trace = [_layer_trace(0, state, used, heights)]

    converged = False
    for j in range(1, config.num_layers + 1):
        previous = state
        if not converged:
            state = refine_layer(state, scene, prior_map, config)
        if state is previous:
            entry = replace(trace[-1], layer=j)
        else:
            entry = _layer_trace(j, state, used, heights)
        trace.append(entry)
        if trace[-2].total_loss - entry.total_loss < config.loss_tolerance:
            converged = True

    final = trace[-1]
    upright[used] = state.upright_heights
    return SceneEstimate(
        method="cascade", cam_height_m=final.cam_height_m,
        heights_m=final.heights_m, upright_heights_m=tuple(upright.tolist()),
        upright_ratios=ratios, excluded=excluded, converged=converged,
        ill_posed=False, trace=tuple(trace))
