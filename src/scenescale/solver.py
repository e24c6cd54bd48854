"""Joint camera-height / object-height estimation from one image.

Inputs are 2D detections plus a calibrated horizon and field of view;
absolute scale comes from category size priors.  The pipeline:

  0. Build the scene's array form once (`SceneArrays`: detected tops and
     bottoms, the height prior of each box and its weight); every later
     stage reads it.
  1. Initialize every object height at its category prior mean and the
     camera height as the weighted median of per-object votes obtained by
     inverting the linear horizon-ratio model.  Which objects can be
     reprojected depends only on the camera's pitch and focal length, so
     it is decided once here and carried in the solver state.
  2. Run a fixed number of refinement layers.  Each layer takes one
     damped Gauss-Newton step on the total loss (L1 reprojection of the
     box tops + Gaussian prior penalty on upright heights) with
     backtracking, so the loss never increases.

Object depths are anchored to the detected bottom coordinate throughout:
depth is always the ground intersection of the bottom ray under the
current camera height.  When a person's keypoints are available, the
prior constrains the UPRIGHT height while reprojection uses the actual
(posture-scaled) height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import geometry, priors
from .geometry import CameraParams
from .priors import CategoryPrior, KeypointSet

_VOTE_SPAN_EPS = 1e-9     # |v_top - v_bottom| below this cannot vote
_VOTE_HORIZON_EPS = 1e-6  # |v0 - v_bottom| below this cannot vote
_HORIZON_EPS = 1e-9       # reprojection exclusion band around the horizon
_IRLS_FLOOR = 1e-6        # residual magnitude floor for the L1 weights


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


@dataclass(frozen=True)
class RefinementConfig:
    """Knobs of the cascade refinement."""

    num_layers: int = 3
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
        if self.num_layers < 0:
            raise ValueError("num_layers must be >= 0")
        if self.reprojection_weight < 0 or self.prior_weight < 0:
            raise ValueError("loss weights must be >= 0")
        if self.prior_mode not in ("density", "log_density"):
            raise ValueError(f"unknown prior mode {self.prior_mode!r}")
        lo, hi = self.cam_height_bounds
        if not 0 < lo < hi:
            raise ValueError(f"bad camera height bounds {self.cam_height_bounds}")
        lo, hi = self.object_height_bounds
        if not 0 < lo < hi:
            raise ValueError(f"bad object height bounds {self.object_height_bounds}")


@dataclass(frozen=True)
class SceneState:
    """Current iterate of the solver.

    upright_heights are the optimization variables; the actual heights
    used in reprojection are upright * ratio.  `active` marks objects
    that participate in the loss (bottoms on the ground side of the
    horizon and off the degenerate band).  `loss` is the state's total
    loss when it is already known; `refine_layer` evaluates it when None.
    """

    camera: CameraParams
    upright_heights: tuple[float, ...]
    ratios: tuple[float, ...]
    active: tuple[bool, ...]
    loss: float | None = None

    def actual_heights(self) -> np.ndarray:
        return np.asarray(self.upright_heights) * np.asarray(self.ratios)


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


class ReprojectionResult(NamedTuple):
    residuals: np.ndarray                  # signed v_top residual, NaN = excluded
    l_vt: float
    excluded: tuple[tuple[int, str], ...]
    v_tops: np.ndarray                     # reprojected tops, meaningless if excluded


@dataclass(frozen=True)
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


def weighted_median(values, weights) -> float:
    """Weighted median; lower of the two middles at even total weight."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if v.size == 0:
        raise ValueError("weighted_median of empty data")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    order = np.argsort(v, kind="stable")
    v, w = v[order], w[order]
    cum = np.cumsum(w)
    idx = int(np.searchsorted(cum, 0.5 * cum[-1]))
    return float(v[idx])


def _prior_for(box: DetectionBox, prior_map: dict[str, CategoryPrior]) -> CategoryPrior:
    try:
        return prior_map[box.category]
    except KeyError:
        raise ValueError(
            f"no height prior for category {box.category!r}; "
            f"known: {sorted(prior_map)}") from None


def _v_columns(boxes) -> tuple[np.ndarray, np.ndarray]:
    """(v_top, v_bottom) arrays of a box list or of a SceneArrays."""
    if isinstance(boxes, SceneArrays):
        return boxes.v_top, boxes.v_bottom
    return (np.array([b.v_top for b in boxes], dtype=float),
            np.array([b.v_bottom for b in boxes], dtype=float))


def scene_arrays(boxes, prior_map: dict[str, CategoryPrior] | None = None
                 ) -> SceneArrays:
    """Array form of a box list; a SceneArrays passes through unchanged.

    Raises ValueError naming the first category without a height prior.
    """
    if isinstance(boxes, SceneArrays):
        return boxes
    prior_map = prior_map or priors.DEFAULT_PRIORS
    box_priors = [_prior_for(b, prior_map) for b in boxes]
    columns = (*_v_columns(boxes),
               np.array([p.mean_m for p in box_priors], dtype=float),
               np.array([p.sigma_m for p in box_priors], dtype=float),
               np.array([b.weight for b in boxes], dtype=float))
    for column in columns:
        column.flags.writeable = False
    return SceneArrays(*columns)


def box_ratios(boxes, config: RefinementConfig | None = None) -> tuple[float, ...]:
    """Posture ratio per box: computed from keypoints when present and
    enabled, 1.0 otherwise (including skeletons too sparse to score)."""
    config = config or RefinementConfig()
    out = []
    for box in boxes:
        ratio = 1.0
        if config.use_upright_ratio and box.keypoints is not None:
            try:
                ratio = priors.upright_ratio(box.keypoints).ratio
            except priors.MissingKeypointsError:
                ratio = 1.0
        out.append(ratio)
    return tuple(out)


def init_camera_height(v0: float, boxes,
                       prior_map: dict[str, CategoryPrior] | None = None,
                       config: RefinementConfig | None = None,
                       heights_m=None) -> float:
    """Initial camera height: weighted median of per-object votes.

    Each box votes h_cam = h * (v0 - v_bottom) / (v_top - v_bottom), the
    linear-model inversion with h the expected object height (category
    prior mean unless explicit heights are given).  Votes are clamped to
    the configured camera-height bounds.
    """
    config = config or RefinementConfig()
    if not len(boxes):
        raise ValueError("no detections to initialize from")
    arrays = scene_arrays(boxes, prior_map)
    heights = arrays.mu if heights_m is None else np.asarray(heights_m, float)
    span = arrays.v_top - arrays.v_bottom
    off = v0 - arrays.v_bottom
    votes = (np.abs(span) >= _VOTE_SPAN_EPS) & (np.abs(off) > _VOTE_HORIZON_EPS)
    if not votes.any():
        raise ValueError(
            "all detections are degenerate for initialization "
            "(zero span or bottom on the horizon)")
    return weighted_median(
        np.clip(heights[votes] * off[votes] / span[votes],
                *config.cam_height_bounds),
        arrays.weight[votes])


def classify_boxes(camera: CameraParams, boxes) -> tuple[tuple[bool, ...],
                                                         tuple[tuple[int, str], ...]]:
    """Static reprojection eligibility of each box under this camera.

    Depends only on pitch/focal and the detected bottom, never on the
    camera height, so it stays fixed across the whole solve.
    """
    _, v_bottom = _v_columns(boxes)
    with np.errstate(divide="ignore", invalid="ignore"):
        depth = geometry.depths_from_bottoms(camera, v_bottom)
    active, excluded = _eligibility(camera, v_bottom, depth)
    return tuple(active.tolist()), excluded


def _eligibility(camera: CameraParams, v_bottom, depth):
    """(mask, excluded) of the boxes that can be reprojected, given the
    ground depth of each bottom under this camera (any camera height).

    A box is excluded when its bottom sits in the band around the
    horizon, or when its depth is not finite and positive, which happens
    iff the bottom ray points at or above the horizon.
    """
    v0 = geometry.horizon_from_pitch(camera).v0
    on_horizon = np.abs(v_bottom - v0) <= _HORIZON_EPS
    with np.errstate(invalid="ignore"):
        active = ~on_horizon & np.isfinite(depth) & (depth > 0)
    excluded = tuple(
        (i, "bottom-on-horizon" if on_horizon[i] else "bottom-above-horizon")
        for i in np.flatnonzero(~active).tolist())
    return active, excluded


def reprojection_loss(camera: CameraParams, heights_m, boxes) -> ReprojectionResult:
    """Signed v_top residuals of bottom-anchored objects and their L1 mean.

    heights_m are actual heights, one per box.  Excluded (horizon-side)
    objects get NaN residuals and do not enter the mean; which objects
    are excluded is read off the depths the projection returns, by the
    rule of `classify_boxes`.
    """
    v_top, v_bottom = _v_columns(boxes)
    if not len(v_top):
        raise ValueError("no detections to reproject")
    heights_m = np.asarray(heights_m, dtype=float)
    if heights_m.shape != v_top.shape:
        raise ValueError("heights_m must have one entry per box")
    with np.errstate(divide="ignore", invalid="ignore"):
        vt, _, _, depth = geometry.project_tops_with_grads(
            camera, v_bottom, heights_m)
        active, excluded = _eligibility(camera, v_bottom, depth)
        residuals = np.where(active, v_top - vt, np.nan)
    if active.any():
        l_vt = float(np.mean(np.abs(residuals[active])))
    else:
        l_vt = math.nan
    return ReprojectionResult(residuals, l_vt, excluded, vt)


def total_loss(state: SceneState, boxes,
               prior_map: dict[str, CategoryPrior] | None = None,
               config: RefinementConfig | None = None) -> float:
    """Weighted sum of the L1 reprojection loss and the prior penalty.

    Returns +inf when the current heights push some object top across the
    camera plane, so line searches reject such candidates.
    """
    config = config or RefinementConfig()
    arrays = scene_arrays(boxes, prior_map)
    mask = np.asarray(state.active)
    if not mask.any():
        raise ValueError("no active objects to evaluate")
    vb = arrays.v_bottom[mask]
    vt_det = arrays.v_top[mask]
    actual = state.actual_heights()[mask]
    with np.errstate(divide="ignore", invalid="ignore"):
        vt, _, _, depth = geometry.project_tops_with_grads(state.camera, vb, actual)
    # Camera-frame z of the anchored tops must stay positive.
    st, ct = math.sin(state.camera.pitch_rad), math.cos(state.camera.pitch_rad)
    top_z = depth * ct + (actual - state.camera.cam_height_m) * st
    if not np.all(np.isfinite(vt)) or np.any(top_z <= 0):
        return math.inf
    l_vt = float(np.mean(np.abs(vt_det - vt)))
    upright = np.asarray(state.upright_heights)[mask]
    pen = float(np.mean(priors.prior_penalty(
        upright, arrays.mu[mask], arrays.sigma[mask], config.prior_mode)))
    return config.reprojection_weight * l_vt + config.prior_weight * pen


def total_loss_gradient(state: SceneState, boxes,
                        prior_map: dict[str, CategoryPrior] | None = None,
                        config: RefinementConfig | None = None) -> np.ndarray:
    """Analytic gradient of `total_loss` w.r.t. [cam_height, *upright_heights].

    Entries of inactive objects are zero.  Assumes no residual sits
    exactly on the L1 kink.
    """
    config = config or RefinementConfig()
    arrays = scene_arrays(boxes, prior_map)
    mask = np.asarray(state.active)
    grad = np.zeros(len(arrays) + 1)
    if not mask.any():
        return grad
    k = int(mask.sum())
    vb = arrays.v_bottom[mask]
    vt_det = arrays.v_top[mask]
    ratios = np.asarray(state.ratios)[mask]
    upright = np.asarray(state.upright_heights)[mask]
    actual = upright * ratios
    vt, d_hc, d_h, _ = geometry.project_tops_with_grads(state.camera, vb, actual)
    r = vt_det - vt
    sign = np.sign(r)
    coef = config.reprojection_weight / k
    grad[0] = coef * np.sum(sign * (-d_hc))
    dr_dH = -d_h * ratios
    pg = priors.prior_penalty_grad(upright, arrays.mu[mask],
                                   arrays.sigma[mask], config.prior_mode)
    grad[1:][mask] = coef * sign * dr_dH + config.prior_weight / k * pg
    return grad


def _clamp_vars(x: np.ndarray, config: RefinementConfig) -> np.ndarray:
    out = x.copy()
    out[0] = min(max(out[0], config.cam_height_bounds[0]),
                 config.cam_height_bounds[1])
    out[1:] = np.clip(out[1:], *config.object_height_bounds)
    return out


def _state_with(state: SceneState, x: np.ndarray, mask: np.ndarray) -> SceneState:
    upright = np.asarray(state.upright_heights).copy()
    upright[mask] = x[1:]
    return SceneState(camera=replace(state.camera, cam_height_m=float(x[0])),
                      upright_heights=tuple(upright.tolist()),
                      ratios=state.ratios, active=state.active)


def refine_layer(state: SceneState, boxes,
                 prior_map: dict[str, CategoryPrior] | None = None,
                 config: RefinementConfig | None = None) -> SceneState:
    """One damped Gauss-Newton step on the total loss with backtracking.

    The accepted state never has a larger total loss than the input; when
    no decrease is found within the backtracking budget the input state
    is returned unchanged.
    """
    config = config or RefinementConfig()
    arrays = scene_arrays(boxes, prior_map)
    mask = np.asarray(state.active)
    if not mask.any():
        return state
    loss0 = state.loss
    if loss0 is None:
        loss0 = total_loss(state, arrays, prior_map, config)
    if not math.isfinite(loss0):
        return state

    k = int(mask.sum())
    vb = arrays.v_bottom[mask]
    ratios = np.asarray(state.ratios)[mask]
    upright = np.asarray(state.upright_heights)[mask]
    actual = upright * ratios
    vt, d_hc, d_h, _ = geometry.project_tops_with_grads(state.camera, vb, actual)
    r = -(vt - arrays.v_top[mask])         # detected minus reprojected top
    h_cam = state.camera.cam_height_m

    # IRLS quadratic model of the L1 term plus exact/nonnegative prior model.
    w = 1.0 / np.maximum(np.abs(r), _IRLS_FLOOR)
    coef = config.reprojection_weight / k
    a = -d_hc                              # d r / d cam height
    b = -d_h * ratios                      # d r / d upright height
    mu, sigma = arrays.mu[mask], arrays.sigma[mask]
    pg = priors.prior_penalty_grad(upright, mu, sigma, config.prior_mode)
    pc = priors.prior_curvature(upright, mu, sigma, config.prior_mode)

    m = np.zeros((k + 1, k + 1))
    g = np.zeros(k + 1)
    m[0, 0] = coef * np.sum(w * a * a)
    g[0] = coef * np.sum(w * r * a)
    diag = coef * w * b * b + config.prior_weight / k * pc
    off = coef * w * a * b
    m[0, 1:] = off
    m[1:, 0] = off
    m[np.arange(1, k + 1), np.arange(1, k + 1)] = diag
    g[1:] = coef * w * r * b + config.prior_weight / k * pg

    m[np.diag_indices_from(m)] += config.damping * np.maximum(np.diag(m), 1e-12)
    try:
        delta = np.linalg.solve(m, -g)
    except np.linalg.LinAlgError:
        return state

    x0 = np.concatenate([[h_cam], upright])
    step = 1.0
    for _ in range(config.max_backtracks + 1):
        cand = _clamp_vars(x0 + step * delta, config)
        cand_state = _state_with(state, cand, mask)
        if total_loss(cand_state, arrays, prior_map, config) < loss0:
            return cand_state
        step *= 0.5
    return state


def _layer_trace(layer: int, state: SceneState, arrays: SceneArrays,
                 prior_map, config) -> LayerTrace:
    mask = np.asarray(state.active)
    actual = state.actual_heights()
    rep = reprojection_loss(state.camera, actual, arrays)
    spans = tuple((t, b) if m else None for t, b, m in zip(
        rep.v_tops.tolist(), arrays.v_bottom.tolist(), state.active))
    residuals = tuple(r if m else None
                      for r, m in zip(rep.residuals.tolist(), state.active))
    upright = np.asarray(state.upright_heights)[mask]
    pen = float(np.mean(priors.prior_penalty(
        upright, arrays.mu[mask], arrays.sigma[mask], config.prior_mode)))
    return LayerTrace(
        layer=layer,
        cam_height_m=state.camera.cam_height_m,
        heights_m=tuple(actual.tolist()),
        l_vt=rep.l_vt,
        prior_loss=pen,
        total_loss=total_loss(state, arrays, prior_map, config),
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
    boxes = list(boxes)
    if not boxes:
        raise ValueError("no detections to solve from")

    ratios = box_ratios(boxes, config)
    arrays = scene_arrays(boxes, prior_map)
    upright0 = np.clip(arrays.mu, *config.object_height_bounds)
    actual0 = upright0 * np.asarray(ratios)

    h_cam0 = init_camera_height(v0, arrays, prior_map, config,
                                heights_m=actual0)

    focal = geometry.focal_from_fov(fov_rad, 1.0)
    pitch = geometry.pitch_from_horizon(v0, focal, 1.0, principal_v)
    camera = CameraParams.from_fov(pitch, fov_rad, h_cam0, 1.0, 1.0,
                                   principal_v_px=principal_v)
    active, excluded = classify_boxes(camera, arrays)
    if not any(active):
        raise ValueError("every detection is horizon-degenerate; cannot solve")

    state = SceneState(camera=camera,
                       upright_heights=tuple(upright0.tolist()),
                       ratios=ratios,
                       active=active)
    trace = [_layer_trace(0, state, arrays, prior_map, config)]

    converged = False
    for j in range(1, config.num_layers + 1):
        if not converged:
            # The trace has just evaluated this state's loss.
            state = refine_layer(replace(state, loss=trace[-1].total_loss),
                                 arrays, prior_map, config)
        entry = _layer_trace(j, state, arrays, prior_map, config)
        trace.append(entry)
        decrease = trace[-2].total_loss - entry.total_loss
        if decrease < config.loss_tolerance:
            converged = True

    final = trace[-1]
    return SceneEstimate(
        method="cascade",
        cam_height_m=final.cam_height_m,
        heights_m=final.heights_m,
        upright_heights_m=tuple(float(h) for h in state.upright_heights),
        upright_ratios=ratios,
        excluded=excluded,
        converged=converged,
        ill_posed=False,
        trace=tuple(trace),
    )
