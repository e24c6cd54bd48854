"""Reference estimators built on the linear horizon-ratio model.

Both baselines treat the image geometry linearly: an object of height h
whose bottom sits at v_bottom has its top at

    v_top = v_bottom + h * (v0 - v_bottom) / h_cam.

`pgm_fixed_height` pins every object to a canonical height and takes the
weighted median of the implied camera heights.  `pgm_full` keeps heights
free, which makes the per-object reprojection exactly solvable, and
maximizes the joint Gaussian posterior (object-height priors times a
camera-height prior) over the remaining scale variable in closed form.
Its reported reprojection loss is zero by construction, which is why it
is not a meaningful fit metric for this method.

Both read the scene's `SceneArrays`, so every box needs a height prior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import priors
from .priors import CategoryPrior
from .solver import (LayerTrace, SceneArrays, SceneEstimate, scene_arrays,
                     weighted_median)

_SPAN_EPS = 1e-9
_HORIZON_EPS = 1e-6
_INFO_EPS = 1e-12  # below this the posterior carries no object information

CANONICAL_HEIGHTS = {"person": 1.70, "car": 1.59}


@dataclass(frozen=True)
class CamHeightPrior:
    """Gaussian prior over the camera height used by `pgm_full`."""

    mean_m: float = 1.6
    sigma_m: float = 0.5

    def __post_init__(self) -> None:
        if self.mean_m <= 0 or self.sigma_m <= 0:
            raise ValueError("camera height prior must have positive mean/sigma")


def _ratio_votes(v0: float, arrays: SceneArrays):
    """Per-box (v_top - v_bottom) / (v0 - v_bottom) of the boxes in the
    returned mask, with degenerates excluded with reasons."""
    span = arrays.v_top - arrays.v_bottom
    off = v0 - arrays.v_bottom
    zero_span = np.abs(span) < _SPAN_EPS
    keep = ~zero_span & (np.abs(off) > _HORIZON_EPS)
    excluded = tuple(
        (i, "zero-span" if zero_span[i] else "bottom-on-horizon")
        for i in np.flatnonzero(~keep).tolist())
    return span[keep] / off[keep], keep, excluded


def _finish(method: str, v0: float, arrays: SceneArrays, keep, excluded,
            heights, h_cam: float, ill_posed: bool) -> SceneEstimate:
    """Estimate with a one-entry trace of the linear-model reprojection of
    the kept boxes and the prior loss of their heights."""
    tops = arrays.v_bottom + heights * (v0 - arrays.v_bottom) / h_cam
    res = arrays.v_top - tops
    l_vt = float(np.mean(np.abs(res[keep])))
    pen = priors.prior_penalty(heights[keep], arrays.mu[keep],
                               arrays.sigma[keep], "log_density")
    kept = keep.tolist()
    spans = tuple((t, b) if k else None for t, b, k in zip(
        tops.tolist(), arrays.v_bottom.tolist(), kept))
    residuals = tuple(r if k else None for r, k in zip(res.tolist(), kept))
    n = len(arrays)
    heights_full = tuple(heights.tolist())
    trace = LayerTrace(
        layer=0,
        cam_height_m=h_cam,
        heights_m=heights_full,
        l_vt=l_vt,
        prior_loss=float(np.mean(pen)),
        total_loss=l_vt,
        spans=spans,
        residuals=residuals,
    )
    return SceneEstimate(
        method=method,
        cam_height_m=float(h_cam),
        heights_m=heights_full,
        upright_heights_m=heights_full,
        upright_ratios=(1.0,) * n,
        excluded=excluded,
        converged=True,
        ill_posed=ill_posed,
        trace=(trace,),
    )


def pgm_fixed_height(v0: float, boxes,
                     canonical_heights: dict[str, float] | None = None,
                     prior_map: dict[str, CategoryPrior] | None = None) -> SceneEstimate:
    """Camera height from fixed canonical object heights.

    Every box votes h_cam = h_canonical * (v0 - v_bottom) / (v_top -
    v_bottom); the estimate is the weighted median of the votes and the
    reported object heights stay at their canonical values.
    """
    canonical_heights = canonical_heights or CANONICAL_HEIGHTS
    boxes = list(boxes)
    if not boxes:
        raise ValueError("no detections to estimate from")
    for box in boxes:
        if box.category not in canonical_heights:
            raise ValueError(
                f"no canonical height for category {box.category!r}; "
                f"known: {sorted(canonical_heights)}")
    heights = np.array([canonical_heights[b.category] for b in boxes],
                       dtype=float)
    arrays = scene_arrays(boxes, prior_map)
    qs, keep, excluded = _ratio_votes(v0, arrays)
    if not keep.any():
        raise ValueError("all detections are degenerate (zero span or on horizon)")
    h_cam = weighted_median(heights[keep] / qs, arrays.weight[keep])
    return _finish("pgm-fixed", v0, arrays, keep, excluded, heights, h_cam,
                   ill_posed=False)


def pgm_full(v0: float, boxes,
             prior_map: dict[str, CategoryPrior] | None = None,
             cam_height_prior: CamHeightPrior | None = None) -> SceneEstimate:
    """Joint MAP under the linear model with free object heights.

    Zero reprojection ties each height to the camera height, h_i = q_i *
    h_cam with q_i the box span over the horizon offset.  The log
    posterior is then quadratic in h_cam, with the closed-form maximum

        h_cam = (sum q_i mu_i / s_i^2 + mu_c / s_c^2)
                / (sum q_i^2 / s_i^2 + 1 / s_c^2).

    Degenerate boxes keep their prior mean height.  The estimate is
    flagged ill-posed when the boxes carry no information on the scale.
    The reported reprojection loss is identically zero by construction.
    """
    cam_height_prior = cam_height_prior or CamHeightPrior()
    boxes = list(boxes)
    if not boxes:
        raise ValueError("no detections to estimate from")
    arrays = scene_arrays(boxes, prior_map)
    qs, keep, excluded = _ratio_votes(v0, arrays)
    if not keep.any():
        raise ValueError("all detections are degenerate (zero span or on horizon)")
    mu, var = arrays.mu[keep], arrays.sigma[keep] ** 2
    mu_c, var_c = cam_height_prior.mean_m, cam_height_prior.sigma_m ** 2
    info = float(np.sum(qs * qs / var))
    h_cam = float((np.sum(qs * mu / var) + mu_c / var_c)
                  / (info + 1.0 / var_c))
    heights = arrays.mu.copy()
    heights[keep] = qs * h_cam
    return _finish("pgm", v0, arrays, keep, excluded, heights, h_cam,
                   ill_posed=info < _INFO_EPS)
