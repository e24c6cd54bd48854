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

Both take a box list or a `DetectionColumns` and start as the cascade
does, from `solver.prepare_scene`: the scene's `SceneArrays`, so every
box needs a height prior, and the boxes `solver.classify_boxes` keeps;
each other box is reported in `excluded` with its reason, and a scene
with no usable box raises ValueError.  Like `solver.solve_scene`, both
take the vertical field of view (and principal row), which the
classification needs to exclude the boxes whose bottom meets the ground
behind the camera; it enters nothing else, so both stay linear-model
estimators.  A box's weight counts its vote in the median of
`pgm_fixed_height` and its height prior in `pgm_full`.
"""

from __future__ import annotations

import numpy as np

from . import priors
from .priors import HeightPrior
from .solver import (LayerTrace, SceneArrays, SceneEstimate,
                     detection_columns, prepare_scene, trace_rows)

_INFO_EPS = 1e-12  # below this the posterior carries no object information

CANONICAL_HEIGHTS = {"person": 1.70, "car": 1.59}
CAM_HEIGHT_PRIOR = HeightPrior(1.6, 0.5)  # `pgm_full`'s camera height prior


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


def _ratio_votes(v0: float, arrays: SceneArrays, keep) -> np.ndarray:
    """The linear-model ratio (v_top - v_bottom) / (v0 - v_bottom) of
    each box at `keep`."""
    v_bottom = arrays.v_bottom[keep]
    return (arrays.v_top[keep] - v_bottom) / (v0 - v_bottom)


def _finish(method: str, v0: float, arrays: SceneArrays, keep, excluded,
            heights, h_cam: float, ill_posed: bool) -> SceneEstimate:
    """Estimate with the linear-model reprojection of the kept boxes and a
    one-entry trace of its loss and the prior loss of their heights."""
    used = np.flatnonzero(keep)
    v_bottom = arrays.v_bottom[used]
    tops = v_bottom + heights[used] * (v0 - v_bottom) / h_cam
    res = arrays.v_top[used] - tops
    l_vt = float(np.mean(np.abs(res)))
    pen = priors.prior_penalty(heights[used], arrays.mu[used],
                               arrays.sigma[used])
    n = len(arrays)
    heights_full = tuple(heights.tolist())
    trace = LayerTrace(
        layer=0,
        cam_height_m=h_cam,
        l_vt=l_vt,
        prior_loss=float(np.mean(pen)),
        total_loss=l_vt,
    )
    return SceneEstimate(
        method=method,
        cam_height_m=float(h_cam),
        heights_m=heights_full,
        upright_heights_m=heights_full,
        upright_ratios=(1.0,) * n,
        tops=trace_rows(n, used, tops),
        excluded=excluded,
        converged=True,
        ill_posed=ill_posed,
        trace=(trace,),
    )


def pgm_fixed_height(v0: float, fov_rad: float, boxes,
                     canonical_heights: dict[str, float] | None = None,
                     prior_map: dict[str, HeightPrior] | None = None,
                     principal_v: float = 0.5) -> SceneEstimate:
    """Camera height from fixed canonical object heights.

    Every box votes h_cam = h_canonical * (v0 - v_bottom) / (v_top -
    v_bottom); the estimate is the weighted median of the votes and the
    reported object heights stay at their canonical values.  `fov_rad`
    and `principal_v` serve only the usable rule (see the module notes).
    """
    canonical_heights = canonical_heights or CANONICAL_HEIGHTS
    columns = detection_columns(boxes)
    try:
        heights = np.array(
            list(map(canonical_heights.__getitem__, columns.category)),
            dtype=float)
    except KeyError as exc:
        raise ValueError(
            f"no canonical height for category {exc.args[0]!r}; "
            f"known: {sorted(canonical_heights)}") from None
    _, arrays, _, keep, excluded = prepare_scene(v0, fov_rad, columns,
                                                 prior_map, principal_v)
    h_cam = weighted_median(heights[keep] / _ratio_votes(v0, arrays, keep),
                            arrays.weight[keep])
    return _finish("pgm-fixed", v0, arrays, keep, excluded, heights, h_cam,
                   ill_posed=False)


def pgm_full(v0: float, fov_rad: float, boxes,
             prior_map: dict[str, HeightPrior] | None = None,
             cam_height_prior: HeightPrior = CAM_HEIGHT_PRIOR,
             principal_v: float = 0.5) -> SceneEstimate:
    """Joint MAP under the linear model with free object heights.

    Zero reprojection ties each height to the camera height, h_i = q_i *
    h_cam with q_i the box span over the horizon offset.  The log
    posterior, each box's height prior counted `weight` times, is then
    quadratic in h_cam; `priors.scale_map`, which the cascade starts from
    too, gives its maximum in closed form.  Excluded boxes keep their
    prior mean height.  The estimate is flagged ill-posed when the boxes
    carry no information on the scale.  The reported reprojection loss is
    identically zero by construction.  `fov_rad` and `principal_v` serve
    only the usable rule (see the module notes).
    """
    _, arrays, _, keep, excluded = prepare_scene(v0, fov_rad, boxes,
                                                 prior_map, principal_v)
    qs = _ratio_votes(v0, arrays, keep)
    h_cam, info = priors.scale_map(qs, arrays.mu[keep], arrays.sigma[keep],
                                   arrays.weight[keep], cam_height_prior)
    heights = arrays.mu.copy()
    heights[keep] = qs * h_cam
    return _finish("pgm", v0, arrays, keep, excluded, heights, h_cam,
                   ill_posed=info < _INFO_EPS)
