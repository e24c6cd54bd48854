"""Error metrics and aggregation for scale estimates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solver import SceneEstimate


@dataclass(frozen=True)
class GroundTruth:
    """Reference scale for one scene: camera height plus object heights.

    Object heights are upright heights when the evaluation protocol
    compares upright (registered) sizes; otherwise actual heights.
    """

    cam_height_m: float
    object_heights_m: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.cam_height_m <= 0:
            raise ValueError("ground-truth camera height must be positive")


@dataclass(frozen=True)
class MetricReport:
    """Per-scene camera-height errors, per-object height errors, and
    per-object reprojection residuals (absolute, normalized units)."""

    e_cam: tuple[float, ...]
    e_obj: tuple[float, ...]
    l_vt: tuple[float, ...]

    def aggregates(self) -> dict[str, tuple[float, float, float] | None]:
        """(mean, std, median) per metric; None when a metric has no samples."""
        return {
            "e_cam": summarize(self.e_cam) if self.e_cam else None,
            "e_obj": summarize(self.e_obj) if self.e_obj else None,
            "l_vt": summarize(self.l_vt) if self.l_vt else None,
        }


def summarize(samples) -> tuple[float, float, float]:
    """(mean, population std, median); the median of an even count is the
    lower of the two middle values."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("summarize needs at least one sample")
    order = np.sort(x)
    median = float(order[(x.size - 1) // 2])
    return float(np.mean(x)), float(np.std(x)), median


def threshold_curve(residuals, thresholds) -> tuple[tuple[float, float], ...]:
    """Fraction of |residuals| at or below each threshold."""
    r = np.abs(np.asarray(residuals, dtype=float))
    if r.size == 0:
        raise ValueError("threshold_curve needs at least one residual")
    return tuple((float(t), float(np.mean(r <= t))) for t in thresholds)


def compute_metrics(estimate: SceneEstimate, truth: GroundTruth, *,
                    compare_upright: bool = False,
                    indices=None) -> MetricReport:
    """Single-scene errors of an estimate against ground truth.

    `indices` maps each estimated object to its entry in the ground-truth
    height list (needed when ingestion filtered some detections out);
    by default the two lists must align one-to-one.  With
    `compare_upright` the estimate's upright heights are scored, matching
    protocols whose reference sizes are upright heights.
    """
    heights = estimate.upright_heights_m if compare_upright else estimate.heights_m
    n = len(heights)
    if indices is None:
        indices = range(n)
    indices = list(indices)
    if len(indices) != n:
        raise ValueError(
            f"correspondence mismatch: {n} estimated heights but "
            f"{len(indices)} indices")
    gt = truth.object_heights_m
    if any(not 0 <= i < len(gt) for i in indices):
        raise ValueError(
            f"correspondence mismatch: indices {indices} out of range for "
            f"{len(gt)} ground-truth heights")
    e_obj = tuple(abs(heights[k] - gt[i]) for k, i in enumerate(indices))
    l_vt = tuple(abs(r) for r in estimate.residuals if r is not None)
    return MetricReport(
        e_cam=(abs(estimate.cam_height_m - truth.cam_height_m),),
        e_obj=e_obj,
        l_vt=l_vt,
    )


def aggregate_reports(reports) -> MetricReport:
    """Pool several per-scene reports into one."""
    reports = list(reports)
    if not reports:
        raise ValueError("no reports to aggregate")
    return MetricReport(
        e_cam=tuple(v for r in reports for v in r.e_cam),
        e_obj=tuple(v for r in reports for v in r.e_obj),
        l_vt=tuple(v for r in reports for v in r.l_vt),
    )
