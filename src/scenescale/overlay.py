"""Deterministic SVG overlays for solved scenes.

Pure text generation: fixed element order, fixed 3-decimal coordinate
formatting, no timestamps, so the same inputs always produce the same
bytes.  Pixel x comes from u * image height (all normalized coordinates
share the image-height unit).
"""

from __future__ import annotations

import math

from .documents import DetectionDocument, OverlayConfig
from .geometry import CameraParams, depth_from_bottom, pitch_from_horizon, \
    project_vertical, GroundObject
from .solver import SceneEstimate

_HORIZON_COLOR = "#e4572e"
_DETECTED_COLOR = "#2e86ab"
_REPROJECTED_COLOR = "#f6ae2d"
_REFERENCE_COLOR = "#8d99ae"

# reference bar width as a fraction of its own pixel height
_REFERENCE_WIDTH_FRAC = 0.4
_REFERENCE_GAP_PX = 6.0


def _fmt(x: float) -> str:
    # normalize negative zero so output bytes never depend on sign tricks
    return f"{x + 0.0:.3f}"


def _rect(x: float, y: float, w: float, h: float, color: str,
          stroke_width: float, dashed: bool = False) -> str:
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    return (f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
            f'height="{_fmt(h)}" fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(stroke_width)}"{dash}/>')


def render_overlay(doc: DetectionDocument, estimate: SceneEstimate,
                   source_indices=None,
                   config: OverlayConfig | None = None) -> str:
    """SVG with the horizon, detected boxes, reprojected boxes, and a
    metric reference bar at each object's depth.

    `source_indices` maps estimate slots back to document detections when
    the solve ran on a filtered subset; by default slot i is detection i.
    """
    config = config or OverlayConfig()
    width = doc.image_w_px
    height = doc.image_h_px
    if source_indices is None:
        source_indices = tuple(range(len(doc.detections)))
    source_indices = tuple(source_indices)
    if len(source_indices) != len(estimate.heights_m):
        raise ValueError(
            f"{len(source_indices)} source indices for "
            f"{len(estimate.heights_m)} estimated heights")
    if not all(0 <= i < len(doc.detections) for i in source_indices):
        raise ValueError("source indices out of range for "
                         f"{len(doc.detections)} detections")

    cal = doc.calibration
    v0 = cal.horizon_v0()
    focal = 0.5 / math.tan(cal.fov_rad / 2.0)
    pitch = pitch_from_horizon(v0, focal, 1.0, cal.principal_v)
    camera = CameraParams.from_fov(pitch, cal.fov_rad, estimate.cam_height_m,
                                   width / height, 1.0, cal.principal_v)

    stroke = max(1.5, height / 480.0)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<rect x="0" y="0" width="{_fmt(width)}" height="{_fmt(height)}" '
        f'fill="#ffffff"/>',
        f'<line x1="0" y1="{_fmt(v0 * height)}" x2="{_fmt(width)}" '
        f'y2="{_fmt(v0 * height)}" stroke="{_HORIZON_COLOR}" '
        f'stroke-width="{_fmt(stroke)}"/>',
    ]

    excluded = {i for i, _ in estimate.excluded}
    dets = doc.detections.take(source_indices)
    for slot, (u_left, u_right, v_top, v_bottom) in enumerate(zip(
            dets.u_left.tolist(), dets.u_right.tolist(), dets.v_top.tolist(),
            dets.v_bottom.tolist())):
        x = u_left * height
        w = (u_right - u_left) * height
        y = v_top * height
        h = (v_bottom - v_top) * height
        lines.append(_rect(x, y, w, h, _DETECTED_COLOR, stroke))

        v_top_hat = estimate.tops[slot]
        if v_top_hat is not None:
            lines.append(_rect(x, v_top_hat * height, w,
                               (v_bottom - v_top_hat) * height,
                               _REPROJECTED_COLOR, stroke, dashed=True))

        if slot not in excluded:
            try:
                depth = depth_from_bottom(camera, v_bottom)
                ref_span = project_vertical(camera, GroundObject(
                    depth_m=depth, height_m=config.reference_height_m))
            except ValueError:
                ref_span = None
            if ref_span is not None:
                ref_h = (ref_span.v_bottom - ref_span.v_top) * height
                ref_w = _REFERENCE_WIDTH_FRAC * abs(ref_h)
                lines.append(_rect(u_right * height + _REFERENCE_GAP_PX,
                                   ref_span.v_top * height, ref_w, ref_h,
                                   _REFERENCE_COLOR, stroke))

        label_y = max(y - 4.0, 10.0)
        lines.append(
            f'<text x="{_fmt(x)}" y="{_fmt(label_y)}" '
            f'font-family="monospace" font-size="{_fmt(4.0 * stroke + 6.0)}" '
            f'fill="{_DETECTED_COLOR}">'
            f'{estimate.heights_m[slot]:.2f}m</text>')

    lines.append(
        f'<text x="4" y="{_fmt(height - 6.0)}" font-family="monospace" '
        f'font-size="{_fmt(4.0 * stroke + 6.0)}" fill="{_HORIZON_COLOR}">'
        f'cam {estimate.cam_height_m:.2f}m ({estimate.method})</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
