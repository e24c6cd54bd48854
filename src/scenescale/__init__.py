"""Metric scale from a single view.

Recovers camera height and per-object metric heights from 2D detections,
a horizon line, and a vertical field of view, anchored by category size
priors.  All image coordinates are normalized by image height with v
growing downward; the world frame is y-up with the ground at y = 0.
"""

from .geometry import (CameraParams, GroundObject, HorizonEstimate,
                       ImageVerticalSpan, focal_from_fov, fov_from_focal,
                       height_from_box_exact, height_from_box_linear,
                       horizon_from_pitch, pitch_from_horizon,
                       project_vertical, depth_from_bottom)
from .priors import HeightPrior, KeypointSet, DEFAULT_PRIORS, upright_ratio
from .solver import (DetectionBox, RefinementConfig, SceneEstimate,
                     LayerTrace, solve_scene)
from .baselines import CAM_HEIGHT_PRIOR, pgm_fixed_height, pgm_full
from .synth import SceneRanges, NoiseModel, SceneSpec, sample_scene, \
    render_detections, observe_calibration, effective_heights
from .metrics import (GroundTruth, MetricReport, compute_metrics,
                      aggregate_reports, summarize, threshold_curve)
from .documents import (CalibrationInput, DetectionDocument, FilterConfig,
                        OverlayConfig, SchemaError, ToolkitConfig,
                        VALID_METHODS, config_digest, config_from_yaml,
                        config_to_yaml, emit_document, emit_results,
                        filter_detections, flip_vertical_convention,
                        parse_document, parse_results)
from .overlay import render_overlay

__version__ = "0.1.0"

__all__ = [
    "CameraParams", "GroundObject", "HorizonEstimate", "ImageVerticalSpan",
    "focal_from_fov", "fov_from_focal", "height_from_box_exact",
    "height_from_box_linear", "horizon_from_pitch", "pitch_from_horizon",
    "project_vertical", "depth_from_bottom",
    "HeightPrior", "KeypointSet", "DEFAULT_PRIORS", "upright_ratio",
    "DetectionBox", "RefinementConfig", "SceneEstimate", "LayerTrace",
    "solve_scene",
    "CAM_HEIGHT_PRIOR", "pgm_fixed_height", "pgm_full",
    "SceneRanges", "NoiseModel", "SceneSpec", "sample_scene",
    "render_detections", "observe_calibration", "effective_heights",
    "GroundTruth", "MetricReport", "compute_metrics", "aggregate_reports",
    "summarize", "threshold_curve",
    "CalibrationInput", "DetectionDocument", "FilterConfig", "OverlayConfig",
    "SchemaError", "ToolkitConfig", "VALID_METHODS", "config_digest",
    "config_from_yaml", "config_to_yaml", "emit_document", "emit_results",
    "filter_detections", "flip_vertical_convention", "parse_document",
    "parse_results",
    "render_overlay",
    "__version__",
]
