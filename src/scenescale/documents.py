"""Detection-document and result serialization, config, and ingestion filters.

Documents are strict-schema JSON: every coordinate normalized by image
height (v down, origin top-left), calibration as a field of view plus
exactly one of a horizon height or a pitch angle.  Emission is canonical
(sorted keys, two-space indent, trailing newline) so identical content
always serializes to identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import yaml

from .baselines import CamHeightPrior, CANONICAL_HEIGHTS
from .metrics import GroundTruth
from .priors import (CategoryPrior, KeypointSet, DEFAULT_PRIORS,
                     HEAD_KEYPOINT_NAMES)
from .solver import DetectionBox, LayerTrace, SceneEstimate, RefinementConfig

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Input data does not match the documented schema."""


# ---------------------------------------------------------------------------
# Detection documents.

@dataclass(frozen=True)
class CalibrationInput:
    """Field of view plus exactly one horizon parametrization."""

    fov_rad: float
    v0: float | None = None
    pitch_rad: float | None = None
    principal_v: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.fov_rad < math.pi:
            raise SchemaError(f"fov_rad must lie in (0, pi), got {self.fov_rad}")
        if (self.v0 is None) == (self.pitch_rad is None):
            raise SchemaError(
                "calibration needs exactly one of 'v0' or 'pitch_rad'")
        if self.pitch_rad is not None and not abs(self.pitch_rad) < math.pi / 2:
            raise SchemaError(f"|pitch_rad| must be < pi/2, got {self.pitch_rad}")

    def horizon_v0(self) -> float:
        """Normalized horizon height regardless of parametrization."""
        if self.v0 is not None:
            return self.v0
        focal = 0.5 / math.tan(self.fov_rad / 2.0)
        return self.principal_v + focal * math.tan(self.pitch_rad)


@dataclass(frozen=True)
class DetectionDocument:
    image_w_px: float
    image_h_px: float
    calibration: CalibrationInput
    detections: tuple[DetectionBox, ...]
    ground_truth: GroundTruth | None = None
    meta: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.image_w_px <= 0 or self.image_h_px <= 0:
            raise SchemaError("image dimensions must be positive")
        if (self.ground_truth is not None
                and len(self.ground_truth.object_heights_m) != len(self.detections)):
            raise SchemaError(
                "ground_truth.object_heights_m must match the detection count")


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise SchemaError(f"{where}: missing required key '{key}'")
    return mapping[key]


def _check_keys(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise SchemaError(f"{where}: value must be finite, got {value!r}")
    return float(value)


def parse_document(data: bytes | str) -> DetectionDocument:
    """Parse and validate a detection document; SchemaError on any violation."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise SchemaError("document root must be an object")
    _check_keys(raw, {"schema_version", "image", "calibration", "detections",
                      "ground_truth", "meta"}, "document")
    version = _require(raw, "schema_version", "document")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {version!r}; "
                          f"this build reads version {SCHEMA_VERSION}")

    image = _require(raw, "image", "document")
    _check_keys(image, {"width_px", "height_px"}, "image")
    width = _number(_require(image, "width_px", "image"), "image.width_px")
    height = _number(_require(image, "height_px", "image"), "image.height_px")

    cal_raw = _require(raw, "calibration", "document")
    _check_keys(cal_raw, {"fov_rad", "v0", "pitch_rad", "principal_v"},
                "calibration")
    try:
        calibration = CalibrationInput(
            fov_rad=_number(_require(cal_raw, "fov_rad", "calibration"),
                            "calibration.fov_rad"),
            v0=None if "v0" not in cal_raw
            else _number(cal_raw["v0"], "calibration.v0"),
            pitch_rad=None if "pitch_rad" not in cal_raw
            else _number(cal_raw["pitch_rad"], "calibration.pitch_rad"),
            principal_v=_number(cal_raw.get("principal_v", 0.5),
                                "calibration.principal_v"),
        )
    except ValueError as exc:
        raise SchemaError(str(exc)) from None

    dets_raw = _require(raw, "detections", "document")
    if not isinstance(dets_raw, list):
        raise SchemaError("detections must be a list")
    detections = []
    for i, det in enumerate(dets_raw):
        where = f"detections[{i}]"
        if not isinstance(det, dict):
            raise SchemaError(f"{where}: must be an object")
        _check_keys(det, {"category", "box", "weight", "keypoints"}, where)
        category = _require(det, "category", where)
        if not isinstance(category, str) or not category:
            raise SchemaError(f"{where}: category must be a non-empty string")
        box = _require(det, "box", where)
        _check_keys(box, {"u_left", "u_right", "v_top", "v_bottom"},
                    f"{where}.box")
        keypoints = None
        if "keypoints" in det:
            kp_raw = det["keypoints"]
            if (not isinstance(kp_raw, list) or len(kp_raw) != 17
                    or any(not isinstance(p, list) or len(p) != 3 for p in kp_raw)):
                raise SchemaError(
                    f"{where}: keypoints must be 17 [u, v, visibility] triples")
            triples = [[_number(x, f"{where}.keypoints") for x in p]
                       for p in kp_raw]
            keypoints = KeypointSet.from_array(triples)
        try:
            detections.append(DetectionBox(
                u_left=_number(_require(box, "u_left", where), where),
                u_right=_number(_require(box, "u_right", where), where),
                v_top=_number(_require(box, "v_top", where), where),
                v_bottom=_number(_require(box, "v_bottom", where), where),
                category=category,
                keypoints=keypoints,
                weight=_number(det.get("weight", 1.0), f"{where}.weight"),
            ))
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from None

    ground_truth = None
    if "ground_truth" in raw:
        gt = raw["ground_truth"]
        _check_keys(gt, {"cam_height_m", "object_heights_m"}, "ground_truth")
        heights = _require(gt, "object_heights_m", "ground_truth")
        if not isinstance(heights, list):
            raise SchemaError("ground_truth.object_heights_m must be a list")
        try:
            ground_truth = GroundTruth(
                cam_height_m=_number(_require(gt, "cam_height_m", "ground_truth"),
                                     "ground_truth.cam_height_m"),
                object_heights_m=tuple(
                    _number(h, "ground_truth.object_heights_m") for h in heights),
            )
        except ValueError as exc:
            raise SchemaError(str(exc)) from None

    meta = raw.get("meta", {})
    if not isinstance(meta, dict):
        raise SchemaError("meta must be an object")

    try:
        return DetectionDocument(
            image_w_px=width, image_h_px=height, calibration=calibration,
            detections=tuple(detections), ground_truth=ground_truth,
            meta=tuple(sorted(meta.items())))
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def emit_document(doc: DetectionDocument) -> str:
    """Serialize a document to canonical JSON text."""
    cal: dict[str, object] = {"fov_rad": doc.calibration.fov_rad,
                              "principal_v": doc.calibration.principal_v}
    if doc.calibration.v0 is not None:
        cal["v0"] = doc.calibration.v0
    else:
        cal["pitch_rad"] = doc.calibration.pitch_rad
    dets = []
    for det in doc.detections:
        entry: dict[str, object] = {
            "category": det.category,
            "box": {"u_left": det.u_left, "u_right": det.u_right,
                    "v_top": det.v_top, "v_bottom": det.v_bottom},
            "weight": det.weight,
        }
        if det.keypoints is not None:
            entry["keypoints"] = [list(p) for p in det.keypoints.points]
        dets.append(entry)
    payload: dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "image": {"width_px": doc.image_w_px, "height_px": doc.image_h_px},
        "calibration": cal,
        "detections": dets,
    }
    if doc.ground_truth is not None:
        payload["ground_truth"] = {
            "cam_height_m": doc.ground_truth.cam_height_m,
            "object_heights_m": list(doc.ground_truth.object_heights_m),
        }
    if doc.meta:
        payload["meta"] = dict(doc.meta)
    return _canonical_json(payload)


def flip_vertical_convention(doc: DetectionDocument) -> DetectionDocument:
    """Re-encode the same scene with the vertical axis growing upward.

    Every v becomes 1 - v, box tops and bottoms swap roles, and the pitch
    sign flips (equivalently the horizon reflects).  Applying the flip
    twice is the identity, and solving a flipped document after flipping
    it back must give identical results to solving the original.
    """
    cal = doc.calibration
    flipped_cal = CalibrationInput(
        fov_rad=cal.fov_rad,
        v0=None if cal.v0 is None else 1.0 - cal.v0,
        pitch_rad=None if cal.pitch_rad is None else -cal.pitch_rad,
        principal_v=1.0 - cal.principal_v,
    )
    dets = []
    for det in doc.detections:
        kps = None
        if det.keypoints is not None:
            kps = KeypointSet(tuple((u, 1.0 - v if vis != 0 else v, vis)
                                    for u, v, vis in det.keypoints.points))
        dets.append(DetectionBox(
            u_left=det.u_left, u_right=det.u_right,
            v_top=1.0 - det.v_bottom, v_bottom=1.0 - det.v_top,
            category=det.category, keypoints=kps, weight=det.weight))
    return DetectionDocument(
        image_w_px=doc.image_w_px, image_h_px=doc.image_h_px,
        calibration=flipped_cal, detections=tuple(dets),
        ground_truth=doc.ground_truth, meta=doc.meta)


# ---------------------------------------------------------------------------
# Result documents.

@dataclass(frozen=True)
class ResultsDocument:
    estimate: SceneEstimate
    config_hash: str = ""
    source_indices: tuple[int, ...] | None = None


def emit_results(estimate: SceneEstimate, *, config_hash: str = "",
                 source_indices=None) -> str:
    """Serialize an estimate (with its full trace) to canonical JSON text."""
    trace = []
    for t in estimate.trace:
        trace.append({
            "layer": t.layer,
            "cam_height_m": t.cam_height_m,
            "heights_m": list(t.heights_m),
            "l_vt": t.l_vt,
            "prior_loss": t.prior_loss,
            "total_loss": t.total_loss,
            "spans": [None if s is None else list(s) for s in t.spans],
            "residuals": list(t.residuals),
        })
    payload: dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "method": estimate.method,
        "config_hash": config_hash,
        "estimate": {
            "cam_height_m": estimate.cam_height_m,
            "heights_m": list(estimate.heights_m),
            "upright_heights_m": list(estimate.upright_heights_m),
            "upright_ratios": list(estimate.upright_ratios),
            "excluded": [[i, reason] for i, reason in estimate.excluded],
            "converged": estimate.converged,
            "ill_posed": estimate.ill_posed,
            "trace": trace,
        },
    }
    if source_indices is not None:
        payload["source_indices"] = list(source_indices)
    return _canonical_json(payload)


def parse_results(data: bytes | str) -> ResultsDocument:
    """Parse result JSON back into a SceneEstimate; SchemaError on violations."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise SchemaError("results root must be an object")
    _check_keys(raw, {"schema_version", "method", "config_hash", "estimate",
                      "source_indices"}, "results")
    if _require(raw, "schema_version", "results") != SCHEMA_VERSION:
        raise SchemaError("unsupported results schema_version")
    est_raw = _require(raw, "estimate", "results")
    _check_keys(est_raw, {"cam_height_m", "heights_m", "upright_heights_m",
                          "upright_ratios", "excluded", "converged",
                          "ill_posed", "trace"}, "estimate")
    try:
        trace = tuple(LayerTrace(
            layer=t["layer"],
            cam_height_m=t["cam_height_m"],
            heights_m=tuple(t["heights_m"]),
            l_vt=t["l_vt"],
            prior_loss=t["prior_loss"],
            total_loss=t["total_loss"],
            spans=tuple(None if s is None else (s[0], s[1])
                        for s in t["spans"]),
            residuals=tuple(t["residuals"]),
        ) for t in est_raw["trace"])
        estimate = SceneEstimate(
            method=_require(raw, "method", "results"),
            cam_height_m=est_raw["cam_height_m"],
            heights_m=tuple(est_raw["heights_m"]),
            upright_heights_m=tuple(est_raw["upright_heights_m"]),
            upright_ratios=tuple(est_raw["upright_ratios"]),
            excluded=tuple((i, reason) for i, reason in est_raw["excluded"]),
            converged=bool(est_raw["converged"]),
            ill_posed=bool(est_raw["ill_posed"]),
            trace=trace,
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise SchemaError(f"malformed estimate: {exc!r}") from None
    indices = raw.get("source_indices")
    return ResultsDocument(
        estimate=estimate,
        config_hash=raw.get("config_hash", ""),
        source_indices=None if indices is None else tuple(indices),
    )


# ---------------------------------------------------------------------------
# Ingestion filters.

@dataclass(frozen=True)
class FilterConfig:
    """Detection-quality gates applied before solving."""

    # h/w range per category; categories absent here are not aspect-gated.
    aspect_range: tuple[tuple[str, tuple[float, float]], ...] = (
        ("person", (1.2, 6.0)),)
    box_height_range: tuple[float, float] = (0.05, 0.95)
    require_keypoint_visibility: bool = True  # head+ankle for keypointed persons


@dataclass(frozen=True)
class Rejection:
    index: int
    box: DetectionBox
    reason: str


@dataclass(frozen=True)
class FilterResult:
    kept: tuple[DetectionBox, ...]
    kept_indices: tuple[int, ...]
    rejected: tuple[Rejection, ...]


def filter_detections(doc: DetectionDocument,
                      filters: FilterConfig | None = None) -> FilterResult:
    """Split detections into solvable and rejected-with-reason.

    Reasons: "amodal" (keypointed person missing head or ankle),
    "aspect" (h/w outside the category range), "box-height" (normalized
    height outside range), "above-horizon" (bottom at or above v0).
    Order is preserved and kept + rejected partition the input.
    """
    filters = filters or FilterConfig()
    aspect_map = dict(filters.aspect_range)
    v0 = doc.calibration.horizon_v0()
    kept, kept_idx, rejected = [], [], []
    for i, box in enumerate(doc.detections):
        reason = None
        if (filters.require_keypoint_visibility and box.category == "person"
                and box.keypoints is not None):
            has_head = any(box.keypoints.visible(n)
                           for n in HEAD_KEYPOINT_NAMES)
            has_ankle = (box.keypoints.visible("left_ankle")
                         or box.keypoints.visible("right_ankle"))
            if not (has_head and has_ankle):
                reason = "amodal"
        if reason is None and box.category in aspect_map:
            lo, hi = aspect_map[box.category]
            aspect = (box.v_bottom - box.v_top) / (box.u_right - box.u_left)
            if not lo <= aspect <= hi:
                reason = "aspect"
        if reason is None:
            lo, hi = filters.box_height_range
            if not lo <= box.v_bottom - box.v_top <= hi:
                reason = "box-height"
        if reason is None and box.v_bottom <= v0:
            reason = "above-horizon"
        if reason is None:
            kept.append(box)
            kept_idx.append(i)
        else:
            rejected.append(Rejection(i, box, reason))
    return FilterResult(tuple(kept), tuple(kept_idx), tuple(rejected))


# ---------------------------------------------------------------------------
# Toolkit configuration.

@dataclass(frozen=True)
class OverlayConfig:
    reference_height_m: float = 1.0

    def __post_init__(self) -> None:
        if self.reference_height_m <= 0:
            raise ValueError("reference height must be positive")


@dataclass(frozen=True)
class ToolkitConfig:
    """Everything configurable about the pipeline, in one place."""

    method: str = "cascade"
    priors: tuple[tuple[str, CategoryPrior], ...] = tuple(
        sorted(DEFAULT_PRIORS.items()))
    canonical_heights: tuple[tuple[str, float], ...] = tuple(
        sorted(CANONICAL_HEIGHTS.items()))
    cam_height_prior: CamHeightPrior = CamHeightPrior()
    refine: RefinementConfig = RefinementConfig()
    filters: FilterConfig = FilterConfig()
    overlay: OverlayConfig = OverlayConfig()

    def prior_map(self) -> dict[str, CategoryPrior]:
        return dict(self.priors)

    def canonical_map(self) -> dict[str, float]:
        return dict(self.canonical_heights)


VALID_METHODS = ("cascade", "pgm", "pgm-fixed")


def config_to_dict(config: ToolkitConfig) -> dict:
    return {
        "method": config.method,
        "priors": {cat: {"mean_m": p.mean_m, "sigma_m": p.sigma_m}
                   for cat, p in config.priors},
        "canonical_heights": {cat: h for cat, h in config.canonical_heights},
        "cam_height_prior": {"mean_m": config.cam_height_prior.mean_m,
                             "sigma_m": config.cam_height_prior.sigma_m},
        "refine": {
            "num_layers": config.refine.num_layers,
            "reprojection_weight": config.refine.reprojection_weight,
            "prior_weight": config.refine.prior_weight,
            "damping": config.refine.damping,
            "max_backtracks": config.refine.max_backtracks,
            "loss_tolerance": config.refine.loss_tolerance,
            "prior_mode": config.refine.prior_mode,
            "cam_height_bounds": list(config.refine.cam_height_bounds),
            "object_height_bounds": list(config.refine.object_height_bounds),
            "use_upright_ratio": config.refine.use_upright_ratio,
        },
        "filters": {
            "aspect_range": {cat: list(rng)
                             for cat, rng in config.filters.aspect_range},
            "box_height_range": list(config.filters.box_height_range),
            "require_keypoint_visibility":
                config.filters.require_keypoint_visibility,
        },
        "overlay": {"reference_height_m": config.overlay.reference_height_m},
    }


def _pair(value, where: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SchemaError(f"{where}: expected [low, high]")
    return float(value[0]), float(value[1])


def config_from_dict(raw: dict) -> ToolkitConfig:
    """Build a config from a plain mapping; unknown keys anywhere are errors."""
    if not isinstance(raw, dict):
        raise SchemaError("config root must be a mapping")
    _check_keys(raw, {"method", "priors", "canonical_heights",
                      "cam_height_prior", "refine", "filters", "overlay"},
                "config")
    default = ToolkitConfig()
    method = raw.get("method", default.method)
    if method not in VALID_METHODS:
        raise SchemaError(
            f"unknown method {method!r}; valid methods: {', '.join(VALID_METHODS)}")

    priors_t = default.priors
    if "priors" in raw:
        if not isinstance(raw["priors"], dict):
            raise SchemaError("config.priors must be a mapping")
        entries = []
        for cat, spec in sorted(raw["priors"].items()):
            _check_keys(spec, {"mean_m", "sigma_m"}, f"priors.{cat}")
            try:
                entries.append((cat, CategoryPrior(
                    cat, float(_require(spec, "mean_m", f"priors.{cat}")),
                    float(_require(spec, "sigma_m", f"priors.{cat}")))))
            except ValueError as exc:
                raise SchemaError(f"priors.{cat}: {exc}") from None
        priors_t = tuple(entries)

    canonical_t = default.canonical_heights
    if "canonical_heights" in raw:
        if not isinstance(raw["canonical_heights"], dict):
            raise SchemaError("config.canonical_heights must be a mapping")
        canonical_t = tuple(sorted(
            (cat, float(h)) for cat, h in raw["canonical_heights"].items()))

    chp = default.cam_height_prior
    if "cam_height_prior" in raw:
        spec = raw["cam_height_prior"]
        _check_keys(spec, {"mean_m", "sigma_m"}, "cam_height_prior")
        try:
            chp = CamHeightPrior(float(spec.get("mean_m", chp.mean_m)),
                                 float(spec.get("sigma_m", chp.sigma_m)))
        except ValueError as exc:
            raise SchemaError(f"cam_height_prior: {exc}") from None

    refine = default.refine
    if "refine" in raw:
        spec = dict(raw["refine"])
        _check_keys(spec, {"num_layers", "reprojection_weight", "prior_weight",
                           "damping", "max_backtracks", "loss_tolerance",
                           "prior_mode", "cam_height_bounds",
                           "object_height_bounds", "use_upright_ratio"},
                    "refine")
        kwargs = {}
        for key in ("num_layers", "max_backtracks"):
            if key in spec:
                kwargs[key] = int(spec[key])
        for key in ("reprojection_weight", "prior_weight", "damping",
                    "loss_tolerance"):
            if key in spec:
                kwargs[key] = float(spec[key])
        if "prior_mode" in spec:
            kwargs["prior_mode"] = str(spec["prior_mode"])
        for key in ("cam_height_bounds", "object_height_bounds"):
            if key in spec:
                kwargs[key] = _pair(spec[key], f"refine.{key}")
        if "use_upright_ratio" in spec:
            kwargs["use_upright_ratio"] = bool(spec["use_upright_ratio"])
        try:
            refine = RefinementConfig(**kwargs)
        except ValueError as exc:
            raise SchemaError(f"refine: {exc}") from None

    filters = default.filters
    if "filters" in raw:
        spec = raw["filters"]
        _check_keys(spec, {"aspect_range", "box_height_range",
                           "require_keypoint_visibility"}, "filters")
        aspect = filters.aspect_range
        if "aspect_range" in spec:
            if not isinstance(spec["aspect_range"], dict):
                raise SchemaError("filters.aspect_range must be a mapping")
            aspect = tuple(sorted(
                (cat, _pair(rng, f"filters.aspect_range.{cat}"))
                for cat, rng in spec["aspect_range"].items()))
        filters = FilterConfig(
            aspect_range=aspect,
            box_height_range=_pair(spec["box_height_range"],
                                   "filters.box_height_range")
            if "box_height_range" in spec else filters.box_height_range,
            require_keypoint_visibility=bool(
                spec.get("require_keypoint_visibility",
                         filters.require_keypoint_visibility)),
        )

    overlay = default.overlay
    if "overlay" in raw:
        spec = raw["overlay"]
        _check_keys(spec, {"reference_height_m"}, "overlay")
        try:
            overlay = OverlayConfig(float(
                spec.get("reference_height_m", overlay.reference_height_m)))
        except ValueError as exc:
            raise SchemaError(f"overlay: {exc}") from None

    return ToolkitConfig(method=method, priors=priors_t,
                         canonical_heights=canonical_t, cam_height_prior=chp,
                         refine=refine, filters=filters, overlay=overlay)


def config_to_yaml(config: ToolkitConfig) -> str:
    return yaml.safe_dump(config_to_dict(config), sort_keys=True,
                          default_flow_style=False)


def config_from_yaml(text: str) -> ToolkitConfig:
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise SchemaError(f"not valid YAML: {exc}") from None
    if raw is None:
        raw = {}
    return config_from_dict(raw)


def config_digest(config: ToolkitConfig) -> str:
    """Stable hash of the full effective configuration."""
    blob = json.dumps(config_to_dict(config), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
