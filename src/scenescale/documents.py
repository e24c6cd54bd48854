"""Detection-document and result serialization, config, and ingestion filters.

Documents are strict-schema JSON: every coordinate normalized by image
height (v down, origin top-left), calibration as a field of view plus
exactly one of a horizon height or a pitch angle.  Emission is canonical
(sorted keys, two-space indent, trailing newline) so identical content
always serializes to identical bytes.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import operator
import typing
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np
import yaml

from .baselines import CAM_HEIGHT_PRIOR, CANONICAL_HEIGHTS
from .metrics import GroundTruth
from .priors import (HeightPrior, KeypointSet, DEFAULT_PRIORS,
                     head_and_ankle_visible)
from .solver import (DetectionBox, DetectionColumns, LayerTrace,
                     SceneEstimate, RefinementConfig, detection_columns)

SCHEMA_VERSION = 1          # detection documents
RESULTS_SCHEMA_VERSION = 2  # results; `parse_results` reads version 1 too


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
    """A detection document: image size, calibration, detections, and
    optional ground truth and metadata.  Immutable; compares by value.

    `detections` is a `DetectionColumns`, the form `parse_document`
    produces; the constructor also takes a sequence of `DetectionBox`
    and converts it once.
    """

    image_w_px: float
    image_h_px: float
    calibration: CalibrationInput
    detections: DetectionColumns
    ground_truth: GroundTruth | None = None
    meta: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "detections",
                           detection_columns(self.detections))
        if self.image_w_px <= 0 or self.image_h_px <= 0:
            raise SchemaError("image dimensions must be positive")
        if (self.ground_truth is not None
                and len(self.ground_truth.object_heights_m)
                != len(self.detections)):
            raise SchemaError(
                "ground_truth.object_heights_m must match the detection count")


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise SchemaError(f"{where}: missing required key '{key}'")
    return mapping[key]


def _check_keys(mapping: dict, allowed: set[str], where: str) -> None:
    if not isinstance(mapping, dict):
        raise SchemaError(f"{where}: must be an object")
    unknown = set(mapping) - allowed
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown, key=str)}")


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an int beyond the float range
        raise SchemaError(f"{where}: value out of range") from None
    if not math.isfinite(value):
        raise SchemaError(f"{where}: value must be finite, got {value!r}")
    return value


_TOO_DEEP = "nesting too deep: lists and objects nest past the parser's limit"


def parse_document(data: bytes | str) -> DetectionDocument:
    """Parse and validate a detection document; SchemaError on any violation."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError(_TOO_DEEP) from None
    if not isinstance(raw, dict):
        raise SchemaError("document root must be an object")
    _check_keys(raw, {"schema_version", "image", "calibration", "detections",
                      "ground_truth", "meta"}, "document")
    version = _require(raw, "schema_version", "document")
    # True == 1 and 1.0 == 1, but neither is a version.
    if type(version) is not int or version != SCHEMA_VERSION:
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
    detections = _detection_columns(dets_raw)
    if detections is None:
        detections = _detection_boxes(dets_raw)

    ground_truth = None
    if "ground_truth" in raw:
        gt = raw["ground_truth"]
        _check_keys(gt, {"cam_height_m", "object_heights_m"}, "ground_truth")
        heights = _require(gt, "object_heights_m", "ground_truth")
        if not isinstance(heights, list):
            raise SchemaError("ground_truth.object_heights_m must be a list")
        try:
            cam_height = _number(_require(gt, "cam_height_m", "ground_truth"),
                                 "ground_truth.cam_height_m")
            floats = _finite_floats(heights)
            ground_truth = GroundTruth(
                cam_height_m=cam_height,
                object_heights_m=tuple(
                    _number(h, "ground_truth.object_heights_m") for h in heights)
                if floats is None else tuple(floats.tolist()),
            )
        except ValueError as exc:
            raise SchemaError(str(exc)) from None

    meta = raw.get("meta", {})
    if not isinstance(meta, dict):
        raise SchemaError("meta must be an object")

    return DetectionDocument(
        image_w_px=width, image_h_px=height, calibration=calibration,
        detections=detections, ground_truth=ground_truth,
        meta=tuple(sorted(meta.items())))


_DETECTION_KEYS = frozenset(("category", "box", "weight", "keypoints"))
_REQUIRED_DETECTION_KEYS = frozenset(("category", "box"))
_box_values = itemgetter("u_left", "u_right", "v_top", "v_bottom")
_NUMBERS = frozenset((float, int))


def _finite_floats(values) -> np.ndarray | None:
    """`values` as a float64 array when every one is a finite int or
    float (a bool is neither), None otherwise; `float` of each value."""
    values = list(values)
    if not set(map(type, values)) <= _NUMBERS:
        return None
    try:
        array = np.array(values, dtype=float)
    except OverflowError:  # an int beyond the float range
        return None
    return array if np.isfinite(array).all() else None


def _detection_columns(dets_raw: list) -> DetectionColumns | None:
    """The detections of a document as columns, checked all at once; None
    when any detection breaks the schema, and `_detection_boxes` then
    names the first fault.

    The checks are those of `_detection_boxes`, so a list accepted here
    parses there to the same values, as `DetectionBox` objects.  The
    skeletons are the checked keypoint values reshaped to (k, 17, 3).
    """
    if not set(map(type, dets_raw)) <= {dict}:
        return None
    key_sets = set(map(frozenset, dets_raw))
    if not all(_REQUIRED_DETECTION_KEYS <= keys <= _DETECTION_KEYS
               for keys in key_sets):
        return None
    categories = tuple(map(itemgetter("category"), dets_raw))
    if not set(map(type, categories)) <= {str} or "" in categories:
        return None
    boxes = list(map(itemgetter("box"), dets_raw))
    # Four keys, all of them required ones: exactly the box keys.
    if not set(map(type, boxes)) <= {dict} or not set(map(len, boxes)) <= {4}:
        return None
    try:
        coords = _finite_floats(chain.from_iterable(map(_box_values, boxes)))
    except KeyError:
        return None
    weights = _finite_floats(det.get("weight", 1.0) for det in dets_raw)
    if coords is None or weights is None:
        return None
    u_left, u_right, v_top, v_bottom = coords.reshape(-1, 4).T.copy()
    if not (((u_left < u_right) & (v_top < v_bottom)).all()
            and (weights > 0).all()):
        return None
    has_keypoints = np.fromiter(("keypoints" in det for det in dets_raw),
                                dtype=bool, count=len(dets_raw))
    values = np.empty(0)
    if has_keypoints.any():
        skeletons = [det["keypoints"] for det in dets_raw if "keypoints" in det]
        if (not set(map(type, skeletons)) <= {list}
                or not set(map(len, skeletons)) <= {17}):
            return None
        points = list(chain.from_iterable(skeletons))
        if (not set(map(type, points)) <= {list}
                or not set(map(len, points)) <= {3}):
            return None
        values = _finite_floats(chain.from_iterable(points))
        if values is None:
            return None
    return DetectionColumns(u_left, u_right, v_top, v_bottom, weights,
                            categories, values.reshape(-1, 17, 3),
                            has_keypoints)


def _detection_boxes(dets_raw: list) -> tuple[DetectionBox, ...]:
    """The detections of a document, checked one at a time; SchemaError
    naming the first detection and rule broken."""
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
        except SchemaError:
            raise
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from None
    return tuple(detections)


def canonical_json(payload) -> str:
    """`json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)`
    plus a trailing newline, byte for byte, with the same errors.

    With an indent, `json.dumps` cannot use its C encoder; this writer
    renders the plain dicts, lists, tuples, strings, numbers, booleans and
    None a payload is made of itself.  A column is a list or tuple of
    exact floats or ints, or of equal-length rows of exact floats, with
    None entries anywhere: an estimate's heights and residuals, its spans.
    It is rendered by parts, one `map(float.__repr__, ...)` each: the
    floats themselves, or each place of the rows (a span's tops, its
    bottoms), which one join interleaves.

    A mapping writes its columns after its other values, in key order,
    and each later float column reuses the texts of its first one (an
    estimate's `heights_m`): all of a part's texts when it is the very
    tuple (`pgm`'s upright heights), else the text of each float whose
    bits equal those of the float in the same place (the upright heights
    of boxes with a posture ratio of 1).  Bits, not `==`, so -0.0 never
    takes the text of 0.0.

    Any other value, and any value `json.dumps` refuses (a non-finite
    float, a float subclass), sends the payload to `json.dumps`, which
    renders it or raises as it always has.
    """
    writer = _Writer()
    try:
        writer.write(payload, "")
    except (_Deferred, TypeError, ValueError, RecursionError):
        return json.dumps(payload, sort_keys=True, indent=2,
                          allow_nan=False) + "\n"
    writer.chunks.append("\n")
    return "".join(writer.chunks)


class _Deferred(Exception):
    """A value `canonical_json` leaves to `json.dumps`."""


_NONE = type(None)
_FLOAT, _INT = frozenset((float,)), frozenset((int,))
_ROW = frozenset((list, tuple))


class _Part(typing.NamedTuple):
    """One part of a float column, rendered."""

    values: list | tuple       # exact finite floats
    bits: np.ndarray           # their bit patterns, as int64
    texts: list[str]           # float.__repr__ of each


def _part(values, prev: _Part | None) -> _Part:
    """`values`, exact floats, rendered; each takes the text of the float
    in the same place of `prev` when the two have the same bits."""
    if prev is not None and values is prev.values:
        return prev
    bits = np.array(values).view(np.int64)
    count = len(bits)                    # of the places whose bits differ
    if prev is not None and len(bits) == len(prev.bits):
        differ = bits != prev.bits
        count = np.count_nonzero(differ)
        if not count:
            return _Part(values, bits, prev.texts)
    if not math.isfinite(sum(values)):   # a finite sum has finite terms
        raise _Deferred
    if count == len(bits):
        return _Part(values, bits, list(map(float.__repr__, values)))
    texts = prev.texts.copy()
    for i in np.flatnonzero(differ).tolist():
        texts[i] = float.__repr__(values[i])
    return _Part(values, bits, texts)


def _column_parts(o) -> tuple[list | tuple, int] | None:
    """A non-empty list or tuple as a column: its entries that are not
    None, and the row length (0 for a column of floats or ints, which are
    then those entries, else at least 1); None if it is no column."""
    types = set(map(type, o))
    present = o
    if _NONE in types:
        types.discard(_NONE)
        present = list(filter(_NOT_NONE, o))
    if types == _FLOAT or types == _INT:
        return present, 0
    if not types or not types <= _ROW:
        return None
    widths = set(map(len, present))
    width = widths.pop()
    if widths or not width or set(map(type, chain.from_iterable(present))
                                  ) != _FLOAT:
        return None
    return present, width


class _Writer:
    """One `canonical_json` call: the chunks of text written so far."""

    def __init__(self) -> None:
        self.chunks: list[str] = []

    def write(self, o, indent: str) -> None:
        """Append one value as `json.dumps(..., sort_keys=True, indent=2)`
        renders it on a line indented by `indent`.  Only exact types are
        rendered here; subclasses, non-finite floats and everything else
        raise."""
        out = self.chunks.append
        t = type(o)
        if t is float:
            text = float.__repr__(o)
            if "n" in text:                    # inf, nan
                raise _Deferred
            out(text)
        elif t is str:
            out(encode_basestring_ascii(o))
        elif t is int:
            out(int.__repr__(o))
        elif t is dict:
            self.mapping(o, indent)
        elif t is list or t is tuple:
            if not o:
                out("[]")
            elif (column := _column_parts(o)) is not None:
                out(_column_text(o, *column, indent, ())[0])
            else:
                inner = indent + "  "
                sep = ",\n" + inner
                out("[\n" + inner)
                for i, v in enumerate(o):
                    if i:
                        out(sep)
                    self.write(v, inner)
                out("\n" + indent + "]")
        elif o is None:
            out("null")
        elif o is True:
            out("true")
        elif o is False:
            out("false")
        else:
            raise _Deferred

    def mapping(self, o: dict, indent: str) -> None:
        """Append a dict; its columns are rendered after its other values,
        into the places kept for them."""
        out = self.chunks.append
        if not o:
            out("{}")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        lead = "{\n" + inner
        columns = []
        for k, v in sorted(o.items()):
            head = lead + encode_basestring_ascii(k) + ": "
            lead = sep
            t = type(v)
            # Floats and strings inline: a detection document is mostly these.
            if t is float:
                text = float.__repr__(v)
                if "n" in text:
                    raise _Deferred
                out(head + text)
            elif t is str:
                out(head + encode_basestring_ascii(v))
            elif (t is list or t is tuple) and v and (
                    column := _column_parts(v)) is not None:
                out(head)
                columns.append((len(self.chunks), v, column))
                out("")
            else:
                out(head)
                self.write(v, inner)
        out("\n" + indent + "}")
        first = ()
        for i, v, (present, width) in columns:
            self.chunks[i], parts = _column_text(v, present, width, inner,
                                                 first)
            first = first or parts


def _column_text(o, present, width: int, indent: str, prev: tuple[_Part, ...]
                 ) -> tuple[str, tuple[_Part, ...]]:
    """The text of column `o`, given its `_column_parts`, and the parts it
    rendered, which reuse the texts of `prev` where they can."""
    inner = indent + "  "
    sep = ",\n" + inner
    if width == 0 and type(present[0]) is int:
        parts, texts = (), list(map(int.__repr__, present))
    elif width == 0:
        parts = (_part(present, prev[0] if prev else None),)
        texts = parts[0].texts
    else:
        prev = prev[:width] + (None,) * (width - len(prev))
        parts = tuple(map(_part, zip(*present), prev))
        row, end = "[\n" + inner + "  ", "\n" + inner + "]"
        mid = ",\n" + inner + "  "
        if len(present) == len(o):
            # Each place's texts, interleaved with the separators.
            pieces = ([mid] * (2 * width - 1) + [end + sep + row]) * len(o)
            for i, part in enumerate(parts):
                pieces[2 * i::2 * width] = part.texts
            pieces[-1] = end
            return f"[\n{inner}{row}{''.join(pieces)}\n{indent}]", parts
        texts = [row + mid.join(text) + end
                 for text in zip(*[p.texts for p in parts])]
    if len(present) < len(o):
        texts = iter(texts)
        texts = ["null" if v is None else next(texts) for v in o]
    return f"[\n{inner}{sep.join(texts)}\n{indent}]", parts


def emit_document(doc: DetectionDocument) -> str:
    """Serialize a document to canonical JSON text."""
    cal: dict[str, object] = {"fov_rad": doc.calibration.fov_rad,
                              "principal_v": doc.calibration.principal_v}
    if doc.calibration.v0 is not None:
        cal["v0"] = doc.calibration.v0
    else:
        cal["pitch_rad"] = doc.calibration.pitch_rad
    columns = doc.detections
    dets = []
    skeletons = iter(columns.keypoints.tolist())
    for category, u_left, u_right, v_top, v_bottom, weight, has in zip(
            columns.category, columns.u_left.tolist(),
            columns.u_right.tolist(), columns.v_top.tolist(),
            columns.v_bottom.tolist(), columns.weight.tolist(),
            columns.has_keypoints.tolist()):
        entry: dict[str, object] = {
            "category": category,
            "box": {"u_left": u_left, "u_right": u_right,
                    "v_top": v_top, "v_bottom": v_bottom},
            "weight": weight,
        }
        if has:
            entry["keypoints"] = next(skeletons)
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
    return canonical_json(payload)


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
    dets = doc.detections
    v_top, v_bottom = 1.0 - dets.v_bottom, 1.0 - dets.v_top
    if not (v_top < v_bottom).all():  # rounding made a top meet its bottom
        raise ValueError("v_top must be < v_bottom after the flip")
    keypoints = dets.keypoints.copy()
    v, vis = keypoints[..., 1], keypoints[..., 2]
    keypoints[..., 1] = np.where(vis != 0, 1.0 - v, v)
    return DetectionDocument(
        image_w_px=doc.image_w_px, image_h_px=doc.image_h_px,
        calibration=flipped_cal,
        detections=DetectionColumns(dets.u_left, dets.u_right, v_top,
                                    v_bottom, dets.weight, dets.category,
                                    keypoints, dets.has_keypoints),
        ground_truth=doc.ground_truth, meta=doc.meta)


# ---------------------------------------------------------------------------
# Dataclasses as plain values.
#
# `_to_plain` and `_from_plain` map a value to the mappings, lists and
# scalars of YAML and JSON, and back, by its type:
#   a dataclass                 a mapping of its fields; a field left out
#                               keeps its default, or is missing if it has
#                               none; a field whose default is a dataclass
#                               fills the fields it leaves out from it
#   tuple[tuple[str, X], ...]   a mapping keyed by name, in key order
#   tuple[X, ...], tuple[X, Y]  a list, of any length or of that length
#   X | None                    null or an X
#   bool, int, str              exactly that type
#   float                       an int, a float or a numeric string (YAML
#                               1.1 reads `1e-3` as a string), but not NaN

_NOT_NONE = functools.partial(operator.is_not, None)
_EXPECTED = {bool: "true or false", int: "an integer", str: "a string",
             float: "a number"}


@functools.cache
def _form(hint) -> tuple[str, object]:
    """(kind, argument) of a type, in the terms of the table above: mapping
    ((name, type, default or MISSING) of each field), keyed (X), list (X),
    row (the item types), optional (X) or scalar (the type)."""
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        return "mapping", tuple((f.name, hints[f.name], f.default)
                                for f in dataclasses.fields(hint))
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if args[-1] is not Ellipsis:
            return "row", args
        entry = typing.get_args(args[0])
        if typing.get_origin(args[0]) is tuple and entry[0] is str:
            return "keyed", entry[1]
        return "list", args[0]
    if type(None) in args:
        return "optional", next(a for a in args if a is not type(None))
    return "scalar", hint


def _to_plain(value, hint):
    kind, arg = _form(hint)
    if kind == "mapping":
        return {name: _to_plain(getattr(value, name), t) for name, t, _ in arg}
    if kind == "keyed":
        return {key: _to_plain(item, arg) for key, item in value}
    if kind in ("row", "list"):
        items = arg if kind == "row" else [arg] * len(value)
        return [_to_plain(v, t) for v, t in zip(value, items)]
    if kind == "optional" and value is not None:
        return _to_plain(value, arg)
    return value


def _from_plain(raw, hint, path: str, default=None):
    """`raw` read as a value of type `hint`; SchemaError naming the path of
    the first fault, from `path` down.  A mapping takes each field it
    leaves out from `default`, the default of the field it is read for,
    when that is a dataclass."""
    kind, arg = _form(hint)
    if kind == "scalar":
        value = raw
        if arg is float and type(raw) in (float, int, str):
            try:
                value = float(raw)
            except (ValueError, OverflowError):  # not numeric, or too large
                pass
        if type(value) is arg and value == value:  # not NaN
            return value
        raise SchemaError(f"{path}: expected {_EXPECTED[arg]}, got {raw!r}")
    if kind == "optional":
        return None if raw is None else _from_plain(raw, arg, path)
    if kind in ("row", "list"):
        if (type(raw) is not list and type(raw) is not tuple
                or kind == "row" and len(raw) != len(arg)):
            size = f" of {len(arg)}" if kind == "row" else ""
            raise SchemaError(f"{path}: expected a list{size}, got {raw!r}")
        whole = _whole_list(raw, arg) if kind == "list" else None
        items = arg if kind == "row" else [arg] * len(raw)
        return whole if whole is not None else tuple(
            _from_plain(v, t, f"{path}[{i}]")
            for i, (v, t) in enumerate(zip(raw, items)))
    if type(raw) is not dict:
        raise SchemaError(f"{path}: expected a mapping, got {raw!r}")
    if kind == "keyed":
        names = sorted(_from_plain(name, str, path) for name in raw)
        return tuple((name, _from_plain(raw[name], arg, f"{path}.{name}"))
                     for name in names)
    _check_keys(raw, {name for name, _, _ in arg}, path)
    kwargs = {}
    for name, t, field_default in arg:
        if name in raw:
            kwargs[name] = _from_plain(raw[name], t, f"{path}.{name}",
                                       field_default)
        elif hasattr(default, name):
            kwargs[name] = getattr(default, name)
        elif field_default is dataclasses.MISSING:
            raise SchemaError(f"{path}: missing required key '{name}'")
    try:
        return hint(**kwargs)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def _whole_list(raw: list, item) -> tuple | None:
    """`raw` read as a `tuple[item, ...]` by checks on the whole list, for
    an item that is an int, a float or a row of floats, each perhaps None;
    None when `_from_plain` must read it entry by entry, as it must a
    fault, an int or a string in place of a float, or an infinity.  A
    finite sum shows that every float is finite."""
    kind, arg = _form(item)
    present = raw
    if kind == "optional":
        present = list(filter(_NOT_NONE, raw))
        kind, arg = _form(arg)
    if kind == "row":
        if (set(arg) != {float} or not set(map(type, present)) <= {list}
                or not set(map(len, present)) <= {len(arg)}):
            return None
        values, flat = map(tuple, present), list(chain.from_iterable(present))
        arg = float
    elif arg is int or arg is float:
        values = flat = present
    else:
        return None
    if not set(map(type, flat)) <= {arg} or (
            arg is float and not math.isfinite(sum(flat))):
        return None
    if len(present) == len(raw):
        return tuple(values)
    values = iter(values)
    return tuple(None if v is None else next(values) for v in raw)


# ---------------------------------------------------------------------------
# Result documents.

@dataclass(frozen=True)
class ResultsDocument:
    estimate: SceneEstimate
    config_hash: str = ""
    source_indices: tuple[int, ...] | None = None


def emit_results(estimate: SceneEstimate, *, config_hash: str = "",
                 source_indices=None) -> str:
    """Serialize an estimate to canonical JSON text: its per-box columns
    (heights, posture ratios, the final reprojection's spans and
    residuals) and the scalars of each trace layer.  The payload holds
    the estimate's own tuples, so `canonical_json` sees which columns
    repeat."""
    trace = [{
        "layer": t.layer,
        "cam_height_m": t.cam_height_m,
        "l_vt": t.l_vt,
        "prior_loss": t.prior_loss,
        "total_loss": t.total_loss,
    } for t in estimate.trace]
    payload: dict[str, object] = {
        "schema_version": RESULTS_SCHEMA_VERSION,
        "method": estimate.method,
        "config_hash": config_hash,
        "estimate": {
            "cam_height_m": estimate.cam_height_m,
            "heights_m": estimate.heights_m,
            "upright_heights_m": estimate.upright_heights_m,
            "upright_ratios": estimate.upright_ratios,
            "spans": estimate.spans,
            "residuals": estimate.residuals,
            "excluded": estimate.excluded,
            "converged": estimate.converged,
            "ill_posed": estimate.ill_posed,
            "trace": trace,
        },
    }
    if source_indices is not None:
        payload["source_indices"] = list(source_indices)
    return canonical_json(payload)


@dataclass(frozen=True)
class _LayerTraceV1:
    """A trace layer of a schema 1 results file, which carried the
    layer's per-box rows."""

    layer: int
    cam_height_m: float
    heights_m: tuple[float, ...]
    l_vt: float
    prior_loss: float
    total_loss: float
    spans: tuple[tuple[float, float] | None, ...]
    residuals: tuple[float | None, ...]


_LAYER_KEYS = tuple(f.name for f in dataclasses.fields(LayerTrace))


def _estimate_from_v1(est_raw: dict) -> dict:
    """A schema 1 estimate in the version 2 layout: every trace layer is
    type-checked, the last layer's `spans` and `residuals` become the
    estimate's, and the layers keep their scalars."""
    layers = _require(est_raw, "trace", "estimate")
    _from_plain(layers, tuple[_LayerTraceV1, ...], "results.estimate.trace")
    rows = layers[-1] if layers else {"spans": [], "residuals": []}
    return {**est_raw, "spans": rows["spans"], "residuals": rows["residuals"],
            "trace": [{key: layer[key] for key in _LAYER_KEYS}
                      for layer in layers]}


def parse_results(data: bytes | str) -> ResultsDocument:
    """Parse result JSON of schema version 2 or 1 back into a
    SceneEstimate; SchemaError on violations."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError(_TOO_DEEP) from None
    if not isinstance(raw, dict):
        raise SchemaError("results root must be an object")
    _check_keys(raw, {"schema_version", "method", "config_hash", "estimate",
                      "source_indices"}, "results")
    version = _require(raw, "schema_version", "results")
    if type(version) is not int or version not in (1, RESULTS_SCHEMA_VERSION):
        raise SchemaError(f"unsupported results schema_version {version!r}; "
                          f"this build reads versions 1 and "
                          f"{RESULTS_SCHEMA_VERSION}")
    est_raw = _require(raw, "estimate", "results")
    # The method of the estimate is written at the root.
    keys = {name for name, _, _ in _form(SceneEstimate)[1]} - {"method"}
    if version == 1:
        _check_keys(est_raw, keys - {"spans", "residuals"}, "estimate")
        est_raw = _estimate_from_v1(est_raw)
    else:
        _check_keys(est_raw, keys, "estimate")
    plain = {key: raw[key] for key in ("config_hash", "source_indices")
             if key in raw}
    plain["estimate"] = {**est_raw, "method": _from_plain(
        _require(raw, "method", "results"), str, "results.method")}
    return _from_plain(plain, ResultsDocument, "results")


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

    def __post_init__(self) -> None:
        for name, (low, high) in (("box_height_range", self.box_height_range),
                                  *(("aspect_range." + category, pair)
                                    for category, pair in self.aspect_range)):
            if not low <= high:
                raise ValueError(f"{name}: low {low} is above high {high}")


class FilterResult(typing.NamedTuple):
    """Detections split into solvable and rejected-with-reason, each in
    input order: the kept detections' indices in the document, the kept
    detections, and an (index, reason) pair per rejected detection."""

    kept_indices: tuple[int, ...]
    kept: DetectionColumns
    rejected: tuple[tuple[int, str], ...]


# Filter reasons by gate, in the order the gates are applied.
_REASONS = ("amodal", "aspect", "box-height", "above-horizon")


def filter_detections(doc: DetectionDocument,
                      filters: FilterConfig | None = None) -> FilterResult:
    """Split detections into those kept, `doc.detections.take(kept_indices)`,
    and the rejected, as (index, reason) pairs like `SceneEstimate.excluded`.

    Reasons: "amodal" (keypointed person missing head or ankle),
    "aspect" (h/w outside the category range), "box-height" (normalized
    height outside range), "above-horizon" (bottom at or above v0).
    Each rejected detection gets the first reason of that list it meets.
    Order is preserved and kept + rejected partition the input.
    """
    filters = filters or FilterConfig()
    columns = doc.detections
    v0 = doc.calibration.horizon_v0()
    # gate[i] is the 1-based _REASONS index of the first gate detection i
    # fails, 0 when it passes them all; later gates are written first so
    # that earlier ones overwrite them.
    with np.errstate(over="ignore", invalid="ignore"):
        box_h = columns.v_bottom - columns.v_top
        lo, hi = filters.box_height_range
        gate = np.where((lo <= box_h) & (box_h <= hi),
                        (columns.v_bottom <= v0) * 4, 3)
        aspect_map = dict(filters.aspect_range)
        aspect = box_h / (columns.u_right - columns.u_left)
        for category in aspect_map.keys() & set(columns.category):
            lo, hi = aspect_map[category]
            of_category = np.fromiter(map(category.__eq__, columns.category),
                                      dtype=bool, count=len(columns))
            gate[of_category & ~((lo <= aspect) & (aspect <= hi))] = 2
    if filters.require_keypoint_visibility and len(columns.keypoints):
        # Persons whose skeleton lacks a head point or both ankles.
        amodal = columns.has_keypoints.nonzero()[0][
            ~head_and_ankle_visible(columns.keypoints)]
        if amodal.size:
            person = np.fromiter(map("person".__eq__, columns.category),
                                 dtype=bool, count=len(columns))
            gate[amodal[person[amodal]]] = 1
    kept = np.flatnonzero(gate == 0)
    rejected = np.flatnonzero(gate)
    return FilterResult(
        tuple(kept.tolist()), columns.take(kept),
        tuple((i, _REASONS[g - 1])
              for i, g in zip(rejected.tolist(), gate[rejected].tolist())))


# ---------------------------------------------------------------------------
# Toolkit configuration.

@dataclass(frozen=True)
class OverlayConfig:
    reference_height_m: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.reference_height_m < math.inf:
            raise ValueError("reference height must be positive and finite")


VALID_METHODS = ("cascade", "pgm", "pgm-fixed")


@dataclass(frozen=True)
class ToolkitConfig:
    """Everything configurable about the pipeline, in one place.  The
    types of its fields and of its sections' fields define the YAML form."""

    method: str = "cascade"
    priors: tuple[tuple[str, HeightPrior], ...] = tuple(
        sorted(DEFAULT_PRIORS.items()))
    canonical_heights: tuple[tuple[str, float], ...] = tuple(
        sorted(CANONICAL_HEIGHTS.items()))
    cam_height_prior: HeightPrior = CAM_HEIGHT_PRIOR
    refine: RefinementConfig = RefinementConfig()
    filters: FilterConfig = FilterConfig()
    overlay: OverlayConfig = OverlayConfig()

    def __post_init__(self) -> None:
        if self.method not in VALID_METHODS:
            raise SchemaError(f"unknown method {self.method!r}; "
                              f"valid methods: {', '.join(VALID_METHODS)}")
        for category, height in self.canonical_heights:
            if not 0 < height < math.inf:
                raise ValueError(f"canonical height of {category!r} must be "
                                 f"positive and finite, got {height}")

    def prior_map(self) -> dict[str, HeightPrior]:
        return dict(self.priors)

    def canonical_map(self) -> dict[str, float]:
        return dict(self.canonical_heights)


def config_to_dict(config: ToolkitConfig) -> dict:
    """The config as plain mappings, lists and scalars."""
    return _to_plain(config, ToolkitConfig)


def config_from_dict(raw: dict) -> ToolkitConfig:
    """Build a config from a plain mapping, keeping the default of each key
    left out; SchemaError naming the path of the first fault."""
    return _from_plain(raw, ToolkitConfig, "config")


def config_to_yaml(config: ToolkitConfig) -> str:
    return yaml.safe_dump(config_to_dict(config), sort_keys=True,
                          default_flow_style=False)


def config_from_yaml(text: str) -> ToolkitConfig:
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise SchemaError(f"not valid YAML: {exc}") from None
    except RecursionError:
        raise SchemaError(_TOO_DEEP) from None
    if raw is None:
        raw = {}
    return config_from_dict(raw)


def config_digest(config: ToolkitConfig) -> str:
    """Stable hash of the full effective configuration."""
    blob = json.dumps(config_to_dict(config), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
