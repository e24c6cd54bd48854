"""Document schema, filtering, config, and convention-flip tests.

Serialization is canonical: key-sorted, two-space-indented JSON with a
trailing newline, so emit(parse(emit(x))) is byte-stable and documents
diff cleanly under version control.
"""

import dataclasses
import json
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scenescale import documents
from scenescale.documents import (CalibrationInput, DetectionDocument,
                                  FilterConfig, OverlayConfig, SchemaError,
                                  ToolkitConfig, VALID_METHODS, canonical_json,
                                  config_digest, config_from_dict,
                                  config_from_yaml, config_to_yaml,
                                  emit_document, emit_results,
                                  filter_detections, flip_vertical_convention,
                                  parse_document, parse_results)
from scenescale.metrics import GroundTruth
from scenescale.priors import (COCO_KEYPOINT_NAMES, HEAD_KEYPOINT_NAMES,
                               HeightPrior, KeypointSet)
from scenescale.solver import (DetectionBox, LayerTrace, RefinementConfig,
                               SceneEstimate, detection_columns, solve_scene)

_FIXTURES = Path(__file__).parent / "fixtures"


def _raw_doc() -> dict:
    return {
        "schema_version": 1,
        "image": {"width_px": 640, "height_px": 480},
        "calibration": {"fov_rad": 1.0471975511965976, "v0": 0.48},
        "detections": [
            {"category": "person",
             "box": {"u_left": 0.40, "u_right": 0.52,
                     "v_top": 0.55, "v_bottom": 0.82},
             "weight": 1.0},
            {"category": "car",
             "box": {"u_left": 0.70, "u_right": 1.05,
                     "v_top": 0.60, "v_bottom": 0.72}},
        ],
        "ground_truth": {"cam_height_m": 1.6,
                         "object_heights_m": [1.73, 1.52]},
        "meta": {"source": "unit-test"},
    }


def _parse(raw: dict) -> DetectionDocument:
    return parse_document(json.dumps(raw))


def _kps(named: dict[str, tuple[float, float]]) -> list[list[float]]:
    pts = []
    for name in COCO_KEYPOINT_NAMES:
        if name in named:
            u, v = named[name]
            pts.append([u, v, 2.0])
        else:
            pts.append([0.0, 0.0, 0.0])
    return pts


# ---------------------------------------------------------------------------
# Round trips.

def test_document_round_trip_object_equality():
    doc = _parse(_raw_doc())
    assert parse_document(emit_document(doc)) == doc


def test_emit_is_canonical_fixpoint():
    text = emit_document(_parse(_raw_doc()))
    assert emit_document(parse_document(text)) == text
    assert text.endswith("\n")


def test_round_trip_preserves_horizon_parametrization():
    raw = _raw_doc()
    doc_v0 = _parse(raw)
    assert doc_v0.calibration.v0 == 0.48
    raw["calibration"] = {"fov_rad": 1.0, "pitch_rad": -0.1}
    doc_pitch = parse_document(emit_document(_parse(raw)))
    assert doc_pitch.calibration.v0 is None
    assert doc_pitch.calibration.pitch_rad == -0.1


def test_keypoints_and_meta_round_trip():
    raw = _raw_doc()
    raw["detections"][0]["keypoints"] = _kps(
        {"nose": (0.45, 0.57), "left_ankle": (0.46, 0.81)})
    doc = _parse(raw)
    again = parse_document(emit_document(doc))
    assert again.detections == doc.detections
    assert again.detections.has_keypoints.tolist() == [True, False]
    np.testing.assert_array_equal(again.detections.keypoints,
                                  [raw["detections"][0]["keypoints"]])
    assert dict(again.meta) == {"source": "unit-test"}


def test_horizon_v0_from_pitch_frozen_value():
    cal = CalibrationInput(fov_rad=math.radians(60.0),
                           pitch_rad=math.radians(15.0))
    # 0.5 + (0.5 / tan 30 deg) * tan 15 deg; 374.81 px at 512 px height.
    assert cal.horizon_v0() == pytest.approx(0.7320508075688772, abs=1e-12)
    direct = CalibrationInput(fov_rad=1.0, v0=0.4)
    assert direct.horizon_v0() == 0.4


def test_results_round_trip():
    doc = _parse(_raw_doc())
    est = solve_scene(doc.calibration.horizon_v0(), doc.calibration.fov_rad,
                      doc.detections)
    text = emit_results(est, config_hash="abc123", source_indices=[0, 1])
    res = parse_results(text)
    assert res.estimate == est
    assert res.config_hash == "abc123"
    assert res.source_indices == (0, 1)
    assert emit_results(res.estimate, config_hash=res.config_hash,
                        source_indices=res.source_indices) == text


# ---------------------------------------------------------------------------
# The canonical writer.

def _json_dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, allow_nan=False) + "\n"


_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-300,
                     1e16, 1e22, 1.7976931348623157e308, -1.5e300]))
_TEXT = st.one_of(st.text(), st.sampled_from(
    ["", ", ", "None", "null, ", "], [", "l, ", "\u00e9\u4e2d\U0001f600",
     "\"\\\n\t\x00", "inf", "nan"]))
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _FINITE, _TEXT)
# Homogeneous lists of numbers, as a results trace holds them, next to
# arbitrary nesting.
_NUMBER_LISTS = st.one_of(
    st.lists(st.one_of(_FINITE, st.integers(), st.none())),
    st.lists(st.one_of(st.none(), st.lists(st.one_of(_FINITE, st.integers()),
                                           min_size=1, max_size=3))))
_JSON = st.recursive(
    st.one_of(_SCALARS, _NUMBER_LISTS),
    lambda children: st.one_of(st.lists(children, max_size=5),
                               st.dictionaries(_TEXT, children, max_size=5)),
    max_leaves=30)


@given(value=_JSON)
@settings(deadline=None, max_examples=250)
def test_canonical_json_is_json_dumps_byte_for_byte(value):
    assert canonical_json(value) == _json_dumps(value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("place", [
    lambda x: x,
    lambda x: [1.0, x, None],
    lambda x: {"b": [[0.5, 1.0], None, [x, 2.0]], "a": 1},
    lambda x: {"a": [{"k": "v"}, {"k": x}]},
    lambda x: [[1.0, 2.0], {"a": x}],
])
def test_canonical_json_refuses_non_finite_floats_as_json_does(place, bad):
    value = place(bad)
    with pytest.raises(ValueError) as expected:
        _json_dumps(value)
    with pytest.raises(ValueError) as got:
        canonical_json(value)
    assert str(got.value) == str(expected.value)
    assert "not JSON compliant" in str(got.value)


def test_canonical_json_defers_other_types_to_json():
    class Number(float):
        pass

    value = {"t": (1.0, [2, 3]), "f": Number(1.5), 2: "int key"}
    with pytest.raises(TypeError):
        _json_dumps(value)
    with pytest.raises(TypeError):
        canonical_json(value)
    del value[2]
    assert canonical_json(value) == _json_dumps(value)
    with pytest.raises(TypeError, match="not JSON serializable"):
        canonical_json({"a": object()})


# ---------------------------------------------------------------------------
# `emit_results` against `json.dumps` of the same plain payload.

def _plain_results(est: SceneEstimate, source_indices) -> dict:
    """The payload `emit_results` writes, as unshared plain lists."""
    return {
        "schema_version": 3, "method": est.method, "config_hash": "abc",
        "estimate": {
            "cam_height_m": est.cam_height_m,
            "heights_m": list(est.heights_m),
            "upright_heights_m": list(est.upright_heights_m),
            "upright_ratios": list(est.upright_ratios),
            "tops": list(est.tops),
            "excluded": [[i, reason] for i, reason in est.excluded],
            "converged": est.converged, "ill_posed": est.ill_posed,
            "trace": [{
                "layer": t.layer, "cam_height_m": t.cam_height_m,
                "l_vt": t.l_vt, "prior_loss": t.prior_loss,
                "total_loss": t.total_loss} for t in est.trace],
        },
        "source_indices": list(source_indices),
    }


# Values at float repr's format switches (1e16 and 1e-5 take an exponent,
# their neighbours do not), the smallest subnormal, and both zeros.
_EDGE = st.sampled_from([1e16, 9999999999999998.0, 1e-5, 0.0001, 5e-324,
                         -5e-324, 0.0, -0.0, 1.0, -1.5, 1e22,
                         1.7976931348623157e308])
_VALUE = st.one_of(_EDGE, st.floats(allow_nan=False, allow_infinity=False))


def _same_bits(x: float) -> float:
    """A new float object with the bits of `x`."""
    return float.fromhex(x.hex())


@st.composite
def _estimates(draw):
    """Estimates shaped as the solvers build them: excluded boxes with None
    rows, copied trace layers, upright heights that are the heights tuple
    itself, its values, or its values with each zero's sign flipped (a
    ratio of 1.0 keeps the bits, and -0.0 must not print 0.0), and tops
    that repeat the heights' values (as new objects) or not."""
    n = draw(st.integers(1, 5))
    values = st.lists(_VALUE, min_size=n, max_size=n)
    used = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    used[draw(st.integers(0, n - 1))] = True
    trace = []
    for j in range(draw(st.integers(1, 4))):
        if trace and draw(st.booleans()):
            trace.append(dataclasses.replace(trace[-1], layer=j))
            continue
        trace.append(LayerTrace(
            layer=j, cam_height_m=draw(_VALUE), l_vt=draw(_VALUE),
            prior_loss=draw(_VALUE), total_loss=draw(_VALUE)))
    heights = tuple(draw(values))
    upright = draw(st.sampled_from(["same", "bits", "zeros flipped", "own"]))
    if upright == "zeros flipped":
        heights = list(heights)
        heights[draw(st.integers(0, n - 1))] = draw(st.sampled_from(
            [0.0, -0.0]))
        heights = tuple(heights)
    upright = {"same": heights,
               "bits": tuple(map(_same_bits, heights)),
               "zeros flipped": tuple(-h if h == 0.0 else _same_bits(h)
                                      for h in heights),
               "own": tuple(draw(values))}[upright]
    ratios = tuple(draw(st.lists(st.one_of(st.just(1.0), _VALUE),
                                 min_size=n, max_size=n)))
    tops = (list(map(_same_bits, heights)) if draw(st.booleans())
            else draw(values))
    return SceneEstimate(
        method=draw(st.sampled_from(VALID_METHODS)),
        cam_height_m=draw(_VALUE), heights_m=heights,
        upright_heights_m=upright, upright_ratios=ratios,
        tops=tuple(t if u else None for u, t in zip(used, tops)),
        excluded=tuple((i, "bottom-on-horizon")
                       for i, u in enumerate(used) if not u),
        converged=draw(st.booleans()), ill_posed=draw(st.booleans()),
        trace=tuple(trace))


@given(est=_estimates())
@settings(deadline=None, max_examples=300)
def test_emit_results_is_json_dumps_of_the_plain_payload(est):
    indices = range(len(est.heights_m))
    assert (emit_results(est, config_hash="abc", source_indices=indices)
            == _json_dumps(_plain_results(est, indices)))


_SPOIL = {
    "cam_height_m": lambda e, x: dataclasses.replace(e, cam_height_m=x),
    "heights_m": lambda e, x: dataclasses.replace(
        e, heights_m=(x,) + e.heights_m[1:]),
    "upright_heights_m": lambda e, x: dataclasses.replace(
        e, upright_heights_m=e.upright_heights_m[:-1] + (x,)),
    "upright_ratios": lambda e, x: dataclasses.replace(
        e, upright_ratios=(x,) + e.upright_ratios[1:]),
    "trace l_vt": lambda e, x: dataclasses.replace(e, trace=e.trace[:-1] + (
        dataclasses.replace(e.trace[-1], l_vt=x),)),
    "top": lambda e, x: dataclasses.replace(e, tops=tuple(
        x if t is not None else None for t in e.tops)),
}


@given(est=_estimates(), place=st.sampled_from(sorted(_SPOIL)),
       bad=st.sampled_from([math.nan, math.inf, -math.inf]))
@settings(deadline=None, max_examples=150)
def test_emit_results_refuses_non_finite_values_as_json_does(est, place, bad):
    est = _SPOIL[place](est, bad)
    indices = range(len(est.heights_m))
    with pytest.raises(ValueError) as expected:
        _json_dumps(_plain_results(est, indices))
    with pytest.raises(ValueError) as got:
        emit_results(est, config_hash="abc", source_indices=indices)
    assert str(got.value) == str(expected.value)


def test_parse_results_rejects_unknown_key():
    doc = _parse(_raw_doc())
    est = solve_scene(0.48, 1.0, doc.detections)
    raw = json.loads(emit_results(est))
    raw["extra"] = 1
    with pytest.raises(SchemaError, match="extra"):
        parse_results(json.dumps(raw))


# ---------------------------------------------------------------------------
# Schema rejections.

def test_rejects_invalid_json_and_non_object_root():
    with pytest.raises(SchemaError, match="JSON"):
        parse_document("{nope")
    with pytest.raises(SchemaError, match="object"):
        parse_document("[1, 2]")


@pytest.mark.parametrize("mutate,fragment", [
    (lambda r: r.update(surprise=1), "surprise"),
    (lambda r: r["image"].update(depth_px=8), "depth_px"),
    (lambda r: r["calibration"].update(zoom=2), "zoom"),
    (lambda r: r["detections"][0].update(score=0.9), "score"),
    (lambda r: r["detections"][0]["box"].update(area=1), "area"),
    (lambda r: r["ground_truth"].update(labels=[]), "labels"),
])
def test_rejects_unknown_keys_naming_them(mutate, fragment):
    raw = _raw_doc()
    mutate(raw)
    with pytest.raises(SchemaError, match=fragment):
        _parse(raw)


def test_rejects_missing_and_wrong_schema_version():
    raw = _raw_doc()
    del raw["schema_version"]
    with pytest.raises(SchemaError, match="schema_version"):
        _parse(raw)
    raw = _raw_doc()
    raw["schema_version"] = 999
    with pytest.raises(SchemaError, match="999"):
        _parse(raw)
    # Only an int names a version: true and 1.0 equal 1 in Python.
    for version in (True, 1.0, 2.0):
        raw["schema_version"] = version
        with pytest.raises(SchemaError,
                           match=f"unsupported schema_version {version!r}"):
            _parse(raw)


def test_rejects_bad_calibration():
    raw = _raw_doc()
    raw["calibration"] = {"fov_rad": 1.0, "v0": 0.5, "pitch_rad": 0.1}
    with pytest.raises(SchemaError, match="exactly one"):
        _parse(raw)
    raw["calibration"] = {"fov_rad": 1.0}
    with pytest.raises(SchemaError, match="exactly one"):
        _parse(raw)
    raw["calibration"] = {"fov_rad": 4.0, "v0": 0.5}
    with pytest.raises(SchemaError, match="fov_rad"):
        _parse(raw)
    raw["calibration"] = {"fov_rad": 1.0, "pitch_rad": 2.0}
    with pytest.raises(SchemaError, match="pitch"):
        _parse(raw)


def test_rejects_bad_image_and_detections_shape():
    raw = _raw_doc()
    raw["image"]["width_px"] = -640
    with pytest.raises(SchemaError, match="positive"):
        _parse(raw)
    raw = _raw_doc()
    raw["detections"] = {"not": "a list"}
    with pytest.raises(SchemaError, match="list"):
        _parse(raw)
    raw = _raw_doc()
    raw["detections"][1] = 7
    with pytest.raises(SchemaError, match=r"detections\[1\]"):
        _parse(raw)


def test_rejects_degenerate_box_with_index():
    raw = _raw_doc()
    box = raw["detections"][1]["box"]
    box["v_top"], box["v_bottom"] = box["v_bottom"], box["v_top"]
    with pytest.raises(SchemaError, match=r"detections\[1\]"):
        _parse(raw)


def test_rejects_bad_weight_and_category():
    raw = _raw_doc()
    raw["detections"][0]["weight"] = 0
    with pytest.raises(SchemaError, match="weight"):
        _parse(raw)
    raw = _raw_doc()
    raw["detections"][0]["category"] = ""
    with pytest.raises(SchemaError, match="category"):
        _parse(raw)


def test_rejects_malformed_keypoints():
    raw = _raw_doc()
    raw["detections"][0]["keypoints"] = [[0.1, 0.2, 1]] * 16
    with pytest.raises(SchemaError, match="17"):
        _parse(raw)
    raw["detections"][0]["keypoints"] = [[0.1, 0.2]] * 17
    with pytest.raises(SchemaError, match="17"):
        _parse(raw)


def test_rejects_ground_truth_length_mismatch():
    raw = _raw_doc()
    raw["ground_truth"]["object_heights_m"] = [1.7]
    with pytest.raises(SchemaError, match="match the detection count"):
        _parse(raw)


def test_rejects_non_finite_and_boolean_numbers():
    raw = _raw_doc()
    raw["calibration"]["v0"] = float("inf")
    with pytest.raises(SchemaError, match="finite"):
        _parse(raw)
    raw = _raw_doc()
    raw["image"]["height_px"] = True
    with pytest.raises(SchemaError, match="number"):
        _parse(raw)
    raw = _raw_doc()
    raw["meta"] = [1, 2]
    with pytest.raises(SchemaError, match="meta"):
        _parse(raw)


# ---------------------------------------------------------------------------
# The column parse against the per-detection parse.

# Finite numbers as JSON carries them: floats, small ints and ints that a
# float cannot hold exactly.
_NUMBER = st.one_of(
    st.floats(-2.0, 2.0), st.integers(-2, 2),
    st.sampled_from([-0.0, 2 ** 53 + 1, -(2 ** 53) - 3, 2 ** 64 + 1]))
_SPAN = st.one_of(st.floats(1e-3, 2.0), st.integers(1, 2),
                  st.just(2 ** 53 + 1))
_BAD_NUMBERS = [True, False, math.nan, math.inf, -math.inf, "0.5", None,
                10 ** 400, [0.5]]
_NOT_A_DETECTION = [[1.0], "person", 3, None, True]


@st.composite
def _raw_documents(draw):
    """A raw document with 0-5 detections, valid or broken in up to three
    places."""
    n = draw(st.integers(0, 5))
    dets = []
    for _ in range(n):
        u_left, v_top = draw(_NUMBER), draw(_NUMBER)
        u_right, v_bottom = u_left + draw(_SPAN), v_top + draw(_SPAN)
        det = {"category": draw(st.sampled_from(["person", "car", "bike"])),
               "box": {"u_left": u_left, "u_right": u_right,
                       "v_top": v_top, "v_bottom": v_bottom}}
        if draw(st.booleans()):
            det["weight"] = draw(st.one_of(st.floats(1e-3, 5.0),
                                           st.integers(1, 3)))
        if draw(st.booleans()):
            det["keypoints"] = [[draw(_NUMBER), draw(_NUMBER),
                                 draw(st.sampled_from([0, 1, 2, 2.0]))]
                                for _ in COCO_KEYPOINT_NAMES]
        dets.append(det)
    raw = {"schema_version": 1,
           "image": {"width_px": 640, "height_px": 480.0},
           "calibration": {"fov_rad": 1.0, "v0": 0.48},
           "detections": dets}
    if draw(st.booleans()):
        raw["ground_truth"] = {
            "cam_height_m": draw(st.floats(0.5, 5.0)),
            "object_heights_m": [draw(st.one_of(st.floats(0.1, 3.0),
                                                st.integers(1, 2)))
                                 for _ in dets]}
    if draw(st.booleans()):
        raw["meta"] = {"source": "fuzz"}
    for _ in range(draw(st.integers(0, 3))):
        _break(draw, raw)
    return raw


def _break(draw, raw) -> None:
    """Break one thing in `raw`, in place; earlier breaks may have removed
    what a later one would break, which then breaks nothing."""
    def dicts(*values):
        return [v for v in values if isinstance(v, dict)]

    dets = raw.get("detections")
    dets = dets if isinstance(dets, list) else []
    det = draw(st.sampled_from(dets)) if dets else None
    det = det if isinstance(det, dict) else {}
    box = det.get("box") if isinstance(det.get("box"), dict) else {}
    gt = raw.get("ground_truth") if isinstance(raw.get("ground_truth"),
                                               dict) else {}
    heights = gt.get("object_heights_m")
    heights = heights if isinstance(heights, list) else []
    kind = draw(st.sampled_from(
        ["value", "missing", "unknown", "not-a-detection", "keypoints",
         "weight", "swap", "category", "ground-truth", "box-type"]))
    if kind == "value":
        places = [(box, key) for key in box] + [(det, "weight")] * bool(det)
        places += [(level, key) for level in dicts(raw.get("image"), gt)
                   for key in level if key != "object_heights_m"]
        places += [(heights, i) for i in range(len(heights))]
        skeleton = det.get("keypoints")
        if isinstance(skeleton, list) and skeleton:
            triple = draw(st.sampled_from(skeleton))
            if isinstance(triple, list) and triple:
                places.append((triple, draw(st.integers(0, len(triple) - 1))))
        if places:
            where, key = draw(st.sampled_from(places))
            where[key] = draw(st.sampled_from(_BAD_NUMBERS))
    elif kind in ("missing", "unknown"):
        level = draw(st.sampled_from(dicts(
            raw, raw.get("image"), raw.get("calibration"), det, box, gt)))
        if kind == "unknown":
            level[draw(st.sampled_from(["extra", "Box", "weights"]))] = 1
        elif level:
            del level[draw(st.sampled_from(sorted(level)))]
    elif kind == "not-a-detection" and dets:
        dets[draw(st.integers(0, len(dets) - 1))] = draw(
            st.sampled_from(_NOT_A_DETECTION))
    elif kind == "keypoints" and det:
        triple = [0.5, 0.5, 2]
        det["keypoints"] = draw(st.sampled_from([
            [triple] * 16, [triple] * 18, [[0.5, 0.5]] + [triple] * 16,
            [[0.5, 0.5, 2, 1]] + [triple] * 16, [triple] * 16 + [None],
            {"nose": triple}, None, "keypoints", []]))
    elif kind == "weight" and det:
        det["weight"] = draw(st.sampled_from([0, 0.0, -0.0, -1, -1e-300]))
    elif kind == "swap" and len(box) == 4:
        a, b = draw(st.sampled_from([("u_left", "u_right"),
                                     ("v_top", "v_bottom")]))
        box[a], box[b] = box[b], draw(st.sampled_from([box[b], box[a]]))
    elif kind == "category" and det:
        det["category"] = draw(st.sampled_from(["", 7, None, ["person"]]))
    elif kind == "ground-truth" and gt:
        if heights and draw(st.booleans()):
            heights.pop()
        else:
            heights.append(1.7)
    elif kind == "box-type" and det:
        det["box"] = draw(st.sampled_from([
            [0.1, 0.2, 0.3, 0.4], ["u_left", "u_right", "v_top", "v_bottom"],
            "box", None]))


def _parse_outcome(text: str):
    """(document, its canonical text), or (error type, message)."""
    try:
        doc = parse_document(text)
    except Exception as exc:  # noqa: BLE001 - any error must match
        return type(exc), str(exc)
    return doc, emit_document(doc)


def _assert_parses_agree(raw) -> None:
    """The column parse and the per-detection parse give equal documents,
    or the same error; each detection function agrees when called alone."""
    text = json.dumps(raw)  # NaN and Infinity as JSON literals
    fast = _parse_outcome(text)
    with mock.patch.object(documents, "_detection_columns",
                           lambda dets: None), \
            mock.patch.object(documents, "_finite_floats",
                              lambda values: None):
        slow = _parse_outcome(text)
    assert fast == slow
    dets = json.loads(text).get("detections")
    if not isinstance(dets, list):
        return
    columns = documents._detection_columns(dets)
    try:
        boxes = documents._detection_boxes(dets)
    except Exception:  # noqa: BLE001 - the column parse must refuse it too
        assert columns is None
    else:
        assert columns == detection_columns(boxes)
        # -0.0 stays -0.0, which == does not tell from 0.0.
        assert _float_texts(columns) == _float_texts(detection_columns(boxes))


def _float_texts(columns) -> list[str]:
    return [repr(column.tolist()) for column in (
        columns.u_left, columns.u_right, columns.v_top, columns.v_bottom,
        columns.weight)]


@given(raw=_raw_documents())
@settings(deadline=None, max_examples=300)
def test_column_parse_matches_the_per_detection_parse(raw):
    _assert_parses_agree(raw)


def _skeleton_raw_doc() -> dict:
    raw = _raw_doc()
    raw["detections"][0]["keypoints"] = _kps(
        {"nose": (0.45, 0.57), "left_ankle": (0.46, 0.81)})
    return raw


def _set(path, value):
    def apply(raw):
        *parents, last = path
        for key in parents:
            raw = raw[key]
        raw[last] = value
    return apply


def _delete(path):
    def apply(raw):
        *parents, last = path
        for key in parents:
            raw = raw[key]
        del raw[last]
    return apply


_DET, _BOX, _KP = ("detections", 1), ("detections", 1, "box"), \
    ("detections", 0, "keypoints")
_BREAKS = {
    "valid": lambda raw: None,
    "ints-above-2**53": _set(_DET + ("box",), {
        "u_left": 2 ** 53 + 1, "u_right": 2 ** 60 + 1, "v_top": 1,
        "v_bottom": 2 ** 64 + 1}),
    "int-weight": _set(_DET + ("weight",), 2),
    "bool-coordinate": _set(_BOX + ("v_top",), True),
    "bool-weight": _set(_DET + ("weight",), False),
    "bool-keypoint": _set(_KP + (3, 2), True),
    "bool-height": _set(("ground_truth", "object_heights_m", 1), True),
    "nan-coordinate": _set(_BOX + ("u_left",), math.nan),
    "infinite-weight": _set(_DET + ("weight",), math.inf),
    "nan-keypoint": _set(_KP + (0, 0), math.nan),
    "infinite-height": _set(("ground_truth", "object_heights_m", 0),
                            -math.inf),
    "huge-int-coordinate": _set(_BOX + ("v_bottom",), 10 ** 400),
    "huge-int-width": _set(("image", "width_px"), 10 ** 400),
    "null-box": _set(_DET + ("box",), None),
    "null-image": _set(("image",), None),
    "null-ground-truth": _set(("ground_truth",), None),
    "string-coordinate": _set(_BOX + ("u_right",), "0.9"),
    "missing-document-key": _delete(("image",)),
    "unknown-document-key": _set(("extra",), 1),
    "missing-image-key": _delete(("image", "width_px")),
    "unknown-calibration-key": _set(("calibration", "roll"), 0.0),
    "missing-category": _delete(_DET + ("category",)),
    "missing-box": _delete(_DET + ("box",)),
    "unknown-detection-key": _set(_DET + ("score",), 0.9),
    "missing-box-key": _delete(_BOX + ("v_top",)),
    "unknown-box-key": _set(_BOX + ("width",), 0.1),
    "missing-ground-truth-key": _delete(("ground_truth", "cam_height_m")),
    "unknown-ground-truth-key": _set(("ground_truth", "extra"), 1),
    "list-detection": _set(_DET, [0.1, 0.2]),
    "string-detection": _set(_DET, "car"),
    "null-detection": _set(_DET, None),
    "list-box": _set(_DET + ("box",), [0.7, 1.05, 0.6, 0.72]),
    "16-keypoints": lambda raw: raw["detections"][0]["keypoints"].pop(),
    "pair-keypoint": _set(_KP + (2,), [0.5, 0.5]),
    "null-keypoint": _set(_KP + (2,), None),
    "null-keypoints": _set(_KP, None),
    "zero-weight": _set(_DET + ("weight",), 0),
    "negative-weight": _set(_DET + ("weight",), -1.0),
    "swapped-u": _set(_BOX + ("u_left",), 1.05),
    "swapped-v": _set(_BOX + ("v_bottom",), 0.5),
    "empty-category": _set(_DET + ("category",), ""),
    "number-category": _set(_DET + ("category",), 7),
    "short-ground-truth": lambda raw: raw["ground_truth"][
        "object_heights_m"].pop(),
    "long-ground-truth": lambda raw: raw["ground_truth"][
        "object_heights_m"].append(1.7),
}


@pytest.mark.parametrize("name", list(_BREAKS))
def test_column_parse_matches_on_each_schema_rule(name):
    raw = _skeleton_raw_doc()
    _BREAKS[name](raw)
    _assert_parses_agree(raw)


@pytest.mark.parametrize("name, where", [
    ("huge-int-coordinate", "detections[1]: value out of range"),
    ("huge-int-width", "image.width_px: value out of range"),
    ("null-box", "detections[1].box: must be an object"),
    ("null-image", "image: must be an object"),
    ("null-ground-truth", "ground_truth: must be an object"),
])
def test_malformed_values_raise_a_schema_error_naming_the_place(name, where):
    raw = _skeleton_raw_doc()
    _BREAKS[name](raw)
    with pytest.raises(SchemaError) as info:
        _parse(raw)
    assert str(info.value).startswith(where)


def test_document_forms_agree_and_are_immutable():
    raw = _skeleton_raw_doc()
    parsed = _parse(raw)
    from_boxes = DetectionDocument(
        parsed.image_w_px, parsed.image_h_px, parsed.calibration,
        documents._detection_boxes(raw["detections"]), parsed.ground_truth,
        parsed.meta)
    assert parsed == from_boxes
    assert hash(parsed) == hash(from_boxes)
    assert emit_document(from_boxes) == emit_document(parsed)
    assert from_boxes.detections.category == ("person", "car")
    with pytest.raises(AttributeError):
        parsed.image_w_px = 1.0
    with pytest.raises(SchemaError, match="match the detection count"):
        DetectionDocument(1.0, 1.0, parsed.calibration, parsed.detections,
                          GroundTruth(1.6, (1.7,)))


def _columns(*boxes):
    return detection_columns(DetectionBox(*box) for box in boxes)


def test_detection_columns_compare_and_hash_by_value():
    person = (0.1, 0.2, 0.3, 0.9, "person")
    car = (-0.0, 0.4, 0.5, 0.8, "car")
    base = _columns(person, car)
    zero = _columns(person, (0.0, *car[1:]))
    assert base == zero and hash(base) == hash(zero)  # -0.0 == 0.0
    assert base != base.take([0])
    skeleton = KeypointSet(((0.15, 0.3, 2.0),) * 17)
    for other in (_columns((*person, skeleton), car),
                  _columns(car, person),
                  _columns(person, (*car, None, 2.0))):
        assert base != other
        assert hash(base) != hash(other)
    assert base.take([1, 0]) == _columns(car, person)
    assert base != object()


def test_take_keeps_each_box_with_its_skeleton():
    # Boxes 0, 2 and 4 carry skeletons, each its own; taking reorders the
    # boxes and drops box 2 with its skeleton and box 3 without one.
    boxes = [(0.1 * i, 0.1 * i + 0.05, 0.3, 0.9, "person",
              KeypointSet(((0.1 * i, 0.5, 2.0),) * 17) if i % 2 == 0
              else None)
             for i in range(6)]
    columns = _columns(*boxes)
    order = [4, 1, 5, 0]
    taken = columns.take(order)
    expect = _columns(*(boxes[i] for i in order))
    assert taken == expect and hash(taken) == hash(expect)
    assert taken.has_keypoints.tolist() == [True, False, False, True]
    assert taken.keypoints[:, 0, 0].tolist() == [0.4, 0.0]
    np.testing.assert_array_equal(taken.keypoints, expect.keypoints)
    assert not taken.keypoints.flags.writeable
    assert taken != columns.take([0, 1, 5, 4])
    assert columns.take([-2, 1, -1, -6]) == expect
    assert columns.take([]) == _columns()
    with pytest.raises(ValueError, match="row per marked box"):
        dataclasses.replace(columns, keypoints=columns.keypoints[:2])


def _filter_reference(boxes, v0, filters):
    """Per-box filter of `DetectionBox` objects: (kept indices,
    [(index, reason)])."""
    aspect_map = dict(filters.aspect_range)
    kept, rejected = [], []
    for i, box in enumerate(boxes):
        reason = None
        if (filters.require_keypoint_visibility and box.category == "person"
                and box.keypoints is not None):
            def visible(name):
                point = box.keypoints.points[COCO_KEYPOINT_NAMES.index(name)]
                return point[2] != 0.0
            has_head = any(visible(n) for n in HEAD_KEYPOINT_NAMES)
            has_ankle = visible("left_ankle") or visible("right_ankle")
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
            kept.append(i)
        else:
            rejected.append((i, reason))
    return tuple(kept), rejected


@st.composite
def _filter_cases(draw):
    """(document, filters) whose horizon, aspect and box-height bounds
    often fall exactly on some box's bottom, aspect or height."""
    boxes = []
    for _ in range(draw(st.integers(1, 8))):
        u_left = draw(st.floats(0.0, 1.0))
        v_top = draw(st.floats(0.0, 1.0))
        keypoints = None
        if draw(st.booleans()):
            keypoints = _kps({name: (0.5, 0.5) for name in draw(
                st.sets(st.sampled_from(
                    HEAD_KEYPOINT_NAMES + ("left_ankle", "right_ankle",
                                           "left_hip"))))})
            keypoints = KeypointSet(tuple(map(tuple, keypoints)))
        boxes.append(DetectionBox(
            u_left=u_left, u_right=u_left + draw(st.floats(1e-3, 1.0)),
            v_top=v_top, v_bottom=v_top + draw(st.floats(1e-3, 1.0)),
            category=draw(st.sampled_from(["person", "car", "bike"])),
            keypoints=keypoints))
    heights = [b.v_bottom - b.v_top for b in boxes]
    aspects = [h / (b.u_right - b.u_left) for h, b in zip(heights, boxes)]

    def bound(on_a_box, lo, hi):
        return draw(st.one_of(st.sampled_from(on_a_box), st.floats(lo, hi)))

    # FilterConfig takes a range only with low <= high.
    aspect_range = tuple(sorted(
        (category, tuple(sorted((bound(aspects, 0.0, 3.0),
                                 bound(aspects, 0.5, 10.0)))))
        for category in draw(st.sets(st.sampled_from(["person", "car"])))))
    filters = FilterConfig(
        aspect_range=aspect_range,
        box_height_range=tuple(sorted((bound(heights, 0.0, 0.5),
                                       bound(heights, 0.3, 1.0)))),
        require_keypoint_visibility=draw(st.booleans()))
    v0 = bound([b.v_bottom for b in boxes], 0.0, 2.0)
    doc = DetectionDocument(640.0, 480.0, CalibrationInput(fov_rad=1.0, v0=v0),
                            tuple(boxes))
    return doc, filters


@given(case=_filter_cases())
@settings(deadline=None, max_examples=300)
def test_column_filter_matches_the_per_box_filter(case):
    doc, filters = case
    text = emit_document(doc)
    boxes = documents._detection_boxes(json.loads(text)["detections"])
    kept_indices, rejected = _filter_reference(
        boxes, doc.calibration.horizon_v0(), filters)
    for source in (doc, parse_document(text)):
        result = filter_detections(source, filters)
        assert result.kept_indices == kept_indices
        assert list(result.rejected) == rejected
        assert result.kept == detection_columns(boxes[i]
                                                for i in kept_indices)


# ---------------------------------------------------------------------------
# Vertical-convention flip.

def test_flip_maps_coordinates_and_pitch():
    raw = _raw_doc()
    raw["calibration"] = {"fov_rad": 1.0, "pitch_rad": 0.2}
    doc = _parse(raw)
    flipped = flip_vertical_convention(doc)
    assert flipped.calibration.pitch_rad == -0.2
    assert flipped.calibration.principal_v == 0.5
    box, orig = flipped.detections, doc.detections
    assert box.v_top[0] == pytest.approx(1.0 - orig.v_bottom[0], abs=1e-15)
    assert box.v_bottom[0] == pytest.approx(1.0 - orig.v_top[0], abs=1e-15)
    assert (box.u_left[0], box.u_right[0]) == (orig.u_left[0],
                                               orig.u_right[0])


def test_flip_refuses_a_box_whose_top_would_meet_its_bottom():
    raw = _raw_doc()
    box = raw["detections"][0]["box"]
    box["v_top"], box["v_bottom"] = 0.1, math.nextafter(0.1, 1.0)
    with pytest.raises(ValueError, match="after the flip"):
        flip_vertical_convention(_parse(raw))


def test_flip_is_involution():
    raw = _raw_doc()
    raw["detections"][0]["keypoints"] = _kps(
        {"nose": (0.45, 0.57), "left_ankle": (0.46, 0.81)})
    doc = _parse(raw)
    twice = flip_vertical_convention(flip_vertical_convention(doc))
    assert twice.calibration.v0 == pytest.approx(doc.calibration.v0, abs=1e-15)
    a, b = twice.detections, doc.detections
    assert a.v_top == pytest.approx(b.v_top, abs=1e-15)
    assert a.v_bottom == pytest.approx(b.v_bottom, abs=1e-15)
    assert a.category == b.category
    assert a.has_keypoints.tolist() == b.has_keypoints.tolist()
    kp_a = a.keypoints[0].tolist()
    kp_b = b.keypoints[0].tolist()
    for (ua, va, sa), (ub, vb, sb) in zip(kp_a, kp_b):
        assert (ua, sa) == (ub, sb)
        assert va == pytest.approx(vb, abs=1e-15)
    # Invisible keypoints carry no coordinate and must not be remapped.
    assert kp_a[1] == kp_b[1] == [0.0, 0.0, 0.0]


def test_flip_twice_gives_the_skeleton_fixture_back():
    # The fixture's v values all survive 1 - (1 - v) exactly, so the
    # double flip gives back its every byte.
    text = (_FIXTURES / "skeletons.json").read_text()
    doc = parse_document(text)
    assert emit_document(doc) == text
    once = flip_vertical_convention(doc)
    kps, flipped = doc.detections.keypoints, once.detections.keypoints
    seen = kps[..., 2] != 0
    assert (~seen).any()
    # Only the v of a visible point moves; an invisible one is untouched.
    assert flipped[~seen].tolist() == kps[~seen].tolist()
    assert flipped[..., 1][seen].tolist() == (1.0 - kps[..., 1][seen]).tolist()
    twice = flip_vertical_convention(once)
    assert twice == doc
    assert emit_document(twice) == text


def test_flip_twice_restores_each_value_within_one_rounding():
    # 1 - (1 - v) is not v for every float: a v_top of 0.1 comes back
    # lower by the rounding of 1 - 0.1, at most half a unit in its last
    # place.
    raw = _raw_doc()
    raw["detections"][0]["box"]["v_top"] = 0.1
    doc = _parse(raw)
    twice = flip_vertical_convention(flip_vertical_convention(doc))
    assert twice.detections.v_top[0] == 0.09999999999999998
    assert abs(twice.detections.v_top[0] - 0.1) <= math.ulp(0.9) / 2
    assert twice != doc


def test_flip_round_trip_preserves_solution():
    doc = _parse(_raw_doc())
    back = flip_vertical_convention(flip_vertical_convention(doc))
    est_a = solve_scene(doc.calibration.horizon_v0(), doc.calibration.fov_rad,
                        doc.detections)
    est_b = solve_scene(back.calibration.horizon_v0(),
                        back.calibration.fov_rad, back.detections)
    assert est_b.cam_height_m == pytest.approx(est_a.cam_height_m, rel=1e-9)
    for ha, hb in zip(est_a.heights_m, est_b.heights_m):
        assert hb == pytest.approx(ha, rel=1e-9)


# ---------------------------------------------------------------------------
# Ingestion filters.

def test_filter_reasons_cover_each_gate():
    raw = _raw_doc()
    raw["ground_truth"]["object_heights_m"] = [1.7] * 6
    raw["detections"] = [
        # Kept: clean person below the horizon.
        {"category": "person",
         "box": {"u_left": 0.40, "u_right": 0.50, "v_top": 0.55,
                 "v_bottom": 0.82}},
        # Amodal: keypointed person with no visible ankle.
        {"category": "person",
         "box": {"u_left": 0.10, "u_right": 0.20, "v_top": 0.55,
                 "v_bottom": 0.80},
         "keypoints": _kps({"nose": (0.15, 0.56)})},
        # Aspect: person box wider than tall.
        {"category": "person",
         "box": {"u_left": 0.10, "u_right": 0.60, "v_top": 0.60,
                 "v_bottom": 0.70}},
        # Box height: sliver far smaller than the 5% gate.
        {"category": "car",
         "box": {"u_left": 0.60, "u_right": 0.70, "v_top": 0.690,
                 "v_bottom": 0.695}},
        # Above horizon: bottom at v0 = 0.48.
        {"category": "car",
         "box": {"u_left": 0.70, "u_right": 0.95, "v_top": 0.30,
                 "v_bottom": 0.48}},
        # Kept: car is not aspect-gated by the default config.
        {"category": "car",
         "box": {"u_left": 0.10, "u_right": 0.60, "v_top": 0.60,
                 "v_bottom": 0.70}},
    ]
    result = filter_detections(_parse(raw))
    assert result.kept_indices == (0, 5)
    assert result.rejected == (
        (1, "amodal"), (2, "aspect"), (3, "box-height"), (4, "above-horizon"))
    assert len(result.kept) + len(result.rejected) == 6
    assert result.kept.category[1] == "car"


def test_filter_keypoint_gate_can_be_disabled():
    raw = _raw_doc()
    del raw["ground_truth"]
    raw["detections"] = [
        {"category": "person",
         "box": {"u_left": 0.10, "u_right": 0.20, "v_top": 0.55,
                 "v_bottom": 0.80},
         "keypoints": _kps({"nose": (0.15, 0.56)})},
    ]
    doc = _parse(raw)
    strict = filter_detections(doc)
    assert strict.rejected == ((0, "amodal"),)
    lax = filter_detections(doc,
                            FilterConfig(require_keypoint_visibility=False))
    assert lax.kept_indices == (0,)


def test_filter_passes_keypointless_person():
    doc = _parse(_raw_doc())
    result = filter_detections(doc)
    assert result.kept_indices == (0, 1)
    assert result.rejected == ()


# ---------------------------------------------------------------------------
# Toolkit configuration.

def test_config_yaml_round_trip_default_and_modified():
    cfg = ToolkitConfig()
    assert config_from_yaml(config_to_yaml(cfg)) == cfg
    custom = config_from_dict({
        "method": "pgm",
        "refine": {"num_layers": 5, "use_upright_ratio": False},
        "overlay": {"reference_height_m": 2.0},
    })
    assert custom.method == "pgm"
    assert custom.refine.num_layers == 5
    assert custom.overlay.reference_height_m == 2.0
    assert config_from_yaml(config_to_yaml(custom)) == custom
    # Unspecified sections keep their defaults.
    assert custom.filters == FilterConfig()


def test_config_digest_is_stable_and_sensitive():
    cfg = ToolkitConfig()
    d = config_digest(cfg)
    assert len(d) == 64 and int(d, 16) >= 0
    assert config_digest(ToolkitConfig()) == d
    assert config_digest(config_from_dict({"method": "pgm"})) != d


def test_config_rejects_unknown_keys_and_bad_method():
    with pytest.raises(SchemaError, match="turbo"):
        config_from_dict({"turbo": True})
    with pytest.raises(SchemaError, match="refine"):
        config_from_dict({"refine": {"momentum": 0.9}})
    with pytest.raises(SchemaError) as err:
        config_from_dict({"method": "ransac"})
    for name in VALID_METHODS:
        assert name in str(err.value)


def test_config_empty_yaml_gives_defaults():
    assert config_from_yaml("") == ToolkitConfig()


def test_overlay_config_validation():
    with pytest.raises(ValueError):
        OverlayConfig(reference_height_m=0.0)


_NAMES = st.text(alphabet="abz019_- .:'\"#", min_size=1, max_size=6)
_POSITIVE = st.floats(min_value=1e-9, max_value=1e9)
_NONNEGATIVE = st.one_of(st.just(0.0), _POSITIVE)
_UPPER = st.one_of(_POSITIVE, st.just(math.inf))
_BOUNDS = st.tuples(_POSITIVE, _UPPER).filter(lambda b: b[0] < b[1])
_RANGE = st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)
                   ).map(lambda r: tuple(sorted(r)))  # low <= high


def _keyed(values, build=lambda name, value: value):
    return st.dictionaries(_NAMES, values, max_size=3).map(
        lambda d: tuple((k, build(k, d[k])) for k in sorted(d)))


_CONFIGS = st.builds(
    ToolkitConfig,
    method=st.sampled_from(VALID_METHODS),
    priors=_keyed(st.tuples(_POSITIVE, _POSITIVE),
                  lambda name, ms: HeightPrior(*ms)),
    canonical_heights=_keyed(_POSITIVE),
    cam_height_prior=st.builds(HeightPrior, _POSITIVE, _POSITIVE),
    refine=st.builds(
        RefinementConfig, num_layers=st.integers(0, 10),
        cam_height_bounds=_BOUNDS, object_height_bounds=_BOUNDS,
        use_upright_ratio=st.booleans()),
    filters=st.builds(FilterConfig, aspect_range=_keyed(_RANGE),
                      box_height_range=_RANGE,
                      require_keypoint_visibility=st.booleans()),
    overlay=st.builds(OverlayConfig, _POSITIVE))


@given(config=_CONFIGS)
@settings(deadline=None, max_examples=150)
def test_config_yaml_round_trip_of_any_config(config):
    text = config_to_yaml(config)
    assert config_from_yaml(text) == config
    assert config_to_yaml(config_from_yaml(text)) == text


def test_config_reads_numeric_strings_and_infinite_bounds():
    # YAML 1.1 reads 1e-3, without a dot, as a string.
    config = config_from_yaml(
        "refine: {object_height_bounds: [1e-3, 10],"
        " cam_height_bounds: [1, .inf]}\n"
        "filters: {aspect_range: {person: [1.2, .inf]}}\n")
    assert config.refine.object_height_bounds == (0.001, 10.0)
    assert config.refine.cam_height_bounds == (1.0, math.inf)
    assert type(config.refine.cam_height_bounds[0]) is float
    assert config.filters.aspect_range == (("person", (1.2, math.inf)),)


@pytest.mark.parametrize("raw, where", [
    ({"refine": {"cam_height_bounds": [math.nan, 1.0]}},
     "config.refine.cam_height_bounds[0]: expected a number"),
    ({"refine": {"cam_height_bounds": [0.1, "fast"]}},
     "config.refine.cam_height_bounds[1]: expected a number"),
    ({"refine": {"object_height_bounds": [True, 1.0]}},
     "config.refine.object_height_bounds[0]: expected a number"),
    ({"refine": {"object_height_bounds": [0.1, 10 ** 400]}},
     "config.refine.object_height_bounds[1]: expected a number"),
    ({"refine": {"num_layers": 2.0}},
     "config.refine.num_layers: expected an integer"),
    ({"refine": {"use_upright_ratio": 1}},
     "config.refine.use_upright_ratio: expected true or false"),
    ({"refine": {"prior_mode": "density"}},
     "config.refine: unknown keys ['prior_mode']"),
    ({"refine": {"cam_height_bounds": [1.0]}},
     "config.refine.cam_height_bounds: expected a list of 2"),
    ({"priors": {"person": {"mean_m": 1.7}}},
     "config.priors.person: missing required key 'sigma_m'"),
    ({"priors": {"person": {"category": "car", "mean_m": 1.7,
                            "sigma_m": 0.1}}},
     "config.priors.person: unknown keys ['category']"),
    ({"priors": {5: {"mean_m": 1.7, "sigma_m": 0.1}}},
     "config.priors: expected a string"),
    ({"filters": []}, "config.filters: expected a mapping"),
    ({"method": "ransac"}, "config: unknown method 'ransac'"),
])
def test_config_errors_name_the_path(raw, where):
    with pytest.raises(SchemaError) as info:
        config_from_dict(raw)
    assert str(info.value).startswith(where)


@pytest.mark.parametrize("build", [
    lambda: HeightPrior(math.nan, 0.1),
    lambda: HeightPrior(1.7, math.inf),
    lambda: HeightPrior(math.inf, 0.5),
    lambda: HeightPrior(1.6, math.nan),
    lambda: RefinementConfig(num_layers=-1),
    lambda: RefinementConfig(num_layers=1001),
    lambda: RefinementConfig(cam_height_bounds=(0.0, 1.0)),
    lambda: RefinementConfig(object_height_bounds=(2.0, math.nan)),
    lambda: OverlayConfig(reference_height_m=math.inf),
    lambda: ToolkitConfig(canonical_heights=(("person", -1.7),)),
    lambda: ToolkitConfig(canonical_heights=(("car", math.nan),)),
    lambda: ToolkitConfig(method="ransac"),
])
def test_config_sections_reject_values_out_of_their_domain(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("filters, message", [
    ({"box_height_range": [0.9, 0.1]},
     "config.filters: box_height_range: low 0.9 is above high 0.1"),
    ({"aspect_range": {"person": [1.2, 6.0], "car": [3.0, 0.5]}},
     "config.filters: aspect_range.car: low 3.0 is above high 0.5"),
])
def test_inverted_filter_ranges_are_rejected_naming_the_range(filters,
                                                              message):
    with pytest.raises(SchemaError) as info:
        config_from_dict({"filters": filters})
    assert str(info.value) == message
    # Empty ranges are a choice, not a mistake.
    config_from_dict({"filters": {"box_height_range": [0.3, 0.3],
                                  "aspect_range": {"car": [2.0, 2.0]}}})


# Whole-list reads of a results file against reading entry by entry.
_ENTRIES = st.one_of(st.none(), st.booleans(), st.integers(),
                     st.text(max_size=2), st.floats(),
                     st.lists(st.floats(), max_size=3))


@pytest.mark.parametrize("item", [
    float, int, float | None, tuple[float, float] | None, tuple[float, float]])
@given(raw=st.one_of(
    st.lists(_ENTRIES, max_size=6),
    st.lists(st.one_of(st.none(), st.floats()), max_size=6),
    st.lists(st.one_of(st.none(), st.lists(st.floats(), min_size=2,
                                           max_size=2)), max_size=6)))
@settings(deadline=None, max_examples=200)
def test_whole_list_reads_as_entry_by_entry(item, raw):
    whole = documents._whole_list(raw, item)
    try:
        one_by_one = tuple(documents._from_plain(v, item, "x") for v in raw)
    except SchemaError:
        assert whole is None
        return
    assert whole is None or whole == one_by_one
    if whole is not None:
        assert list(map(type, whole)) == list(map(type, one_by_one))


def _results_raw() -> dict:
    doc = _parse(_raw_doc())
    est = solve_scene(doc.calibration.horizon_v0(), doc.calibration.fov_rad,
                      doc.detections)
    return json.loads(emit_results(est, source_indices=[0, 1]))


def _to_schema_2(raw: dict) -> dict:
    """`raw`, results of `_raw_doc()`'s boxes, changed in place to schema
    2: `tops` gives way to each top with its detected bottom (`spans`) and
    the detected minus the reprojected top (`residuals`)."""
    boxes = _parse(_raw_doc()).detections
    est_raw = raw["estimate"]
    tops = est_raw.pop("tops")
    est_raw["spans"] = [None if t is None else [t, b]
                        for t, b in zip(tops, boxes.v_bottom.tolist())]
    est_raw["residuals"] = [None if t is None else v - t
                            for t, v in zip(tops, boxes.v_top.tolist())]
    raw["schema_version"] = 2
    return raw


def test_parse_results_reads_gaps_and_integers():
    raw = _results_raw()
    est_raw = raw["estimate"]
    est_raw["tops"][1] = None
    est_raw["heights_m"][0] = 2
    legacy = _to_schema_2(json.loads(json.dumps(raw)))
    legacy["estimate"]["residuals"][0] = None
    for res in map(parse_results, map(json.dumps, (raw, legacy))):
        est = res.estimate
        assert est.tops == (est_raw["tops"][0], None)
        assert est.heights_m[0] == 2.0
        assert type(est.heights_m[0]) is float


@pytest.mark.parametrize("change, where", [
    (lambda r: r["estimate"].update(cam_height_m="a"),
     "results.estimate.cam_height_m: expected a number"),
    (lambda r: r["estimate"].update(converged=1),
     "results.estimate.converged: expected true or false"),
    (lambda r: r["estimate"]["trace"][0].update(layer=0.0),
     "results.estimate.trace[0].layer: expected an integer"),
    (lambda r: _to_schema_2(r)["estimate"]["spans"].__setitem__(1, [0.5]),
     "results.estimate.spans[1]: expected a list of 2"),
    (lambda r: _to_schema_2(r)["estimate"]["residuals"].__setitem__(0, "a"),
     "results.estimate.residuals[0]: expected a number"),
    (lambda r: r["estimate"]["tops"].__setitem__(0, [0.5]),
     "results.estimate.tops[0]: expected a number"),
    (lambda r: r["estimate"]["trace"][0].update(spans=[]),
     "results.estimate.trace[0]: unknown keys ['spans']"),
    (lambda r: r["estimate"]["tops"].pop(),
     "results.estimate: tops and heights_m differ in length (1 != 2)"),
    (lambda r: _to_schema_2(r)["estimate"]["residuals"].append(0.0),
     "results.estimate: residuals and spans differ in length (3 != 2)"),
    (lambda r: _to_schema_2(r)["estimate"]["spans"].pop(),
     "results.estimate: residuals and spans differ in length (2 != 1)"),
    (lambda r: _to_schema_2(r)["estimate"].pop("residuals"),
     "results.estimate: missing required key 'residuals'"),
    (lambda r: r["estimate"].update(spans=[]),
     "estimate: unknown keys ['spans']"),
    (lambda r: _to_schema_2(r)["estimate"].update(tops=[]),
     "estimate: unknown keys ['tops']"),
    (lambda r: r["estimate"]["upright_heights_m"].pop(),
     "results.estimate: upright_heights_m and heights_m differ in length "
     "(1 != 2)"),
    (lambda r: r["estimate"]["upright_ratios"].append(1.0),
     "results.estimate: upright_ratios and heights_m differ in length "
     "(3 != 2)"),
    (lambda r: r["estimate"].update(excluded=[[99, "zero-span"]]),
     "results.estimate: excluded index 99 is not one of the 2 boxes"),
    (lambda r: r["estimate"].update(excluded=[[-1, "zero-span"]]),
     "results.estimate: excluded index -1 is not one of the 2 boxes"),
    (lambda r: r.update(schema_version=4),
     "unsupported results schema_version 4"),
    (lambda r: r.update(schema_version=True),
     "unsupported results schema_version True"),
    (lambda r: r.update(schema_version=1.0),
     "unsupported results schema_version 1.0"),
    (lambda r: r.update(schema_version=2.0),
     "unsupported results schema_version 2.0"),
    (lambda r: r["estimate"]["heights_m"].__setitem__(1, math.nan),
     "results.estimate.heights_m[1]: expected a number"),
    (lambda r: r["estimate"].update(excluded=[[0, 5]]),
     "results.estimate.excluded[0][1]: expected a string"),
    (lambda r: r["estimate"].update(method="cascade"),
     "estimate: unknown keys ['method']"),
    (lambda r: r.update(source_indices=[0, True]),
     "results.source_indices[1]: expected an integer"),
    (lambda r: r.update(config_hash=None),
     "results.config_hash: expected a string"),
    (lambda r: r.update(method=5), "results.method: expected a string"),
])
def test_parse_results_errors_name_the_path(change, where):
    raw = _results_raw()
    change(raw)
    with pytest.raises(SchemaError) as info:
        parse_results(json.dumps(raw))
    assert str(info.value).startswith(where)


# ---------------------------------------------------------------------------
# Results of schema 1, whose every layer carried its per-box rows, and of
# schema 2, whose estimate carried the final spans and residuals.

@pytest.mark.parametrize("name", sorted(
    p.name for p in _FIXTURES.glob("*.results.json")))
def test_every_results_version_emits_as_its_schema_3_file(name):
    # The files of a stem were written by the same solve, so every number
    # that schema 3 keeps has the same bits in each.  A schema 1 file
    # keeps the config hash of the build that wrote it; the others hold
    # today's.
    stem = re.sub(r"(\.v\d)?\.results\.json$", "", name)
    current = (_FIXTURES / f"{stem}.results.json").read_bytes()
    pinned = parse_results(current)
    res = parse_results((_FIXTURES / name).read_bytes())
    assert res.estimate == pinned.estimate
    assert emit_results(
        res.estimate, config_hash=pinned.config_hash,
        source_indices=res.source_indices).encode() == current


@pytest.mark.parametrize("change, where", [
    (lambda r: r["estimate"]["trace"][0]["spans"].__setitem__(1, [0.5]),
     "results.estimate.trace[0].spans[1]: expected a list of 2"),
    (lambda r: r["estimate"]["trace"][1]["residuals"].__setitem__(0, "a"),
     "results.estimate.trace[1].residuals[0]: expected a number"),
    (lambda r: r["estimate"]["trace"][2]["heights_m"].__setitem__(0, None),
     "results.estimate.trace[2].heights_m[0]: expected a number"),
    (lambda r: r["estimate"]["trace"][2].pop("spans"),
     "results.estimate.trace[2]: missing required key 'spans'"),
    (lambda r: r["estimate"]["trace"][-1]["spans"].pop(),
     "results.estimate: residuals and spans differ in length (4 != 3)"),
    (lambda r: [r["estimate"]["trace"][-1][key].pop()
                for key in ("spans", "residuals")],
     "results.estimate: tops and heights_m differ in length (3 != 4)"),
    (lambda r: r["estimate"].update(spans=[]),
     "estimate: unknown keys ['spans']"),
    (lambda r: r["estimate"].update(trace=[]),
     "results.estimate: trace must hold at least one layer"),
    (lambda r: r["estimate"].update(trace={}),
     "results.estimate.trace: expected a list"),
    (lambda r: r["estimate"].pop("trace"),
     "estimate: missing required key 'trace'"),
])
def test_parse_schema_1_results_checks_every_layer(change, where):
    raw = json.loads((_FIXTURES / "scene_0000.v1.results.json").read_text())
    assert raw["schema_version"] == 1
    change(raw)
    with pytest.raises(SchemaError) as info:
        parse_results(json.dumps(raw))
    assert str(info.value).startswith(where)
