"""Document schema, filtering, config, and convention-flip tests.

Serialization is canonical: key-sorted, two-space-indented JSON with a
trailing newline, so emit(parse(emit(x))) is byte-stable and documents
diff cleanly under version control.
"""

import copy
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from scenescale.documents import (CalibrationInput, DetectionDocument,
                                  FilterConfig, OverlayConfig, SchemaError,
                                  ToolkitConfig, VALID_METHODS, canonical_json,
                                  config_digest, config_from_dict,
                                  config_from_yaml, config_to_dict,
                                  config_to_yaml, emit_document, emit_results,
                                  filter_detections, flip_vertical_convention,
                                  parse_document, parse_results)
from scenescale.metrics import GroundTruth
from scenescale.priors import COCO_KEYPOINT_NAMES, KeypointSet
from scenescale.solver import DetectionBox, solve_scene


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
    assert again.detections[0].keypoints == doc.detections[0].keypoints
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
# Vertical-convention flip.

def test_flip_maps_coordinates_and_pitch():
    raw = _raw_doc()
    raw["calibration"] = {"fov_rad": 1.0, "pitch_rad": 0.2}
    doc = _parse(raw)
    flipped = flip_vertical_convention(doc)
    assert flipped.calibration.pitch_rad == -0.2
    assert flipped.calibration.principal_v == 0.5
    box, orig = flipped.detections[0], doc.detections[0]
    assert box.v_top == pytest.approx(1.0 - orig.v_bottom, abs=1e-15)
    assert box.v_bottom == pytest.approx(1.0 - orig.v_top, abs=1e-15)
    assert (box.u_left, box.u_right) == (orig.u_left, orig.u_right)


def test_flip_is_involution():
    raw = _raw_doc()
    raw["detections"][0]["keypoints"] = _kps(
        {"nose": (0.45, 0.57), "left_ankle": (0.46, 0.81)})
    doc = _parse(raw)
    twice = flip_vertical_convention(flip_vertical_convention(doc))
    assert twice.calibration.v0 == pytest.approx(doc.calibration.v0, abs=1e-15)
    for a, b in zip(twice.detections, doc.detections):
        assert a.v_top == pytest.approx(b.v_top, abs=1e-15)
        assert a.v_bottom == pytest.approx(b.v_bottom, abs=1e-15)
        assert a.category == b.category
    kp_a = twice.detections[0].keypoints.points
    kp_b = doc.detections[0].keypoints.points
    for (ua, va, sa), (ub, vb, sb) in zip(kp_a, kp_b):
        assert (ua, sa) == (ub, sb)
        assert va == pytest.approx(vb, abs=1e-15)
    # Invisible keypoints carry no coordinate and must not be remapped.
    assert kp_a[1] == kp_b[1] == (0.0, 0.0, 0.0)


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
    assert [(r.index, r.reason) for r in result.rejected] == [
        (1, "amodal"), (2, "aspect"), (3, "box-height"), (4, "above-horizon")]
    assert len(result.kept) + len(result.rejected) == 6
    assert result.kept[1].category == "car"


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
    assert strict.rejected[0].reason == "amodal"
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
        "refine": {"num_layers": 5, "prior_weight": 0.25},
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
