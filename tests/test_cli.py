"""End-to-end command line tests, run in-process against cli.main."""

import dataclasses
import json
import math
import os
import stat
from pathlib import Path

import pytest
import yaml

from scenescale import baselines, cli, documents, solver
from scenescale.documents import (ToolkitConfig, VALID_METHODS,
                                  config_digest, config_from_yaml,
                                  emit_results, filter_detections,
                                  parse_document, parse_results)
from scenescale.priors import COCO_KEYPOINT_NAMES

_FIXTURES = Path(__file__).parent / "fixtures"


def _read_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def _synth(tmp_path, name, extra=()):
    out = tmp_path / name
    # Depth is capped so every detection clears the box-height filter.
    rc = cli.main(["synth", "--out", str(out), "--scenes", "2",
                   "--objects", "3", "--seed", "42", "--depth-max", "15",
                   *extra])
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# Happy path.

def test_synth_solve_eval_overlay_pipeline(tmp_path, capsys):
    data = _synth(tmp_path, "data")
    assert sorted(p.name for p in data.iterdir()) == [
        "scene_0000.json", "scene_0001.json"]

    assert cli.main(["solve", str(data)]) == 0
    results = sorted(data.glob("*.results.json"))
    assert [p.name for p in results] == [
        "scene_0000.results.json", "scene_0001.results.json"]
    res = parse_results(results[0].read_bytes())
    assert res.estimate.method == "cascade"
    assert res.estimate.cam_height_m > 0

    report_path = tmp_path / "report.json"
    curve_path = tmp_path / "curve.csv"
    assert cli.main(["eval", "--results", str(data), "--out", str(report_path),
                     "--curve", str(curve_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["n_scenes"] == 2
    assert report["e_cam"]["mean"] >= 0.0
    assert len(report["per_scene"]) == 2
    curve = curve_path.read_text().splitlines()
    assert curve[0] == "threshold_m,fraction"
    assert len(curve) == 5

    svg_path = tmp_path / "scene.svg"
    assert cli.main(["overlay", str(data / "scene_0000.json"),
                     str(results[0]), "--out", str(svg_path)]) == 0
    assert svg_path.read_text().startswith("<svg ")
    capsys.readouterr()


def test_eval_to_stdout(tmp_path, capsys):
    data = _synth(tmp_path, "data")
    assert cli.main(["solve", str(data)]) == 0
    capsys.readouterr()
    assert cli.main(["eval", "--results", str(data)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_scenes"] == 2


# ---------------------------------------------------------------------------
# Determinism.

def test_synth_and_solve_are_byte_deterministic(tmp_path, capsys):
    a = _synth(tmp_path, "a")
    b = _synth(tmp_path, "b")
    assert _read_tree(a) == _read_tree(b)
    assert cli.main(["solve", str(a)]) == 0
    assert cli.main(["solve", str(b)]) == 0
    assert _read_tree(a) == _read_tree(b)
    # Re-solving in place reproduces the same bytes.
    before = _read_tree(a)
    assert cli.main(["solve", str(a)]) == 0
    assert _read_tree(a) == before
    capsys.readouterr()


def test_parallel_solve_matches_serial(tmp_path, capsys):
    a = _synth(tmp_path, "a", extra=["--box-noise", "0.002"])
    b = _synth(tmp_path, "b", extra=["--box-noise", "0.002"])
    assert cli.main(["solve", str(a), "--jobs", "1"]) == 0
    assert cli.main(["solve", str(b), "--jobs", "2"]) == 0
    assert _read_tree(a) == _read_tree(b)
    capsys.readouterr()


@pytest.mark.parametrize("jobs, sizes", [("64", [2]), ("2", [2]), ("1", [])])
def test_the_pool_never_outnumbers_the_inputs(tmp_path, capsys, monkeypatch,
                                              jobs, sizes):
    # A fork-started pool forks all its workers at the first submit; a
    # stand-in records the size asked for and maps in this process.
    data = _synth(tmp_path, "data")
    asked = []

    class Pool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", Pool)
    assert cli.main(["solve", str(data), "--jobs", jobs]) == 0
    assert asked == sizes
    assert len(list(data.glob("*.results.json"))) == 2
    capsys.readouterr()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_an_input_error(tmp_path, capsys, jobs):
    data = _synth(tmp_path, "data")
    assert cli.main(["solve", str(data), "--jobs", jobs]) == 1
    assert "--jobs must be >= 1" in capsys.readouterr().err
    assert not list(data.glob("*.results.json"))


def test_one_out_file_for_several_inputs_is_an_input_error(tmp_path, capsys):
    data = _synth(tmp_path, "data")
    out = tmp_path / "r.json"
    inputs = [str(data / "scene_0000.json"), str(data / "scene_0001.json")]
    for argv in (inputs, [str(data)]):
        assert cli.main(["solve", *argv, "--out", str(out)]) == 1
        assert (f"{inputs[0]} and {inputs[1]} would both write "
                f"{out.resolve()}" in capsys.readouterr().err)
        assert not out.exists()
    # Two inputs of one file stem share one result path in a directory.
    same = [tmp_path / "a" / "x.json", tmp_path / "b" / "x.json"]
    for path, source in zip(same, inputs):
        path.parent.mkdir()
        path.write_bytes(Path(source).read_bytes())
    out_dir = tmp_path / "out"
    assert cli.main(["solve", *map(str, same), "--out", str(out_dir)]) == 1
    assert (f"{same[0]} and {same[1]} would both write "
            f"{(out_dir / 'x.results.json').resolve()}"
            in capsys.readouterr().err)
    assert not out_dir.exists()
    assert cli.main(["solve", inputs[1], "--out", str(out)]) == 0
    assert parse_results(out.read_bytes()).source_indices == (0, 1, 2)
    assert cli.main(["solve", *inputs, "--out", str(tmp_path / "dir")]) == 0
    assert len(list((tmp_path / "dir").glob("*.results.json"))) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# Method selection and config.

def test_method_flag_switches_estimator(tmp_path, capsys):
    data = _synth(tmp_path, "data")
    single = data / "scene_0000.json"
    out = tmp_path / "fixed.results.json"
    assert cli.main(["solve", str(single), "--method", "pgm-fixed",
                     "--out", str(out)]) == 0
    assert parse_results(out.read_bytes()).estimate.method == "pgm-fixed"
    capsys.readouterr()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_outputs_are_created_under_the_umask(tmp_path, capsys, umask, mode):
    data = _synth(tmp_path, "data")
    out_dir = tmp_path / "out"
    previous = os.umask(umask)
    try:
        assert cli.main(["solve", str(data / "scene_0000.json"),
                         "--out", str(out_dir / "scene.results.json")]) == 0
    finally:
        os.umask(previous)
    written = out_dir / "scene.results.json"
    assert stat.S_IMODE(written.stat().st_mode) == mode
    assert [p.name for p in out_dir.iterdir()] == [written.name]
    capsys.readouterr()


@pytest.mark.parametrize("method", ["pgm", "pgm-fixed"])
def test_baseline_fixture_resolves_byte_identically(tmp_path, capsys, method):
    # The committed results were produced by `solve --method METHOD`.
    doc = tmp_path / "scene_0000.json"
    doc.write_bytes((_FIXTURES / "scene_0000.json").read_bytes())
    out = tmp_path / "out.json"
    assert cli.main(["solve", str(doc), "--method", method,
                     "--out", str(out)]) == 0
    pinned = _FIXTURES / f"scene_0000.{method}.results.json"
    assert out.read_bytes() == pinned.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("method", VALID_METHODS)
def test_skeleton_fixture_resolves_byte_identically(tmp_path, capsys, method):
    # The committed results pin the posture ratios of crouched, standing,
    # kneeless and one-legged skeletons to the bit
    # (`tools/skeleton_fixture.py` writes the document).
    doc = tmp_path / "skeletons.json"
    doc.write_bytes((_FIXTURES / "skeletons.json").read_bytes())
    out = tmp_path / "out.json"
    assert cli.main(["solve", str(doc), "--method", method,
                     "--out", str(out)]) == 0
    assert "1 filtered out" in capsys.readouterr().err
    suffix = "" if method == "cascade" else f".{method}"
    pinned = _FIXTURES / f"skeletons{suffix}.results.json"
    assert out.read_bytes() == pinned.read_bytes()


def test_cascade_scores_a_skeleton_of_zero_length_as_upright(tmp_path,
                                                             capsys):
    # Every keypoint of the second person on one visible spot: the chain
    # has length 0, so the skeleton cannot be scored and reads 1.0, as a
    # skeleton with missing joints does, instead of failing the solve.
    payload = {
        "schema_version": 1,
        "image": {"width_px": 640, "height_px": 480},
        "calibration": {"fov_rad": 1.0, "v0": 0.4},
        "detections": [
            {"category": "person",
             "box": {"u_left": 0.2, "u_right": 0.3, "v_top": 0.5,
                     "v_bottom": 0.8}},
            {"category": "person",
             "box": {"u_left": 0.5, "u_right": 0.58, "v_top": 0.48,
                     "v_bottom": 0.7},
             "keypoints": [[0.3, 0.6, 2.0]] * 17},
        ],
    }
    doc = tmp_path / "collapsed.json"
    doc.write_text(json.dumps(payload))
    out = tmp_path / "collapsed.results.json"
    assert cli.main(["solve", str(doc), "--method", "cascade",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    estimate = json.loads(out.read_text())["estimate"]
    assert estimate["upright_ratios"] == [1.0, 1.0]


@pytest.mark.parametrize("method", ["cascade", "pgm", "pgm-fixed"])
def test_category_without_height_prior_fails_every_method(tmp_path, capsys,
                                                          method):
    # `bike` has a canonical height but no prior: every method refuses the
    # document with the same reason instead of writing a partial answer.
    payload = json.loads((_FIXTURES / "scene_0000.json").read_text())
    for det in payload["detections"]:
        det["category"] = "bike"
    doc = tmp_path / "bikes.json"
    doc.write_text(json.dumps(payload))
    config = tmp_path / "config.yaml"
    config.write_text("canonical_heights:\n  bike: 1.1\n  person: 1.7\n")
    capsys.readouterr()
    rc = cli.main(["solve", str(doc), "--method", method,
                   "--config", str(config)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "no height prior for category 'bike'" in err
    assert not (tmp_path / "bikes.results.json").exists()


@pytest.mark.parametrize("method", ["cascade", "pgm", "pgm-fixed"])
def test_every_method_refuses_bottoms_behind_the_camera(tmp_path, capsys,
                                                        method):
    # A horizon far above the image tilts the camera almost straight
    # down: every bottom ray meets the ground behind the camera, under
    # the linear model of the baselines as under the cascade's.
    payload = json.loads((_FIXTURES / "scene_0000.json").read_text())
    payload["calibration"] = {"fov_rad": payload["calibration"]["fov_rad"],
                              "v0": -50.0}
    doc = tmp_path / "steep.json"
    doc.write_text(json.dumps(payload))
    capsys.readouterr()
    rc = cli.main(["solve", str(doc), "--method", method])
    err = capsys.readouterr().err
    assert rc == 1
    n = len(payload["detections"])
    assert f"no usable detections: {n} bottom-behind-camera" in err
    assert not (tmp_path / "steep.results.json").exists()


def test_unknown_method_lists_valid_ones(tmp_path, capsys):
    data = _synth(tmp_path, "data")
    capsys.readouterr()
    rc = cli.main(["solve", str(data), "--method", "ransac"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "ransac" in err
    for name in ("cascade", "pgm", "pgm-fixed"):
        assert name in err


def test_print_config_is_valid_yaml(capsys):
    assert cli.main(["solve", "--print-config", "--method", "pgm"]) == 0
    parsed = yaml.safe_load(capsys.readouterr().out)
    assert parsed["method"] == "pgm"
    assert parsed["refine"]["num_layers"] == 3


def test_config_file_round_trip(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text("method: pgm-fixed\nrefine:\n  num_layers: 2\n")
    assert cli.main(["solve", "--config", str(cfg_path),
                     "--print-config"]) == 0
    parsed = yaml.safe_load(capsys.readouterr().out)
    assert parsed["method"] == "pgm-fixed"
    assert parsed["refine"]["num_layers"] == 2


# A config that sets every section, its printout and its digest.
_EVERY_SECTION = """\
method: pgm-fixed
priors:
  person: {mean_m: 1.75, sigma_m: 0.1}
  bike: {mean_m: 1.1, sigma_m: 0.2}
canonical_heights: {person: 1.72, bike: 1}
cam_height_prior: {mean_m: 2, sigma_m: 0.75}
refine:
  num_layers: 2
  cam_height_bounds: [0.2, 40]
  object_height_bounds: [0.3, 5.5]
  use_upright_ratio: false
filters:
  aspect_range: {}
  box_height_range: [0.02, 0.9]
  require_keypoint_visibility: false
overlay: {reference_height_m: 1.5}
"""
_EVERY_SECTION_PRINTED = """\
cam_height_prior:
  mean_m: 2.0
  sigma_m: 0.75
canonical_heights:
  bike: 1.0
  person: 1.72
filters:
  aspect_range: {}
  box_height_range:
  - 0.02
  - 0.9
  require_keypoint_visibility: false
method: pgm-fixed
overlay:
  reference_height_m: 1.5
priors:
  bike:
    mean_m: 1.1
    sigma_m: 0.2
  person:
    mean_m: 1.75
    sigma_m: 0.1
refine:
  cam_height_bounds:
  - 0.2
  - 40.0
  num_layers: 2
  object_height_bounds:
  - 0.3
  - 5.5
  use_upright_ratio: false
"""


def test_print_config_of_every_section_is_pinned(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(_EVERY_SECTION)
    capsys.readouterr()
    assert cli.main(["solve", "--config", str(cfg_path),
                     "--print-config"]) == 0
    assert capsys.readouterr().out == _EVERY_SECTION_PRINTED
    assert config_digest(config_from_yaml(_EVERY_SECTION)) == (
        "8fd7eca7f6523640892d03924b30b4343736c78bd2467130bd232150ebf6412f")
    assert config_digest(ToolkitConfig()) == (
        "c1a5f864896cdf8e6c6a26222bcf4897a3d1de3910aace61be54005f0f407c56")


@pytest.mark.parametrize("text, where", [
    ("refine: 5", "config.refine: expected a mapping"),
    ("refine: [1]", "config.refine: expected a mapping"),
    ("canonical_heights: {person: [1]}",
     "config.canonical_heights.person: expected a number"),
    ("cam_height_prior: {mean_m: [1]}",
     "config.cam_height_prior.mean_m: expected a number"),
    ("overlay: {reference_height_m: null}",
     "config.overlay.reference_height_m: expected a number"),
    ("filters: {box_height_range: [[1], [2]]}",
     "config.filters.box_height_range[0]: expected a number"),
    ("priors: {person: {mean_m: [1], sigma_m: 1}}",
     "config.priors.person.mean_m: expected a number"),
    ("refine: {num_layers: 2.7}",
     "config.refine.num_layers: expected an integer, got 2.7"),
    ("refine: {use_upright_ratio: 'no'}",
     "config.refine.use_upright_ratio: expected true or false"),
    ("priors: {person: {mean_m: .nan, sigma_m: 0.09}}",
     "config.priors.person.mean_m: expected a number, got nan"),
    ("canonical_heights: {person: -1.7, car: 1.59}",
     "config: canonical height of 'person' must be positive"),
    ("refine: {damping: 1e-3}", "config.refine: unknown keys ['damping']"),
    ("refine: {prior_mode: density}",
     "config.refine: unknown keys ['prior_mode']"),
    ("refine: {num_layers: -1}",
     "config.refine: num_layers must lie in [0, 1000], got -1"),
    ("refine: {num_layers: 100000000}",
     "config.refine: num_layers must lie in [0, 1000], got 100000000"),
    ("cam_height_prior: {sigma_m: .inf}",
     "config.cam_height_prior: prior mean and sigma must be positive"),
    ("refine: {1: 2, foo: 3}", "config.refine: unknown keys [1, 'foo']"),
    ("filters: {box_height_range: [0.9, 0.1]}",
     "config.filters: box_height_range: low 0.9 is above high 0.1"),
])
def test_malformed_config_exits_one_naming_the_path(tmp_path, capsys, text,
                                                    where):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(text + "\n")
    capsys.readouterr()
    rc = cli.main(["solve", "--config", str(cfg_path), "--print-config"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert f"error: {where}" in captured.err


def _set_item(*path_and_value):
    *path, key, value = path_and_value

    def change(raw):
        node = raw
        for step in path:
            node = node[step]
        node[key] = value
    return change


def _in_schema_2(change):
    """`change` applied to the fixture's results in their schema 2 form."""
    def in_schema_2(raw):
        raw.clear()
        raw.update(json.loads(
            (_FIXTURES / "scene_0000.v2.results.json").read_text()))
        change(raw)
    return in_schema_2


@pytest.mark.parametrize("command", ["eval", "overlay"])
@pytest.mark.parametrize("change, where", [
    (_set_item("estimate", "cam_height_m", "a"),
     "results.estimate.cam_height_m: expected a number"),
    (_set_item("estimate", "cam_height_m", None),
     "results.estimate.cam_height_m: expected a number"),
    (_set_item("estimate", "heights_m", "abc"),
     "results.estimate.heights_m: expected a list"),
    (_in_schema_2(_set_item("estimate", "residuals", "abc")),
     "results.estimate.residuals: expected a list"),
    (_set_item("estimate", "tops", "abc"),
     "results.estimate.tops: expected a list"),
    (_set_item("source_indices", ["a", "b", "c", "d"]),
     "results.source_indices[0]: expected an integer"),
    (_set_item("source_indices", 5),
     "results.source_indices: expected a list"),
    (_set_item("estimate", "trace", []),
     "results.estimate: trace must hold at least one layer"),
], ids=["cam-str", "cam-null", "heights-str", "residuals-str", "tops-str",
        "indices-str", "indices-int", "trace-empty"])
def test_malformed_results_exit_one_naming_the_path(tmp_path, capsys,
                                                    command, change, where):
    raw = json.loads((_FIXTURES / "scene_0000.results.json").read_text())
    change(raw)
    bad = tmp_path / "scene_0000.results.json"
    bad.write_text(json.dumps(raw))
    doc = str(_FIXTURES / "scene_0000.json")
    argv = {"eval": ["eval", "--results", str(bad), "--truth",
                     str(_FIXTURES)],
            "overlay": ["overlay", doc, str(bad), "--out",
                        str(tmp_path / "out.svg")]}[command]
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert f"error: {where}" in capsys.readouterr().err


def test_overlay_with_a_source_index_out_of_range_exits_one(tmp_path, capsys):
    raw = json.loads((_FIXTURES / "scene_0000.results.json").read_text())
    raw["source_indices"][0] = 99
    bad = tmp_path / "scene_0000.results.json"
    bad.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["overlay", str(_FIXTURES / "scene_0000.json"), str(bad),
                     "--out", str(tmp_path / "out.svg")]) == 1
    assert "error: source indices out of range" in capsys.readouterr().err


@pytest.mark.parametrize("change, where", [
    (_in_schema_2(_set_item("estimate", "spans", [[0.4, 0.6]])),
     "results.estimate: residuals and spans differ in length (4 != 1)"),
    (_set_item("estimate", "tops", [0.4]),
     "results.estimate: tops and heights_m differ in length (1 != 4)"),
    (_set_item("estimate", "excluded", [[99, "zero-span"]]),
     "results.estimate: excluded index 99 is not one of the 4 boxes"),
], ids=["one-span-row", "one-top", "excluded-index-99"])
def test_overlay_of_results_that_do_not_match_their_boxes_exits_one(
        tmp_path, capsys, change, where):
    raw = json.loads((_FIXTURES / "scene_0000.results.json").read_text())
    change(raw)
    bad = tmp_path / "scene_0000.results.json"
    bad.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["overlay", str(_FIXTURES / "scene_0000.json"), str(bad),
                     "--out", str(tmp_path / "out.svg")]) == 1
    assert f"error: {where}" in capsys.readouterr().err
    assert not (tmp_path / "out.svg").exists()


# ---------------------------------------------------------------------------
# Error handling.

def test_usage_errors_exit_one(capsys):
    assert cli.main([]) == 1
    assert cli.main(["solve"]) == 1
    assert cli.main(["frobnicate"]) == 1
    capsys.readouterr()


def test_main_calls_in_a_row_share_no_option_values(tmp_path, capsys):
    # The parser is built once per process, and each call parses its own
    # arguments: no value of one call, nor its subcommand, reaches the next.
    assert cli._build_parser() is cli._build_parser()
    assert cli.main(["solve", "--method", "pgm", "--print-config"]) == 0
    assert "method: pgm" in capsys.readouterr().out
    assert cli.main(["solve", "--print-config"]) == 0
    assert "method: cascade" in capsys.readouterr().out
    doc = tmp_path / "scene_0000.json"
    doc.write_bytes((_FIXTURES / "scene_0000.json").read_bytes())
    assert cli.main(["solve", str(doc), "--jobs", "0"]) == 1
    assert "--jobs must be >= 1" in capsys.readouterr().err
    assert cli.main(["solve", str(doc), "--jobs", "2"]) == 0
    assert cli.main(["solve", str(doc)]) == 0
    results = str(tmp_path / "scene_0000.results.json")
    capsys.readouterr()
    assert cli.main(["eval", "--results", results, "--upright"]) == 0
    assert json.loads(capsys.readouterr().out)["compare_upright"] is True
    assert cli.main(["eval", "--results", results]) == 0
    assert json.loads(capsys.readouterr().out)["compare_upright"] is False


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert cli.main(["solve", "--help"]) == 0
    capsys.readouterr()


def test_missing_input_exits_one(tmp_path, capsys):
    rc = cli.main(["solve", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("depth_min", ["-5", "0"])
def test_synth_rejects_a_depth_range_not_above_zero(tmp_path, capsys,
                                                   depth_min):
    out = tmp_path / "out"
    rc = cli.main(["synth", "--out", str(out), "--scenes", "1",
                   "--depth-min", depth_min])
    err = capsys.readouterr().err
    assert rc == 1
    assert "depth_m" in err
    assert not out.exists()


def test_malformed_document_reported_per_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = cli.main(["solve", str(bad)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "bad.json" in err
    assert "1 of 1 documents failed" in err


@pytest.mark.parametrize("path, value", [
    (("detections", 0, "box"), None),
    (("image",), None),
    (("ground_truth",), None),
    (("detections", 0, "box", "v_top"), 10 ** 400),
], ids=["null-box", "null-image", "null-ground-truth", "huge-int-coordinate"])
def test_malformed_values_exit_one_naming_the_fault(tmp_path, capsys, path,
                                                    value):
    payload = json.loads((_FIXTURES / "scene_0000.json").read_text())
    *parents, last = path
    node = payload
    for key in parents:
        node = node[key]
    node[last] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    capsys.readouterr()
    rc = cli.main(["solve", str(bad)])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"bad.json: {path[0]}" in err
    assert "internal error" not in err


@pytest.mark.parametrize("command", ["solve", "solve-jobs2", "eval",
                                     "overlay", "config"])
def test_deeply_nested_input_exits_one(tmp_path, capsys, command):
    # Past the parsers' recursion limit, JSON and YAML both raise
    # RecursionError, which must read as an input error.
    deep = tmp_path / "scene_0000.json"
    deep.write_text("[" * 100_000)
    deep_results = tmp_path / "scene_0000.results.json"
    deep_results.write_text("[" * 100_000)
    config = tmp_path / "config.yaml"
    config.write_text("[" * 5_000)
    good = tmp_path / "good" / "scene_0000.json"
    good.parent.mkdir()
    good.write_bytes((_FIXTURES / "scene_0000.json").read_bytes())
    argv = {
        "solve": ["solve", str(deep), "--jobs", "1"],
        "solve-jobs2": ["solve", str(deep), str(good), "--jobs", "2"],
        "eval": ["eval", "--results", str(deep_results), "--truth",
                 str(_FIXTURES)],
        "overlay": ["overlay", str(deep),
                    str(_FIXTURES / "scene_0000.results.json"),
                    "--out", str(tmp_path / "out.svg")],
        "config": ["solve", "--config", str(config), "--print-config"],
    }[command]
    capsys.readouterr()
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert "nesting too deep" in captured.err
    assert "internal error" not in captured.err
    assert captured.out == ""
    if command == "solve-jobs2":
        assert "1 of 2 documents failed" in captured.err
        assert (good.parent / "scene_0000.results.json").exists()


# A steep, very wide view (fov 163 deg, pitch -21 deg).  The linear
# model's camera height with every object at its prior mean puts a top
# behind the camera plane here; the closed-form start puts the usable
# box's top on its detected top.
_STEEP_WIDE = {
    "schema_version": 1, "image": {"width_px": 640, "height_px": 480},
    "calibration": {"fov_rad": 2.8503094815440826,
                    "pitch_rad": -0.3703876717673018, "principal_v": 0.5},
    "detections": [
        {"category": "car",
         "box": {"u_left": 0.6038566635902963, "u_right": 1.2943946805785584,
                 "v_top": 0.10818828726609553,
                 "v_bottom": 0.5528609508374057},
         "weight": 1.0},
        {"category": "car",
         "box": {"u_left": 0.08819603179358793,
                 "u_right": 0.44169558945851783,
                 "v_top": 1.0716167859549675, "v_bottom": 1.5902661283173698},
         "weight": 0.385740091654174}]}


def test_cascade_solves_a_document_the_old_start_refused(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(_STEEP_WIDE))
    out = tmp_path / "doc.results.json"
    blobs = []
    for _ in range(2):
        assert cli.main(["solve", str(doc)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    est = json.loads(blobs[0])["estimate"]
    assert est["cam_height_m"] == pytest.approx(0.777033, abs=1e-6)
    assert est["excluded"] == [[1, "bottom-behind-camera"]]


def test_cascade_start_of_a_document_the_old_start_refused_is_exact():
    doc = parse_document(json.dumps(_STEEP_WIDE))
    est = solver.solve_scene(doc.calibration.horizon_v0(),
                             doc.calibration.fov_rad, doc.detections,
                             principal_v=doc.calibration.principal_v)
    start = est.trace[0]
    assert all(map(math.isfinite, [start.total_loss, est.cam_height_m,
                                   *est.heights_m]))
    assert start.l_vt <= 1e-12
    assert est.heights_m[0] == pytest.approx(1.59, rel=1e-12)


def test_eval_without_ground_truth_fails(tmp_path, capsys):
    data = _synth(tmp_path, "data")
    single = data / "scene_0000.json"
    doc = json.loads(single.read_text())
    del doc["ground_truth"]
    stripped_dir = tmp_path / "stripped"
    stripped_dir.mkdir()
    stripped = stripped_dir / "scene_0000.json"
    stripped.write_text(json.dumps(doc))
    assert cli.main(["solve", str(stripped)]) == 0
    rc = cli.main(["eval", "--results",
                   str(stripped_dir / "scene_0000.results.json")])
    assert rc == 1
    assert "ground_truth" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The column path end to end.

def _skeleton_document(tmp_path) -> Path:
    """The fixture scene plus a standing keypointed person and a box whose
    bottom sits above the horizon, so a solve scores a skeleton and
    filters one detection out."""
    payload = json.loads((_FIXTURES / "scene_0000.json").read_text())
    box = dict(payload["detections"][0]["box"])
    u = (box["u_left"] + box["u_right"]) / 2
    top, span = box["v_top"], box["v_bottom"] - box["v_top"]
    rows = {"nose": 0.08, "left_eye": 0.06, "right_eye": 0.06,
            "left_shoulder": 0.2, "right_shoulder": 0.2, "left_hip": 0.5,
            "right_hip": 0.5, "left_knee": 0.75, "right_knee": 0.75,
            "left_ankle": 0.98, "right_ankle": 0.98}
    skeleton = [[u, top + rows[n] * span, 2] if n in rows else [0.0, 0.0, 0]
                for n in COCO_KEYPOINT_NAMES]
    v0 = payload["calibration"]["v0"]
    payload["detections"] += [
        {"category": "person", "box": box, "keypoints": skeleton},
        {"category": "car", "box": {"u_left": 0.1, "u_right": 0.3,
                                    "v_top": v0 - 0.2, "v_bottom": v0 - 0.1}},
    ]
    payload["ground_truth"]["object_heights_m"] += [1.7, 1.5]
    path = tmp_path / "skeleton.json"
    path.write_text(json.dumps(payload))
    return path


_ESTIMATORS = {"cascade": solver.solve_scene, "pgm": baselines.pgm_full,
               "pgm-fixed": baselines.pgm_fixed_height}


def _readme_api_path(path: Path, method: str):
    """The README's Python API path: (filter result, estimate)."""
    doc = parse_document(path.read_bytes())
    kept = filter_detections(doc)
    cal = doc.calibration
    return kept, _ESTIMATORS[method](cal.horizon_v0(), cal.fov_rad,
                                     kept.kept, principal_v=cal.principal_v)


@pytest.mark.parametrize("method", VALID_METHODS)
def test_solve_builds_no_detection_box(tmp_path, capsys, monkeypatch, method):
    doc = _skeleton_document(tmp_path)
    built = []
    post_init = solver.DetectionBox.__post_init__

    def counted(box):
        built.append(box)
        post_init(box)

    monkeypatch.setattr(solver.DetectionBox, "__post_init__", counted)
    out = tmp_path / "out"
    assert cli.main(["solve", str(doc), "--method", method,
                     "--out", str(out)]) == 0
    assert "1 filtered out" in capsys.readouterr().err
    assert cli.main(["overlay", str(doc), str(out / "skeleton.results.json"),
                     "--out", str(tmp_path / "skeleton.svg")]) == 0
    _readme_api_path(doc, method)
    assert built == []
    # The counter sees boxes wherever they are built.
    documents._detection_boxes(json.loads(doc.read_text())["detections"])
    assert len(built) == 6


def _horizon_band_document(tmp_path) -> Path:
    """The fixture scene with its first box's bottom just below the
    horizon: the box passes the filters and `usable_boxes` excludes it as
    bottom-on-horizon."""
    payload = json.loads((_FIXTURES / "scene_0000.json").read_text())
    box = payload["detections"][0]["box"]
    box["v_bottom"] = payload["calibration"]["v0"] + 5e-7
    box["v_top"] = box["v_bottom"] - 0.1
    box["u_right"] = box["u_left"] + 0.05
    path = tmp_path / "band.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("document", ["fixture", "skeleton", "horizon-band"])
@pytest.mark.parametrize("method", VALID_METHODS)
def test_the_readme_api_path_matches_the_cli_path(tmp_path, capsys, method,
                                                  document):
    # The README solves `kept.kept`, the kept detections' columns; the
    # same detections as `DetectionBox` objects, the one-box input form,
    # give the same estimate, and the CLI writes the same bytes.
    path = {"fixture": lambda: _FIXTURES / "scene_0000.json",
            "skeleton": lambda: _skeleton_document(tmp_path),
            "horizon-band": lambda: _horizon_band_document(tmp_path),
            }[document]()
    kept, from_columns = _readme_api_path(path, method)
    boxes = documents._detection_boxes(
        json.loads(path.read_text())["detections"])
    cal = parse_document(path.read_bytes()).calibration
    from_boxes = _ESTIMATORS[method](
        cal.horizon_v0(), cal.fov_rad, [boxes[i] for i in kept.kept_indices],
        principal_v=cal.principal_v)
    assert from_boxes == from_columns
    if document == "skeleton":
        assert kept.rejected == ((5, "above-horizon"),)
        assert kept.kept.has_keypoints.any()
    if document == "horizon-band":
        assert from_boxes.excluded == ((0, "bottom-on-horizon"),)
    texts = [emit_results(est, config_hash=config_digest(
        ToolkitConfig(method=method)), source_indices=kept.kept_indices)
        for est in (from_boxes, from_columns)]
    assert texts[0] == texts[1]
    out = tmp_path / "cli.results.json"
    assert cli.main(["solve", str(path), "--method", method,
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text(encoding="utf-8") == texts[0]


def _indented_dumps(monkeypatch) -> list:
    """The payloads that reach json.dumps(..., indent=...) from now on.
    canonical_json falls back to it for values it does not render itself,
    numpy scalars among them, at several times the cost."""
    indented = []
    dumps = json.dumps

    def spy(obj, *args, **kwargs):
        if kwargs.get("indent") is not None:
            indented.append(obj)
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", spy)
    return indented


def test_cli_outputs_never_take_the_json_dumps_fallback(tmp_path, capsys,
                                                        monkeypatch):
    indented = _indented_dumps(monkeypatch)
    data = _synth(tmp_path, "data", extra=["--box-noise", "0.002"])
    for method in VALID_METHODS:
        out = tmp_path / method
        assert cli.main(["solve", str(data), "--method", method,
                         "--out", str(out)]) == 0
        assert cli.main(["eval", "--results", str(out), "--truth", str(data),
                         "--out", str(tmp_path / f"{method}.report.json")]) == 0
    assert cli.main(["solve", str(_skeleton_document(tmp_path))]) == 0
    capsys.readouterr()
    assert indented == []


def test_large_uneven_results_never_take_the_json_dumps_fallback(
        tmp_path, capsys, monkeypatch):
    # A 200-object scene with one box in the horizon band, refined for up
    # to 30 layers: null rows, copied layers and long columns.
    data = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data), "--scenes", "1",
                     "--objects", "200", "--seed", "5",
                     "--depth-max", "15"]) == 0
    doc = data / "scene_0000.json"
    payload = json.loads(doc.read_text())
    box = payload["detections"][0]["box"]
    v0 = parse_document(doc.read_bytes()).calibration.horizon_v0()
    box["v_bottom"] = v0 + 5e-7
    box["v_top"] = box["v_bottom"] - 0.1
    box["u_right"] = box["u_left"] + 0.05
    doc.write_text(json.dumps(payload))
    config = tmp_path / "config.yaml"
    config.write_text("refine: {num_layers: 30}\n")
    indented = _indented_dumps(monkeypatch)
    for method in VALID_METHODS:
        out = tmp_path / method
        assert cli.main(["solve", str(doc), "--method", method,
                         "--out", str(out), "--config", str(config)]) == 0
        est = parse_results(
            (out / "scene_0000.results.json").read_bytes()).estimate
        assert len(est.heights_m) == 200
        assert est.excluded == ((0, "bottom-on-horizon"),)
        assert est.tops[0] is None
        if method == "cascade":
            assert len(est.trace) == 31
            assert any(dataclasses.replace(a, layer=b.layer) == b
                       for a, b in zip(est.trace, est.trace[1:]))
    capsys.readouterr()
    assert indented == []
