"""End-to-end command line tests, run in-process against cli.main."""

import json
from pathlib import Path

import pytest
import yaml

from scenescale import cli
from scenescale.documents import parse_results

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


# ---------------------------------------------------------------------------
# Error handling.

def test_usage_errors_exit_one(capsys):
    assert cli.main([]) == 1
    assert cli.main(["solve"]) == 1
    assert cli.main(["frobnicate"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert cli.main(["solve", "--help"]) == 0
    capsys.readouterr()


def test_missing_input_exits_one(tmp_path, capsys):
    rc = cli.main(["solve", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_document_reported_per_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = cli.main(["solve", str(bad)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "bad.json" in err
    assert "1 of 1 documents failed" in err


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
