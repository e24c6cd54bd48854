"""Digest of everything the CLI writes for a fixed set of seeded corpora.

Runs, in process through `scenescale.cli.main`, with the package under
this checkout's `src/`:

  * `synth` three times: plain; with box, horizon and height-outlier
    noise over people and cars; and with wide fields of view and steep
    pitches;
  * the committed fixture `tests/fixtures/scene_0000.json` as a fourth
    corpus, and a hand-written scene (`HORIZON_SCENE`) as a fifth;
  * `solve` of each corpus with each method, then `eval` and one
    `overlay` of each solve;
  * the same for the noisy corpus under a `--config` that sets every
    section (`CONFIG`), so the digest covers the results' `config_hash`.

Prints one `sha256 path exit-code` line per output file and per
command's stderr, in a fixed order; then one `subtotal KIND sha256` line
per kind of output (`KINDS`: documents, results, eval reports and curves,
overlays, stderr), the digest of that kind's lines; then `total sha256`,
the digest of all of them.  Two checkouts that print the same total
wrote the same bytes and exit codes, and the subtotals show which kinds
of output differ when the totals do.

Usage: python tools/corpus_digest.py OUT   (OUT must not exist yet)
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from scenescale import cli  # noqa: E402

SYNTH = {
    "plain": [],
    "noisy": ["--box-noise", "0.002", "--horizon-noise", "0.002",
              "--outlier-rate", "0.1", "--categories", "person,car"],
    "wide": ["--fov-max-deg", "120", "--pitch-max-deg", "40"],
}
METHODS = ("cascade", "pgm", "pgm-fixed")
CONFIG = """\
priors:
  person: {mean_m: 1.75, sigma_m: 0.1}
  car: {mean_m: 1.5, sigma_m: 0.25}
canonical_heights: {person: 1.72, car: 1.5}
cam_height_prior: {mean_m: 2, sigma_m: 0.75}
refine: {num_layers: 2}
filters: {aspect_range: {}, box_height_range: [0.02, 0.95]}
overlay: {reference_height_m: 1.5}
"""
# Three people seen by a level 1.6 m camera, and a car that the ingestion
# filters keep but whose bottom lies 5e-7 below the horizon: every method
# excludes it as `bottom-on-horizon`, so the estimate's `tops` in its
# results hold null for it.
HORIZON_SCENE = {
    "schema_version": 1,
    "image": {"width_px": 640, "height_px": 480},
    "calibration": {"fov_rad": 1.0471975511965976, "v0": 0.5},
    "detections": [
        {"category": "person",
         "box": {"u_left": 0.30, "u_right": 0.40,
                 "v_top": 0.48268, "v_bottom": 0.77713}},
        {"category": "person",
         "box": {"u_left": 0.55, "u_right": 0.62,
                 "v_top": 0.48917, "v_bottom": 0.67321}},
        {"category": "person",
         "box": {"u_left": 0.80, "u_right": 0.85,
                 "v_top": 0.49278, "v_bottom": 0.61547}},
        {"category": "car",
         "box": {"u_left": 0.10, "u_right": 0.25,
                 "v_top": 0.42, "v_bottom": 0.5000005}},
    ],
    "ground_truth": {"cam_height_m": 1.6,
                     "object_heights_m": [1.7, 1.7, 1.7, 1.5]},
}


KINDS = ("documents", "results", "eval", "overlays", "stderr")


def _kind(name: str) -> str:
    """The `KINDS` entry of an output: a synth document, a results file,
    an eval report or curve, an overlay SVG or a command's stderr."""
    if name.endswith(".stderr"):
        return "stderr"
    if name.endswith(".results.json"):
        return "results"
    if name.endswith(("/eval.json", "/curve.csv")):
        return "eval"
    if name.endswith(".svg"):
        return "overlays"
    return "documents"


def _run(log: list, name: str, argv: list[str]) -> int:
    """Run one CLI command; record its stderr as the output `name`."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    log.append((name, err.getvalue().encode(), code))
    return code


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 1
    out = Path(args[0]).resolve()
    try:
        out.mkdir(parents=True)
    except FileExistsError:
        print(f"{out} already exists", file=sys.stderr)
        return 1
    # Relative paths keep the messages on stderr free of OUT.
    os.chdir(out)
    log: list[tuple[str, bytes, int]] = []
    produced: dict[Path, int] = {}

    def run(name, argv):
        before = set(Path(".").rglob("*"))
        code = _run(log, name, argv)
        for path in set(Path(".").rglob("*")) - before:
            if path.is_file():
                produced[path] = code

    corpora = []
    for seed, (name, extra) in enumerate(SYNTH.items(), start=11):
        run(f"{name}/synth.stderr",
            ["synth", "--out", f"{name}/docs", "--scenes", "30",
             "--objects", "6", "--seed", str(seed), *extra])
        corpora.append(name)
    Path("fixture/docs").mkdir(parents=True)
    shutil.copyfile(REPO / "tests" / "fixtures" / "scene_0000.json",
                    "fixture/docs/scene_0000.json")
    corpora.append("fixture")
    Path("horizon/docs").mkdir(parents=True)
    Path("horizon/docs/scene_0000.json").write_text(json.dumps(HORIZON_SCENE))
    corpora.append("horizon")

    Path("config.yaml").write_text(CONFIG)
    solves = [(name, method, f"{name}/{method}", [])
              for name in corpora for method in METHODS]
    solves += [("noisy", method, f"noisy/config-{method}",
                ["--config", "config.yaml"]) for method in METHODS]
    for name, method, res, config in solves:
        docs = f"{name}/docs"
        run(f"{res}/solve.stderr",
            ["solve", docs, "--method", method, "--out", res, *config])
        run(f"{res}/eval.stderr",
            ["eval", "--results", res, "--truth", docs,
             "--out", f"{res}/eval.json", "--curve", f"{res}/curve.csv"])
        run(f"{res}/overlay.stderr",
            ["overlay", f"{docs}/scene_0000.json",
             f"{res}/scene_0000.results.json",
             "--out", f"{res}/scene_0000.svg", *config])

    rows = [(name, data, code) for name, data, code in log]
    rows += [(path.as_posix(), path.read_bytes(), code)
             for path, code in produced.items()]
    total = hashlib.sha256()
    subtotals = {kind: hashlib.sha256() for kind in KINDS}
    for name, data, code in sorted(rows):
        line = f"{hashlib.sha256(data).hexdigest()} {name} {code}"
        print(line)
        total.update(line.encode() + b"\n")
        subtotals[_kind(name)].update(line.encode() + b"\n")
    for kind, digest in subtotals.items():
        print(f"subtotal {kind} {digest.hexdigest()}")
    print(f"total {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
