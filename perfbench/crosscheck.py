#!/usr/bin/env python3
"""Traced check of the stage shares quoted in ROADMAP.md's baseline.

Run from the repository root:

    python3 perfbench/crosscheck.py

Prints, from the same span tracer as `run.py --trace 1`:
* the share of a cascade solve spent in `classify_boxes` at n = 50;
* the share spent in the dense `numpy.linalg.solve` of `refine_layer`
  at n = 1000;
* the share of `scenescale synth` spent in `oracle_project_points`
  (which includes `projection_matrix`), and placement attempts per object.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402


def solve_shares(n: int, scenes: int) -> dict:
    from scenescale import synth
    import scenescale
    tracer = spans.Tracer()
    tracer.install()
    try:
        for seed in range(scenes):
            scene = synth.sample_scene(synth.SceneRanges(), n, seed=seed)
            boxes = synth.render_detections(scene, synth.NoiseModel(box_sigma=0.002))
            v0, fov = synth.observe_calibration(scene)
            tracer.start()
            scenescale.solve_scene(v0, fov, boxes)
            tracer.stop()
    finally:
        tracer.uninstall()
    m = tracer.summary(scenes, 0.0)
    solve = m["solver.solve_scene.ms"]
    return {
        "solve_ms": solve,
        "classify_share": m["solver.classify_boxes.ms"] / solve,
        "classify_calls": m["solver.classify_boxes.calls"],
        "linalg_share": m["solver.linalg_solve.ms"] / solve,
    }


def synth_shares(scenes: int, objects: int) -> dict:
    from scenescale import cli
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp, \
                contextlib.redirect_stderr(io.StringIO()):
            tracer.start()
            cli.main(["synth", "--out", tmp, "--scenes", str(scenes),
                      "--objects", str(objects), "--seed", "0"])
            tracer.stop()
    finally:
        tracer.uninstall()
    m = tracer.summary(1, 0.0)
    total = m["cli.main.ms"]
    names, parents, starts, ends, _ = tracer.arrays()
    parent = np.where(parents >= 0, names[np.maximum(parents, 0)], -1)
    nid = tracer.name_id
    in_sample = (names == nid["geometry.oracle_project_points"]) & (
        parent == nid["synth.sample_scene"])
    return {
        "synth_s": total / 1e3,
        "oracle_share_of_synth": m["geometry.oracle_project_points.ms"] / total,
        "matrix_share_of_synth": m["geometry.projection_matrix.ms"] / total,
        "oracle_share_of_sample_scene": float(
            (ends - starts)[in_sample].sum()) * 1e3 / m["synth.sample_scene.ms"],
        "attempts_per_object": m["synth.attempts_per_object"],
    }


def main() -> int:
    at50 = solve_shares(50, 50)
    at1000 = solve_shares(1000, 5)
    syn = synth_shares(200, 20)
    print(f"n=50:   solve {at50['solve_ms']:.2f} ms, classify_boxes "
          f"{at50['classify_share']:.1%} over {at50['classify_calls']:.0f} "
          f"calls, dense solve {at50['linalg_share']:.1%}")
    print(f"n=1000: solve {at1000['solve_ms']:.1f} ms, classify_boxes "
          f"{at1000['classify_share']:.1%}, dense solve "
          f"{at1000['linalg_share']:.1%}")
    print(f"synth 200 x 20: {syn['synth_s']:.2f} s, oracle_project_points "
          f"{syn['oracle_share_of_synth']:.1%} (projection_matrix "
          f"{syn['matrix_share_of_synth']:.1%}) of the CLI call, "
          f"{syn['oracle_share_of_sample_scene']:.1%} of sample_scene, "
          f"{syn['attempts_per_object']:.1f} attempts per object")
    return 0


if __name__ == "__main__":
    sys.exit(main())
