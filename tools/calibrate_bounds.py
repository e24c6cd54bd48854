"""Offline calibration for the acceptance-suite frozen bounds.

Re-runs the statistical experiments the acceptance tests freeze constants
for, at full scale, and prints the measured numbers.  Run after any change
to the solver or generator defaults and update the constants in
tests/test_acceptance.py if the margins moved.

Usage: python tools/calibrate_bounds.py [--quick]
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import time

import numpy as np

from scenescale import (DEFAULT_PRIORS, NoiseModel, SceneRanges,
                        horizon_from_pitch, render_detections, sample_scene,
                        solve_scene)
from scenescale.baselines import pgm_fixed_height
from scenescale.geometry import CameraParams, heights_from_spans
from scenescale.metrics import summarize


def _normalized_camera(scene, cam_height=None):
    cam = scene.camera
    return CameraParams.from_fov(
        cam.pitch_rad, cam.fov_rad,
        cam.cam_height_m if cam_height is None else cam_height,
        cam.image_w_px / cam.image_h_px, 1.0)


def _v0(scene) -> float:
    return horizon_from_pitch(_normalized_camera(scene)).v0


def criterion4(n_scenes: int) -> None:
    """Noiseless, heights pinned to prior means, N=3: relative camera error."""
    worst = 0.0
    t0 = time.perf_counter()
    for seed in range(n_scenes):
        scene = sample_scene(SceneRanges(), n_objects=3, seed=seed)
        objects = tuple(dataclasses.replace(o, height_m=DEFAULT_PRIORS[o.category].mean_m)
                        for o in scene.objects)
        scene = dataclasses.replace(scene, objects=objects)
        boxes = render_detections(scene)
        est = solve_scene(_v0(scene), scene.camera.fov_rad, boxes, DEFAULT_PRIORS)
        rel = abs(est.cam_height_m - scene.camera.cam_height_m) / scene.camera.cam_height_m
        worst = max(worst, rel)
    print(f"criterion 4: max relative camera error {worst:.3e} "
          f"({n_scenes} scenes, {time.perf_counter() - t0:.1f}s)")


def criterion5(n_scenes: int) -> None:
    """Prior-sampled heights, N=50, noiseless: median relative camera error."""
    errs = []
    t0 = time.perf_counter()
    for i in range(n_scenes):
        scene = sample_scene(SceneRanges(), n_objects=50, seed=1000 + i)
        boxes = render_detections(scene)
        est = solve_scene(_v0(scene), scene.camera.fov_rad, boxes, DEFAULT_PRIORS)
        errs.append(abs(est.cam_height_m - scene.camera.cam_height_m)
                    / scene.camera.cam_height_m)
    print(f"criterion 5: median relative camera error {summarize(errs)[2]:.4f} "
          f"({n_scenes} scenes, {time.perf_counter() - t0:.1f}s)")


def _grid_oracle_cam_height(scene, boxes) -> float:
    """Best camera height by exhaustive 1-D search at 1 mm resolution.

    At each candidate the object heights come from exact bottom-anchored
    inversion of the detected spans (zero reprojection residual), so the
    search scores candidates purely by how plausible the implied heights
    are under the category priors.
    """
    grid = np.arange(0.1, 20.0, 1e-3)
    v_t = np.array([b.v_top for b in boxes])
    v_b = np.array([b.v_bottom for b in boxes])
    mu = np.array([DEFAULT_PRIORS[b.category].mean_m for b in boxes])
    sigma = np.array([DEFAULT_PRIORS[b.category].sigma_m for b in boxes])
    best_h, best_score = None, np.inf
    for h in grid:
        cam = _normalized_camera(scene, cam_height=float(h))
        with np.errstate(divide="ignore", invalid="ignore"):
            heights = heights_from_spans(cam, v_t, v_b)
        z = 0.5 * ((heights - mu) / sigma) ** 2
        score = float(np.mean(np.where(np.isfinite(z), z, 1e12)))
        if score < best_score:
            best_score, best_h = score, float(h)
    return best_h


def criterion6(n_scenes: int, with_oracle: bool) -> None:
    """Box noise 0.002, N=20: solver vs grid-search-oracle medians."""
    noise = NoiseModel(box_sigma=0.002)
    solver_errs, oracle_errs = [], []
    t0 = time.perf_counter()
    for i in range(n_scenes):
        scene = sample_scene(SceneRanges(), n_objects=20, seed=2000 + i)
        boxes = render_detections(scene, noise)
        v0 = _v0(scene)
        truth = scene.camera.cam_height_m
        est = solve_scene(v0, scene.camera.fov_rad, boxes, DEFAULT_PRIORS)
        solver_errs.append(abs(est.cam_height_m - truth) / truth)
        if with_oracle:
            h_star = _grid_oracle_cam_height(scene, boxes)
            oracle_errs.append(abs(h_star - truth) / truth)
    print(f"criterion 6: solver median {summarize(solver_errs)[2]:.4f}", end="")
    if with_oracle:
        print(f", grid-oracle median {summarize(oracle_errs)[2]:.4f}", end="")
    print(f" ({n_scenes} scenes, {time.perf_counter() - t0:.1f}s)")


def criterion9(n_scenes: int) -> None:
    """Heights at canonical +/- 2 sigma: solver vs fixed-height baseline."""
    for label, ranges, n_obj in (
            ("default ranges, N=5", SceneRanges(), 5),
            ("depth 2-15, N=5", dataclasses.replace(SceneRanges(), depth_m=(2.0, 15.0)), 5),
            ("depth 2-15, N=8", dataclasses.replace(SceneRanges(), depth_m=(2.0, 15.0)), 8),
            ("depth 2-12, fov 50-90, N=8",
             dataclasses.replace(SceneRanges(), depth_m=(2.0, 12.0),
                                 fov_rad=(math.radians(50), math.radians(90))), 8),
    ):
        rng = np.random.default_rng(99)
        solver_errs, fixed_errs = [], []
        t0 = time.perf_counter()
        for i in range(n_scenes):
            scene = sample_scene(ranges, n_objects=n_obj, seed=3000 + i)
            prior = DEFAULT_PRIORS["person"]
            signs = rng.choice((-1.0, 1.0), size=len(scene.objects))
            objects = tuple(
                dataclasses.replace(o, height_m=prior.mean_m + s * 2.0 * prior.sigma_m)
                for o, s in zip(scene.objects, signs))
            scene = dataclasses.replace(scene, objects=objects)
            boxes = render_detections(scene)
            v0 = _v0(scene)
            truth = np.array([o.height_m for o in scene.objects])
            est = solve_scene(v0, scene.camera.fov_rad, boxes, DEFAULT_PRIORS)
            solver_errs.extend(np.abs(np.array(est.heights_m) - truth))
            base = pgm_fixed_height(v0, scene.camera.fov_rad, boxes)
            fixed_errs.extend(np.abs(np.array(base.heights_m) - truth))
        med_s = summarize(solver_errs)[2]
        med_f = summarize(fixed_errs)[2]
        print(f"criterion 9 [{label}]: solver {med_s:.4f} vs fixed {med_f:.4f} "
              f"(margin {100 * (med_f - med_s) / med_f:.1f}%, "
              f"{time.perf_counter() - t0:.1f}s)")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true",
                        help="smaller sweeps, skip the grid oracle")
    args = parser.parse_args()
    n = 40 if args.quick else 200
    criterion4(50 if args.quick else 100)
    criterion5(n)
    criterion6(n, with_oracle=not args.quick)
    criterion9(n)


if __name__ == "__main__":
    main()
