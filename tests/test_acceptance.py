"""Acceptance suite: the package's quantitative contract.

One test per criterion, each printing a single pass/fail line (visible
under `pytest -s`).  Statistical bounds marked "calibrated" were measured
at full scale with tools/calibrate_bounds.py; rerun that script and
refresh the frozen constants here whenever solver or generator defaults
change.  Everything is seeded, so every number below is reproducible to
the bit.
"""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest

from scenescale import cli
from scenescale.baselines import pgm_fixed_height, pgm_full
from scenescale.documents import (emit_document, emit_results,
                                  parse_document, parse_results)
from scenescale.geometry import (CameraParams, GroundObject, depth_from_bottom,
                                 height_from_box_exact, height_from_box_linear,
                                 horizon_from_pitch, project_vertical,
                                 projection_matrix, projection_oracle)
from scenescale.metrics import summarize
from scenescale.priors import DEFAULT_PRIORS
from scenescale.solver import (RefinementConfig, box_ratios, classify_boxes,
                               loss_boxes, scene_arrays, solve_scene,
                               total_loss, total_loss_gradient)
from scenescale import synth

_T0 = time.perf_counter()
_FIXTURES = Path(__file__).parent / "fixtures"


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {name}: {status}{suffix}")
    assert ok, f"criterion {num:02d} failed: {name}{suffix}"


def _normalized_camera(scene: synth.SceneSpec) -> CameraParams:
    cam = scene.camera
    return CameraParams.from_fov(cam.pitch_rad, cam.fov_rad, cam.cam_height_m,
                                 cam.image_w_px / cam.image_h_px, 1.0)


def _v0(scene: synth.SceneSpec) -> float:
    return horizon_from_pitch(_normalized_camera(scene)).v0


@pytest.fixture(scope="module")
def sweep():
    """10^5 valid random configurations shared by criteria 1 and 2.

    Valid means both the ground point and the object top sit at least
    1 cm in front of the rotated camera plane; closer configurations are
    projectively singular and no finite tolerance is meaningful there.
    """
    rng = np.random.default_rng(981_217)
    n_draw = 220_000
    pitch = rng.uniform(-math.pi / 4, math.pi / 4, n_draw)
    fov = rng.uniform(math.radians(20.0), math.radians(120.0), n_draw)
    hc = rng.uniform(0.3, 20.0, n_draw)
    z = rng.uniform(1.0, 200.0, n_draw)
    h = rng.uniform(0.2, 5.0, n_draw)
    st, ct = np.sin(pitch), np.cos(pitch)
    bottom_w = z * ct - hc * st
    top_w = z * ct + (h - hc) * st
    keep = np.flatnonzero((bottom_w > 1e-2) & (top_w > 1e-2))[:100_000]
    assert keep.size == 100_000
    return pitch[keep], fov[keep], hc[keep], z[keep], h[keep]


def test_criterion_01_closed_form_matches_matrix_oracle(sweep):
    t0 = time.perf_counter()
    worst = 0.0
    for i, (pitch, fov, hc, z, h) in enumerate(zip(*sweep)):
        camera = CameraParams.from_fov(pitch, fov, hc, 1.0, 1.0)
        span = project_vertical(camera, GroundObject(z, h))
        p = projection_matrix(camera)
        v_bot = (p[1, 2] * z + p[1, 3]) / (p[2, 2] * z + p[2, 3])
        v_top = ((p[1, 1] * h + p[1, 2] * z + p[1, 3])
                 / (p[2, 1] * h + p[2, 2] * z + p[2, 3]))
        worst = max(worst, abs(span.v_bottom - v_bot), abs(span.v_top - v_top))
        if i < 2000:
            # Spot-check the public oracle entry point as well.
            worst = max(
                worst,
                abs(projection_oracle(camera, (0.0, 0.0, z))[1]
                    - span.v_bottom),
                abs(projection_oracle(camera, (0.0, h, z))[1] - span.v_top))
    elapsed = time.perf_counter() - t0
    _report(1, "closed-form projection matches matrix oracle",
            worst <= 1e-9 and elapsed < 5.0,
            f"max |dv| {worst:.3e}, {elapsed:.1f}s")


def test_criterion_02_inversions_round_trip(sweep):
    worst = 0.0
    for pitch, fov, hc, z, h in zip(*sweep):
        camera = CameraParams.from_fov(pitch, fov, hc, 1.0, 1.0)
        span = project_vertical(camera, GroundObject(z, h))
        z_hat = depth_from_bottom(camera, span.v_bottom)
        h_hat = height_from_box_exact(camera, span)
        worst = max(worst, abs(z_hat - z) / z, abs(h_hat - h) / h)
    _report(2, "projection inversions round-trip", worst <= 1e-9,
            f"max relative error {worst:.3e}")


def test_criterion_03_linear_model_coincidence_and_gap(sweep):
    # (a) Level camera: linear and exact inversions agree to 1e-12 m.
    pitch, fov, hc, z, h = (a[:1000] for a in sweep)
    worst_level = 0.0
    for fov_i, hc_i, z_i, h_i in zip(fov, hc, z, h):
        camera = CameraParams.from_fov(0.0, fov_i, hc_i, 1.0, 1.0)
        span = project_vertical(camera, GroundObject(z_i, h_i))
        exact = height_from_box_exact(camera, span)
        linear = height_from_box_linear(hc_i, horizon_from_pitch(camera),
                                        span)
        worst_level = max(worst_level, abs(exact - linear))

    # (b) Pitched 15 degrees at fov 60: the linear bias is macroscopic.
    camera = CameraParams.from_fov(math.radians(15.0), math.radians(60.0),
                                   1.6, 1.0, 1.0)
    span = project_vertical(camera, GroundObject(8.0, 1.7))
    gap = abs(height_from_box_linear(1.6, horizon_from_pitch(camera), span)
              - 1.7)

    # (c) Noiseless synthetic scenes: the exact inversion beats the
    # linear one by far more than 10x on mean absolute height error.
    exact_errs, linear_errs = [], []
    for seed in range(50):
        scene = synth.sample_scene(n_objects=5, seed=5000 + seed)
        camera = _normalized_camera(scene)
        v0 = horizon_from_pitch(camera)
        for obj, box in zip(scene.objects, synth.render_detections(scene)):
            span = dataclasses.replace(
                project_vertical(camera, GroundObject(obj.depth_m, 1.0)),
                v_top=box.v_top, v_bottom=box.v_bottom)
            exact_errs.append(abs(height_from_box_exact(camera, span)
                                  - obj.height_m))
            linear_errs.append(abs(
                height_from_box_linear(camera.cam_height_m, v0, span)
                - obj.height_m))
    mean_exact = float(np.mean(exact_errs))
    mean_linear = float(np.mean(linear_errs))
    ok = (worst_level <= 1e-12 and gap > 1e-3
          and mean_linear >= 10.0 * mean_exact)
    _report(3, "linear model coincides at level pitch, degrades off-level",
            ok, f"level {worst_level:.2e} m, 15-degree gap {gap:.4f} m, "
                f"error ratio {mean_linear / max(mean_exact, 1e-300):.1e}")


def test_criterion_04_prior_anchored_noiseless_recovery():
    worst = 0.0
    for seed in range(100):
        scene = synth.sample_scene(synth.SceneRanges(), n_objects=3, seed=seed)
        objects = tuple(
            dataclasses.replace(o, height_m=DEFAULT_PRIORS[o.category].mean_m)
            for o in scene.objects)
        scene = dataclasses.replace(scene, objects=objects)
        boxes = synth.render_detections(scene)
        est = solve_scene(_v0(scene), scene.camera.fov_rad, boxes)
        rel = (abs(est.cam_height_m - scene.camera.cam_height_m)
               / scene.camera.cam_height_m)
        worst = max(worst, rel)
    _report(4, "prior-anchored noiseless recovery", worst <= 1e-3,
            f"max relative camera error {worst:.3e} over 100 scenes")


def test_criterion_05_statistical_recovery_at_scale():
    errs = []
    for i in range(200):
        scene = synth.sample_scene(synth.SceneRanges(), n_objects=50,
                                   seed=1000 + i)
        boxes = synth.render_detections(scene)
        est = solve_scene(_v0(scene), scene.camera.fov_rad, boxes)
        errs.append(abs(est.cam_height_m - scene.camera.cam_height_m)
                    / scene.camera.cam_height_m)
    median = summarize(errs)[2]
    _report(5, "statistical recovery at scale", median <= 0.05,
            f"median relative camera error {median:.4f} over 200 scenes")


# Median relative camera error of a brute-force 1-D grid search over the
# camera height (resolution 1e-3 m, range 0.1-20 m) on the exact scenes
# below; calibrated offline with tools/calibrate_bounds.py.  The solver
# must stay within 2x of this oracle as well as under the hard 15% cap.
_GRID_ORACLE_MEDIAN = 0.0111


def test_criterion_06_noise_robustness_within_calibrated_bound():
    noise = synth.NoiseModel(box_sigma=0.002)
    errs = []
    for i in range(200):
        scene = synth.sample_scene(synth.SceneRanges(), n_objects=20,
                                   seed=2000 + i)
        boxes = synth.render_detections(scene, noise)
        est = solve_scene(_v0(scene), scene.camera.fov_rad, boxes)
        errs.append(abs(est.cam_height_m - scene.camera.cam_height_m)
                    / scene.camera.cam_height_m)
    median = summarize(errs)[2]
    ok = median <= 0.15 and median <= 2.0 * _GRID_ORACLE_MEDIAN
    _report(6, "noise robustness within calibrated bound", ok,
            f"median {median:.4f}, cap 0.15, "
            f"oracle x2 {2.0 * _GRID_ORACLE_MEDIAN:.4f}")


def test_criterion_07_refinement_never_increases_the_loss():
    noise = synth.NoiseModel(box_sigma=0.003, height_outlier_rate=0.1)
    violations = 0
    for i in range(1000):
        scene = synth.sample_scene(synth.SceneRanges(), n_objects=5,
                                   seed=7000 + i)
        boxes = synth.render_detections(scene, noise)
        est = solve_scene(_v0(scene), scene.camera.fov_rad, boxes)
        losses = [t.total_loss for t in est.trace]
        violations += sum(1 for a, b in zip(losses, losses[1:])
                          if b > a + 1e-12)
    _report(7, "refinement never increases the loss", violations == 0,
            f"{violations} violations over 1000 scenes")


def test_criterion_08_gradients_match_finite_differences():
    rng = np.random.default_rng(88)
    config = RefinementConfig()
    checked = 0
    worst = 0.0
    seed = 0
    while checked < 1000:
        seed += 1
        scene = synth.sample_scene(n_objects=int(rng.integers(2, 6)),
                                   seed=6000 + seed)
        boxes = synth.render_detections(scene)
        camera = dataclasses.replace(
            _normalized_camera(scene),
            cam_height_m=scene.camera.cam_height_m
            * float(rng.uniform(0.8, 1.2)))
        arrays = scene_arrays(boxes)
        active, _ = classify_boxes(camera, arrays)
        if not all(active):
            continue
        heights = np.array([o.height_m for o in scene.objects])
        heights = heights + rng.normal(0.0, 0.1, heights.size)
        boxes_used = loss_boxes(camera, arrays, box_ratios(boxes, config),
                                np.flatnonzero(active))
        ev = total_loss(boxes_used, camera, heights, config)
        x0 = np.array([camera.cam_height_m, *heights])
        if not math.isfinite(ev.total_loss):
            continue

        def loss_at(x):
            cam = dataclasses.replace(camera, cam_height_m=x[0])
            return total_loss(boxes_used, cam, x[1:], config).total_loss

        # Keep clear of the L1 kink: an FD step across a sign change of
        # some residual would not measure the one-sided derivative.
        eps = 1e-6
        grad = total_loss_gradient(boxes_used, ev)
        fd = np.zeros_like(x0)
        kinked = False
        for k in range(x0.size):
            hi, lo = x0.copy(), x0.copy()
            hi[k] += eps
            lo[k] -= eps
            f_hi, f_lo = loss_at(hi), loss_at(lo)
            if not (math.isfinite(f_hi) and math.isfinite(f_lo)):
                kinked = True
                break
            fd[k] = (f_hi - f_lo) / (2.0 * eps)
        if kinked:
            continue
        denom = max(np.linalg.norm(fd), np.linalg.norm(grad), 1e-12)
        rel = float(np.linalg.norm(fd - grad)) / denom
        if rel > 1e-5:
            # Tolerate only genuine kink crossings, re-drawing the state.
            if np.min(np.abs(ev.residuals)) < 1e-4:
                continue
        worst = max(worst, rel)
        checked += 1
    _report(8, "analytic gradients match finite differences", worst <= 1e-5,
            f"max relative deviation {worst:.2e} over 1000 states")


def test_criterion_09_joint_solve_beats_fixed_height_baseline():
    # Heights pinned two sigma off the canonical value, random sign, so
    # the fixed-height assumption is wrong by construction.
    ranges = dataclasses.replace(synth.SceneRanges(), depth_m=(2.0, 15.0))
    rng = np.random.default_rng(99)
    solver_means, fixed_means = [], []
    for i in range(200):
        scene = synth.sample_scene(ranges, n_objects=8, seed=3000 + i)
        prior = DEFAULT_PRIORS["person"]
        signs = rng.choice((-1.0, 1.0), size=len(scene.objects))
        objects = tuple(
            dataclasses.replace(o, height_m=prior.mean_m
                                + s * 2.0 * prior.sigma_m)
            for o, s in zip(scene.objects, signs))
        scene = dataclasses.replace(scene, objects=objects)
        boxes = synth.render_detections(scene)
        v0 = _v0(scene)
        truth = np.array([o.height_m for o in scene.objects])
        est = solve_scene(v0, scene.camera.fov_rad, boxes)
        base = pgm_fixed_height(v0, scene.camera.fov_rad, boxes)
        solver_means.append(float(np.mean(np.abs(np.array(est.heights_m)
                                                 - truth))))
        fixed_means.append(float(np.mean(np.abs(np.array(base.heights_m)
                                                - truth))))
    med_solver = summarize(solver_means)[2]
    med_fixed = summarize(fixed_means)[2]
    _report(9, "joint solve beats fixed-height baseline",
            med_solver < med_fixed,
            f"median per-scene height error {med_solver:.4f} "
            f"vs {med_fixed:.4f}")


def test_criterion_10_free_height_baseline_reports_zero_reprojection():
    worst = 0.0
    cases = 0
    for base_seed, n, noise in (
            (2000, 20, synth.NoiseModel(box_sigma=0.002)),
            (8000, 6, synth.NoiseModel(box_sigma=0.01,
                                       height_outlier_rate=0.3)),
    ):
        for i in range(100):
            scene = synth.sample_scene(synth.SceneRanges(), n_objects=n,
                                       seed=base_seed + i)
            boxes = synth.render_detections(scene, noise)
            est = pgm_full(_v0(scene), scene.camera.fov_rad, boxes)
            for t in est.trace:
                worst = max(worst, t.l_vt)
            worst = max(worst, max((abs(r) for r in est.residuals
                                    if r is not None), default=0.0))
            cases += 1
    _report(10, "free-height baseline reports zero reprojection",
            worst <= 1e-9, f"max residual {worst:.2e} over {cases} scenes")


def test_criterion_11_byte_determinism_and_fixture_stability(tmp_path):
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["synth", "--out", str(out), "--scenes", "3",
                         "--objects", "4", "--seed", "42",
                         "--depth-max", "15"]) == 0
        assert cli.main(["solve", str(out)]) == 0
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    identical = runs[0] == runs[1]

    doc_bytes = (_FIXTURES / "scene_0000.json").read_bytes()
    res_bytes = (_FIXTURES / "scene_0000.results.json").read_bytes()
    doc_stable = emit_document(
        parse_document(doc_bytes)).encode() == doc_bytes
    res = parse_results(res_bytes)
    res_stable = emit_results(
        res.estimate, config_hash=res.config_hash,
        source_indices=res.source_indices).encode() == res_bytes

    # Solving the committed document reproduces the committed result.
    work = tmp_path / "fixture"
    work.mkdir()
    (work / "scene_0000.json").write_bytes(doc_bytes)
    assert cli.main(["solve", str(work / "scene_0000.json")]) == 0
    resolved = (work / "scene_0000.results.json").read_bytes() == res_bytes

    ok = identical and doc_stable and res_stable and resolved
    _report(11, "byte determinism and fixture stability", ok,
            f"runs identical={identical}, fixture doc={doc_stable}, "
            f"results={res_stable}, re-solve={resolved}")


def test_criterion_12_suite_runtime():
    elapsed = time.perf_counter() - _T0
    _report(12, "acceptance suite runtime", elapsed < 60.0,
            f"{elapsed:.1f}s")
