"""Synthetic scene generator tests.

The generator must be exactly invertible when noiseless (boxes computed
with the same closed-form projection the solver assumes) and must keep
its documented sampling statistics: heights from the category priors,
box noise of the configured strength.
"""

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from scenescale import cli, geometry, synth
from scenescale.geometry import (CameraParams, GroundObject,
                                 depths_from_bottoms, horizon_from_pitch)
from scenescale.priors import DEFAULT_PRIORS, HeightPrior
from scenescale.solver import (classify_boxes, loss_boxes, reprojection_loss,
                               scene_arrays)


def _normalized_camera(scene: synth.SceneSpec) -> CameraParams:
    cam = scene.camera
    return CameraParams.from_fov(cam.pitch_rad, cam.fov_rad, cam.cam_height_m,
                                 cam.image_w_px / cam.image_h_px, 1.0)


def _l_vt(camera: CameraParams, heights, boxes) -> float:
    """The L1 reprojection loss of `boxes`, every one of them usable, at
    `camera` and these actual heights."""
    arrays = scene_arrays(boxes)
    active, _ = classify_boxes(camera, arrays)
    assert all(active)
    used = loss_boxes(camera, arrays, [1.0] * len(arrays),
                      np.flatnonzero(active))
    return reprojection_loss(used, camera, np.asarray(heights, float))[-1]


# ---------------------------------------------------------------------------
# Validation.

def test_ranges_reject_empty_interval():
    with pytest.raises(ValueError, match="depth_m"):
        synth.SceneRanges(depth_m=(5.0, 2.0))


@pytest.mark.parametrize("field, value", [
    ("depth_m", (-5.0, 40.0)),
    ("depth_m", (0.0, 40.0)),
    ("cam_height_m", (0.0, 10.0)),
    ("cam_height_m", (-1.0, 10.0)),
    ("lateral_frac", -0.1),
    ("horizon_margin", -1e-3),
    ("depth_m", (math.nan, 40.0)),
])
def test_ranges_reject_bad_fields_by_name(field, value):
    with pytest.raises(ValueError, match=field):
        synth.SceneRanges(**{field: value})


def test_ranges_accept_zero_lateral_and_margin():
    ranges = synth.SceneRanges(lateral_frac=0.0, horizon_margin=0.0)
    scene = synth.sample_scene(ranges, n_objects=3, seed=4)
    assert all(o.lateral_m == 0.0 for o in scene.objects)


def test_ranges_reject_no_categories():
    with pytest.raises(ValueError):
        synth.SceneRanges(categories=())


def test_noise_model_rejects_negative_and_bad_rate():
    with pytest.raises(ValueError):
        synth.NoiseModel(box_sigma=-0.1)
    with pytest.raises(ValueError):
        synth.NoiseModel(height_outlier_rate=1.5)


def test_sample_scene_rejects_zero_objects():
    with pytest.raises(ValueError):
        synth.sample_scene(n_objects=0)


def test_sample_scene_rejects_unknown_category():
    with pytest.raises(ValueError, match="lamppost"):
        synth.sample_scene(synth.SceneRanges(categories=("lamppost",)))


def test_sample_scene_infeasible_ranges_error():
    # Camera pitched far up with a short mast: the horizon leaves the
    # frame bottom and no ground point can satisfy v_b > v0.
    ranges = synth.SceneRanges(pitch_rad=(0.9, 0.9),
                               cam_height_m=(0.5, 0.5),
                               depth_m=(2.0, 2.5))
    with pytest.raises(ValueError, match="could not place"):
        synth.sample_scene(ranges, n_objects=1, seed=0, camera_attempts=3)


# ---------------------------------------------------------------------------
# Determinism.

def test_same_seed_reproduces_scene_and_boxes():
    a = synth.sample_scene(n_objects=4, seed=42)
    b = synth.sample_scene(n_objects=4, seed=42)
    assert a == b
    noise = synth.NoiseModel(box_sigma=0.003, horizon_sigma=0.002,
                             fov_sigma_rad=0.01, height_outlier_rate=0.3)
    assert synth.render_detections(a, noise) == synth.render_detections(b, noise)
    assert synth.observe_calibration(a, noise) == synth.observe_calibration(b, noise)
    assert synth.effective_heights(a, noise) == synth.effective_heights(b, noise)


def test_different_seeds_differ():
    a = synth.sample_scene(n_objects=2, seed=1)
    b = synth.sample_scene(n_objects=2, seed=2)
    assert a.camera != b.camera


# ---------------------------------------------------------------------------
# Geometric consistency.

def test_objects_inside_frame_and_below_horizon():
    for seed in range(20):
        scene = synth.sample_scene(n_objects=6, seed=seed)
        cam_n = _normalized_camera(scene)
        v0 = horizon_from_pitch(cam_n).v0
        aspect = scene.camera.image_w_px / scene.camera.image_h_px
        for box in synth.render_detections(scene):
            assert 0.0 <= box.v_top < box.v_bottom <= 1.0
            assert 0.0 <= box.u_left < box.u_right <= aspect
            assert box.v_bottom > v0 + 1e-3


def test_noiseless_render_has_zero_reprojection():
    for seed in range(10):
        scene = synth.sample_scene(n_objects=5, seed=200 + seed)
        boxes = synth.render_detections(scene)
        assert _l_vt(_normalized_camera(scene), scene.heights(),
                     boxes) <= 1e-12


def test_noiseless_calibration_is_exact():
    scene = synth.sample_scene(n_objects=1, seed=7)
    v0, fov = synth.observe_calibration(scene)
    assert v0 == horizon_from_pitch(_normalized_camera(scene)).v0
    assert fov == scene.camera.fov_rad


def test_categories_respected():
    scene = synth.sample_scene(synth.SceneRanges(categories=("car",)),
                               n_objects=3, seed=5)
    assert all(o.category == "car" for o in scene.objects)
    assert all(b.category == "car" for b in synth.render_detections(scene))


# ---------------------------------------------------------------------------
# Noise behaviour.

def test_calibration_noise_perturbs_and_clips_fov():
    scene = synth.sample_scene(n_objects=1, seed=11)
    clean_v0, clean_fov = synth.observe_calibration(scene)
    noisy_v0, _ = synth.observe_calibration(
        scene, synth.NoiseModel(horizon_sigma=0.01))
    assert noisy_v0 != clean_v0
    _, fov = synth.observe_calibration(scene,
                                       synth.NoiseModel(fov_sigma_rad=50.0))
    assert 0.05 <= fov <= math.pi - 0.05
    assert fov != clean_fov


def test_outlier_heights_follow_uniform_construction():
    scene = synth.sample_scene(n_objects=8, seed=13)
    noise = synth.NoiseModel(height_outlier_rate=1.0)
    heights = synth.effective_heights(scene, noise)
    mu = DEFAULT_PRIORS["person"].mean_m
    assert all(0.5 * mu <= h <= 1.5 * mu for h in heights)
    assert heights != scene.heights()
    # Rendering must use the substituted heights.
    assert _l_vt(_normalized_camera(scene), heights,
                 synth.render_detections(scene, noise)) <= 1e-12
    assert synth.effective_heights(scene) == scene.heights()


def test_huge_box_noise_keeps_boxes_valid():
    scene = synth.sample_scene(n_objects=5, seed=17)
    # DetectionBox construction enforces the coordinate ordering.
    boxes = synth.render_detections(scene, synth.NoiseModel(box_sigma=0.5))
    assert len(boxes) == 5


def test_sampling_statistics_match_priors():
    # 10^4 person heights pooled over seeds; the same scenes double as the
    # box-noise sample.  Both bounds are far wider than the Monte Carlo
    # error at this size, so fixed seeds keep this deterministic.
    prior = DEFAULT_PRIORS["person"]
    noise = synth.NoiseModel(box_sigma=0.002)
    heights, diffs = [], []
    for seed in range(500):
        scene = synth.sample_scene(n_objects=20, seed=10_000 + seed)
        heights.extend(scene.heights())
        clean = synth.render_detections(scene)
        noisy = synth.render_detections(scene, noise)
        for a, b in zip(clean, noisy):
            diffs += [b.u_left - a.u_left, b.u_right - a.u_right,
                      b.v_top - a.v_top, b.v_bottom - a.v_bottom]
    arr = np.asarray(heights)
    assert arr.size == 10_000
    assert abs(arr.mean() - prior.mean_m) <= 0.01
    assert abs(arr.std() - prior.sigma_m) <= 0.01
    spread = float(np.asarray(diffs).std())
    assert 0.8 * noise.box_sigma <= spread <= 1.2 * noise.box_sigma


# ---------------------------------------------------------------------------
# The generator's stream.  A seed must keep giving the same scenes and the
# same document bytes; these digests were computed from the one-attempt-
# at-a-time placement loop (`_reference_sample_scene` below).

_THREE_PRIORS = {**DEFAULT_PRIORS, "bike": HeightPrior(1.1, 0.1)}

# `synth` arguments of perfbench's experiment workload.
_EXPERIMENT_ARGS = ("--objects", "20", "--outlier-rate", "0.1",
                    "--categories", "person,car", "--box-noise", "0.002",
                    "--depth-max", "20", "--fov-max-deg", "80")


def _experiment_ranges() -> synth.SceneRanges:
    """The SceneRanges `synth` builds from `_EXPERIMENT_ARGS`."""
    return synth.SceneRanges(
        pitch_rad=(-math.radians(30.0), math.radians(30.0)),
        fov_rad=(math.radians(30.0), math.radians(80.0)),
        depth_m=(2.0, 20.0), categories=("person", "car"))


# name -> (ranges, objects, seeds, extra sample_scene arguments)
_PINNED_SCENES = {
    "default": (synth.SceneRanges(), 6, range(10), {}),
    "person+car": (synth.SceneRanges(categories=("person", "car")), 8,
                   range(100, 110), {}),
    "three categories": (
        synth.SceneRanges(categories=("person", "car", "bike")), 8,
        range(200, 210), {"prior_map": _THREE_PRIORS}),
    "experiment": (_experiment_ranges(), 20, range(300000, 300005), {}),
    # Pitched up over a short mast: 8 of the 10 seeds redraw the camera,
    # seed 7 twenty times.
    "camera redraws": (
        synth.SceneRanges(pitch_rad=(0.2, 0.8), cam_height_m=(0.5, 1.5),
                          depth_m=(2.0, 4.0)), 4, range(10), {}),
    # Few attempts: blocks are cut short, and seeds 4 and 9 fail an
    # object and redraw the camera.
    "few attempts": (synth.SceneRanges(), 10, range(10),
                     {"depth_attempts": 40}),
}

_PINNED_SCENE_DIGESTS = {
    "default":
        "5d9dd3450601ab5a16e12c5cce0adb8490d03cc76fc69e1c436cc7427a8462f5",
    "person+car":
        "a8a9de54c13c489db106b6d760d2b02b083c753d25cd8cfbed7d98f18dd17ee2",
    "three categories":
        "d930f145293252780a9b21c905dee5d13032bedb3484d5a5c23d971728751082",
    "experiment":
        "0f6e079c3fc5ec40adcd63061b3be540acbe3a946cf2d9278cf8422d5fde4e59",
    "camera redraws":
        "077ddb4fc58c300c071126324a577d5be7b5c225c8f6901bab94bb41e86e1f0e",
    "few attempts":
        "2b05197f4793335376fc7e984f9698f64d1d8b9aa1eec901be0148d414ea2a65",
}

_PINNED_DOCUMENTS_DIGEST = (
    "396c3a841c28bf98db531c9fe5dd5d9a5f933ee30c5571f258d25f40b3216f3c")


def _scene_set_digest(name: str) -> str:
    ranges, n, seeds, extra = _PINNED_SCENES[name]
    h = hashlib.sha256()
    for seed in seeds:
        try:
            scene = synth.sample_scene(ranges, n_objects=n, seed=seed, **extra)
        except ValueError as exc:
            h.update(f"ValueError: {exc}".encode())
        else:
            h.update(repr(scene).encode())
    return h.hexdigest()


def _documents_digest(out) -> str:
    # emit_document output of the experiment workload's synth arguments,
    # with box noise and outliers.
    assert cli.main(["synth", "--out", str(out), "--scenes", "6",
                     "--seed", "300000", *_EXPERIMENT_ARGS]) == 0
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", list(_PINNED_SCENES))
def test_scene_stream_is_pinned(name):
    assert _scene_set_digest(name) == _PINNED_SCENE_DIGESTS[name]


def test_synth_document_bytes_are_pinned(tmp_path, capsys):
    assert _documents_digest(tmp_path / "docs") == _PINNED_DOCUMENTS_DIGEST
    capsys.readouterr()


# ---------------------------------------------------------------------------
# Block placement against the one-attempt-at-a-time loop it replaces.

def _reference_place(rng, camera, v0, ranges, height, width, cat,
                     depth_attempts):
    """The per-attempt placement loop `_place_object` replaces."""
    for _ in range(depth_attempts):
        depth = rng.uniform(*ranges.depth_m)
        lateral = rng.uniform(-1.0, 1.0) * ranges.lateral_frac * depth
        obj = GroundObject(depth, height, lateral, width, cat)
        try:
            u_l, u_r, v_t, v_b = synth._corner_box(camera, obj)
        except ValueError:
            continue
        if (0.0 <= v_t and v_b <= 1.0 and v_b > v0 + ranges.horizon_margin
                and 0.0 <= u_l and u_r <= camera.image_w_px):
            return obj
    return None


def _reference_sample_scene(ranges, n_objects, seed, prior_map,
                            camera_attempts, depth_attempts):
    """`sample_scene` placing one attempt at a time, the reference the
    block path must match.  Returns the scene (None where it gives up)
    and the generator it drew from."""
    rng = synth._rng(seed, synth._STREAM_SCENE)
    aspect = ranges.image_w_px / ranges.image_h_px
    for _ in range(camera_attempts):
        camera = CameraParams.from_fov(
            rng.uniform(*ranges.pitch_rad),
            rng.uniform(*ranges.fov_rad),
            rng.uniform(*ranges.cam_height_m),
            ranges.image_w_px, ranges.image_h_px)
        cam_n = CameraParams.from_fov(camera.pitch_rad, camera.fov_rad,
                                      camera.cam_height_m, aspect, 1.0)
        v0 = horizon_from_pitch(cam_n).v0
        objects = []
        for _ in range(n_objects):
            cat = str(rng.choice(list(ranges.categories)))
            height = synth._sample_height(rng, prior_map[cat])
            placed = _reference_place(rng, cam_n, v0, ranges, height,
                                      synth.DEFAULT_WIDTHS.get(cat, 0.5), cat,
                                      depth_attempts)
            if placed is None:
                break
            objects.append(placed)
        if len(objects) == n_objects:
            return synth.SceneSpec(camera, tuple(objects), seed), rng
    return None, rng


def _block_sample_scene(ranges, n_objects, seed, prior_map, camera_attempts,
                        depth_attempts):
    """`synth.sample_scene`, plus the generator it drew from."""
    made, rng_for = [], synth._rng

    def spy(seed, stream):
        made.append(rng_for(seed, stream))
        return made[-1]

    with mock.patch.object(synth, "_rng", spy):
        try:
            scene = synth.sample_scene(ranges, n_objects, seed, prior_map,
                                       camera_attempts, depth_attempts)
        except ValueError as exc:
            assert "could not place" in str(exc)
            scene = None
    return scene, made[0]


def _raise_on_some(corner_box):
    """`_corner_box` that also raises for a fixed subset of depths, as it
    does for an object crossing the camera plane."""
    def wrapped(camera, obj, matrix=None):
        if int(obj.depth_m * 1e6) % 3 == 0:
            raise ValueError("singular configuration")
        return corner_box(camera, obj, matrix)
    return wrapped


def _range(lo, width):
    return (lo, lo + width)


# Block layouts: the shipped one, and ones that start blocks at the first
# attempt or cut them small, so that most accepted objects come from a
# block and block edges fall everywhere.
_BLOCKS = st.fixed_dictionaries({
    "_SCALAR_ATTEMPTS": st.sampled_from([synth._SCALAR_ATTEMPTS, 0, 1]),
    "_FIRST_BLOCK": st.sampled_from([synth._FIRST_BLOCK, 1, 3]),
})


@given(pitch=st.tuples(st.floats(-0.5, 0.8), st.floats(0.0, 0.5)),
       fov=st.tuples(st.floats(0.4, 1.6), st.floats(0.0, 0.8)),
       cam_height=st.tuples(st.floats(0.3, 8.0), st.floats(0.0, 4.0)),
       depth=st.tuples(st.floats(0.5, 12.0), st.floats(0.0, 30.0)),
       lateral_frac=st.sampled_from([0.0, 0.35, 0.8]),
       categories=st.lists(st.sampled_from(["person", "car", "bike"]),
                           min_size=1, max_size=3, unique=True),
       n_objects=st.integers(1, 8),
       # Half the budgets end in blocks; 300 reaches the third block.
       depth_attempts=st.one_of(st.sampled_from([1, 2, 3]),
                                st.sampled_from([50, 300])),
       raising=st.booleans(), blocks=_BLOCKS,
       seed=st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=150)
def test_block_placement_matches_the_per_attempt_loop(
        pitch, fov, cam_height, depth, lateral_frac, categories, n_objects,
        depth_attempts, raising, blocks, seed):
    ranges = synth.SceneRanges(
        pitch_rad=_range(*pitch), fov_rad=_range(*fov),
        cam_height_m=_range(*cam_height), depth_m=_range(*depth),
        lateral_frac=lateral_frac, categories=tuple(categories))
    args = (ranges, n_objects, seed, _THREE_PRIORS, 3, depth_attempts)
    corner_box = _raise_on_some(synth._corner_box) if raising \
        else synth._corner_box
    with mock.patch.multiple(synth, _corner_box=corner_box, **blocks):
        expected, ref_rng = _reference_sample_scene(*args)
        got, rng = _block_sample_scene(*args)
    assert got == expected
    # The stream is left where the reference leaves it, including the
    # 32-bit half a bounded draw buffers.
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert np.array_equal(rng.integers(0, 3, size=5),
                          ref_rng.integers(0, 3, size=5))
    assert np.array_equal(rng.random(4), ref_rng.random(4))


@given(pitch=st.floats(-0.5, 0.4), fov=st.floats(0.5, 1.6),
       cam_height=st.floats(0.5, 8.0),
       depth=st.tuples(st.floats(1.0, 10.0), st.floats(0.0, 40.0)),
       height=st.floats(0.3, 3.0), width=st.sampled_from([0.5, 1.8]),
       depth_attempts=st.sampled_from([1, 2, 3, 50, 300]),
       buffered=st.booleans(), blocks=_BLOCKS,
       seed=st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=150)
def test_one_placement_leaves_the_stream_where_the_loop_does(
        pitch, fov, cam_height, depth, height, width, depth_attempts,
        buffered, blocks, seed):
    camera = CameraParams.from_fov(pitch, fov, cam_height, 4.0 / 3.0, 1.0)
    v0 = horizon_from_pitch(camera).v0
    ranges = synth.SceneRanges(depth_m=_range(*depth))
    args = (v0, ranges, height, width, "person", depth_attempts)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:  # a bounded draw leaves half of a 64-bit output buffered
        assert rng.integers(0, 2) == ref_rng.integers(0, 2)
    with mock.patch.multiple(synth, **blocks):
        placed = synth._place_object(rng, camera,
                                     geometry.projection_matrix(camera), *args)
    assert placed == _reference_place(ref_rng, camera, *args)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert np.array_equal(rng.integers(0, 3, size=5),
                          ref_rng.integers(0, 3, size=5))


def test_infeasible_ranges_consume_every_attempt():
    # The camera plane passes through every candidate's bottom, so every
    # check raises; the stream still moves by two doubles per attempt.
    pitch = math.atan2(2.0, 0.5)
    ranges = synth.SceneRanges(pitch_rad=(pitch, pitch),
                               cam_height_m=(0.5, 0.5), depth_m=(2.0, 2.0))
    args = (ranges, 2, 5, DEFAULT_PRIORS, 2, 300)
    expected, ref_rng = _reference_sample_scene(*args)
    got, rng = _block_sample_scene(*args)
    assert got is None and expected is None
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_screen_keeps_nan_candidates():
    cam = CameraParams.from_fov(0.1, 1.0, 1.6, 4.0 / 3.0, 1.0)
    v0 = horizon_from_pitch(cam).v0
    depths = np.array([math.nan, 5.0, 1e6])
    laterals = np.array([0.0, math.nan, 0.0])
    keep = synth._screen(cam, v0, synth.SceneRanges(), depths, laterals,
                         1.7, 0.5)
    assert keep.tolist() == [True, True, False]


def _last_accepted(fits, good, bad):
    """Bisect between an accepted and a rejected value down to adjacent
    floats; returns the accepted one, on the edge of what `fits` takes."""
    while True:
        mid = good + (bad - good) / 2.0
        if mid in (good, bad):
            return good
        if fits(mid):
            good = mid
        else:
            bad = mid


@given(pitch=st.floats(-0.5, 0.5), fov=st.floats(0.5, 1.6),
       cam_height=st.floats(0.5, 8.0), height=st.floats(0.3, 3.0),
       width=st.sampled_from([0.5, 1.8]))
@settings(deadline=None, max_examples=100)
def test_screen_keeps_candidates_on_the_edge_of_the_frame(
        pitch, fov, cam_height, height, width):
    # Walk from an accepted placement to each edge the check enforces
    # (near and far in depth, left and right in lateral offset) and keep
    # the last accepted float: the screen must not drop it.
    camera = CameraParams.from_fov(pitch, fov, cam_height, 4.0 / 3.0, 1.0)
    v0 = horizon_from_pitch(camera).v0
    ranges = synth.SceneRanges()
    v_mid = (v0 + ranges.horizon_margin + 1.0) / 2.0
    assume(v0 + ranges.horizon_margin < 1.0)
    depth = float(depths_from_bottoms(camera, v_mid))
    matrix = geometry.projection_matrix(camera)

    def fits(depth, lateral):
        return synth._fits(camera, matrix, GroundObject(depth, height,
                                                        lateral, width),
                           v0, ranges)

    assume(fits(depth, 0.0))
    edges = [(_last_accepted(lambda d: fits(d, 0.0), depth, far), 0.0)
             for far in (1e-3, 1e4)]
    edges += [(depth, _last_accepted(lambda x: fits(depth, x), 0.0, side))
              for side in (-1e4, 1e4)]
    depths, laterals = np.array(edges).T
    assert synth._screen(camera, v0, ranges, depths, laterals, height,
                         width).all()


def test_placement_checks_few_candidates_per_object(monkeypatch):
    # A count, not a timing: the one-attempt-at-a-time loop made 35.4
    # `_corner_box` checks per object here.
    calls = 0
    corner_box = synth._corner_box

    def counted(camera, obj, matrix=None):
        nonlocal calls
        calls += 1
        return corner_box(camera, obj, matrix)

    monkeypatch.setattr(synth, "_corner_box", counted)
    placed = sum(len(synth.sample_scene(_experiment_ranges(), n_objects=20,
                                        seed=seed).objects)
                 for seed in range(300000, 300040))
    assert placed == 800
    assert calls < 3 * placed


def test_render_builds_one_projection_matrix_per_scene(monkeypatch):
    # Every object of a scene shares the camera, so its 3x4 matrix is
    # built once; the boxes stay those of a matrix built per object.
    scene = synth.sample_scene(_experiment_ranges(), n_objects=20, seed=7)
    noise = synth.NoiseModel(box_sigma=0.002)
    expected = synth.render_detections(scene, noise)
    calls = 0
    build = geometry.projection_matrix

    def counted(camera):
        nonlocal calls
        calls += 1
        return build(camera)

    monkeypatch.setattr(geometry, "projection_matrix", counted)
    assert synth.render_detections(scene, noise) == expected
    assert calls == 1
    corner_box = synth._corner_box
    monkeypatch.setattr(synth, "_corner_box", lambda camera, obj, matrix=None:
                        corner_box(camera, obj))
    calls = 0
    assert synth.render_detections(scene, noise) == expected
    assert calls == 1 + len(scene.objects)


def test_placement_builds_one_projection_matrix_per_camera_draw(monkeypatch):
    # Every placement checked under one camera draw shares its 3x4 matrix,
    # however many candidates the draw tries.
    builds, draws = 0, []
    build, place = geometry.projection_matrix, synth._place_object

    def counted(camera):
        nonlocal builds
        builds += 1
        return build(camera)

    def spy(rng, camera, *args):
        if not draws or draws[-1] is not camera:
            draws.append(camera)
        return place(rng, camera, *args)

    monkeypatch.setattr(geometry, "projection_matrix", counted)
    monkeypatch.setattr(synth, "_place_object", spy)
    total_draws = 0
    for seed in range(40):
        builds, draws = 0, []
        synth.sample_scene(_experiment_ranges(), n_objects=20, seed=seed)
        assert builds <= len(draws)
        total_draws += len(draws)
    assert total_draws > 40  # some scenes redraw their camera
