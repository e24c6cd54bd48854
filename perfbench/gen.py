"""Seeded detection documents for the `batch` and `crowd` workloads.

The projection here is a standalone pinhole model (y-up world, ground at
y = 0, camera at height h looking along +z, pitched by `pitch`, image
coordinates normalized by image height with v growing downward).  It
shares no code with `scenescale`, so a change to `scenescale.synth` or
`scenescale.geometry` cannot move these inputs.

Every document is schema version 1 with a `ground_truth` block holding
the true camera height and the true (posed) height of every detection,
including the detections that are made for the ingestion filters to
reject:

* persons too far away to pass the box-height filter;
* merged person boxes too wide for the aspect filter;
* persons standing on a structure above the camera, whose feet project
  above the horizon;
* keypointed persons whose ankles are not visible.

Persons may carry a 17-point COCO skeleton, standing or crouched.  The
posed height of a crouched person is its upright height times the
skeleton's posture ratio, and its box spans the posed height.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

ASPECT = 640.0 / 480.0
WIDTH_M = {"person": 0.5, "car": 1.8}
HEIGHT_PRIOR = {"person": (1.70, 0.09), "car": (1.59, 0.21)}
BOX_SIGMA = 0.002
# Box-height band for detections meant to be kept: clear of the ingestion
# filter's 0.05..0.95 band even after box noise.
KEEP_BOX_H = (0.06, 0.9)
HORIZON_MARGIN = 0.01
HEAD_EXTENSION = 0.08


@dataclass(frozen=True)
class Shape:
    """Sampling ranges of one workload's documents."""

    pitch_deg: tuple[float, float]
    fov_deg: tuple[float, float]
    cam_height_m: tuple[float, float]
    depth_m: tuple[float, float]
    car_frac: float
    keypoint_frac: float      # share of kept persons that carry a skeleton
    crouch_frac: float        # share of skeletons that are crouched
    reject_rate: float        # expected filter-bound detections per kept one


BATCH = Shape(pitch_deg=(-20.0, 20.0), fov_deg=(40.0, 90.0),
              cam_height_m=(1.0, 6.0), depth_m=(3.0, 30.0), car_frac=0.3,
              keypoint_frac=0.4, crouch_frac=0.4, reject_rate=0.08)
# One fixed surveillance mount: every seed films new crowds from the same
# camera.  With only a few crowd documents per run, drawing the camera too
# would make a run's median camera error depend mostly on which cameras
# were drawn.
CROWD = Shape(pitch_deg=(-20.0, -20.0), fov_deg=(65.0, 65.0),
              cam_height_m=(6.0, 6.0), depth_m=(4.0, 40.0), car_frac=0.15,
              keypoint_frac=0.1, crouch_frac=0.0, reject_rate=0.01)


class Camera:
    def __init__(self, pitch, fov, height):
        self.pitch, self.fov, self.height = pitch, fov, height
        self.f = 0.5 / math.tan(fov / 2.0)
        self.st, self.ct = math.sin(pitch), math.cos(pitch)
        self.v0 = 0.5 + self.f * math.tan(pitch)

    def project(self, x, y, z):
        """(u, v, camera-frame depth) of world points, vectorized."""
        dy = y - self.height
        zc = self.st * dy + self.ct * z
        with np.errstate(divide="ignore", invalid="ignore"):
            u = ASPECT / 2.0 + self.f * x / zc
            v = 0.5 + self.f * (-self.ct * dy + self.st * z) / zc
        return u, v, zc


def _boxes(cam, depth, lateral, base_y, height, width):
    """Amodal boxes (u_l, u_r, v_t, v_b) and the smaller camera depth."""
    u_l, v_b, zb = cam.project(lateral - width / 2, base_y, depth)
    u_r, _, _ = cam.project(lateral + width / 2, base_y, depth)
    ut_l, v_t, zt = cam.project(lateral - width / 2, base_y + height, depth)
    ut_r, _, _ = cam.project(lateral + width / 2, base_y + height, depth)
    return (np.minimum(u_l, ut_l), np.maximum(u_r, ut_r), v_t, v_b,
            np.minimum(zb, zt))


def _place(rng, cam, shape, height, width, *, base_y=0.0, box_h=KEEP_BOX_H,
           depth_m=None, above_horizon=False, aspect=None):
    """Rejection-sample depth and lateral offset for objects of the given
    heights until each box lies in frame; NaN rows where no draw fits.
    `aspect` bounds box height over width per object, as (low, high)
    arrays."""
    n = len(height)
    lo, hi = depth_m or shape.depth_m
    out = np.full((n, 4), np.nan)
    todo = np.arange(n)
    for _ in range(60):
        if todo.size == 0:
            break
        k = todo.size
        z = rng.uniform(lo, hi, size=k)
        x = rng.uniform(-0.35, 0.35, size=k) * z
        u_l, u_r, v_t, v_b, zc = _boxes(cam, z, x, base_y, height[todo],
                                        width[todo])
        bh = v_b - v_t
        ok = ((zc > 1e-3) & (u_l >= 0.0) & (u_r <= ASPECT) & (v_t >= 0.005)
              & (v_b <= 0.995) & (bh >= box_h[0]) & (bh <= box_h[1]))
        if aspect is not None:
            ratio = bh / (u_r - u_l)
            ok &= (ratio >= aspect[0][todo]) & (ratio <= aspect[1][todo])
        if above_horizon:
            ok &= v_b < cam.v0 - HORIZON_MARGIN
        else:
            ok &= v_b > cam.v0 + HORIZON_MARGIN
        hit = todo[ok]
        out[hit] = np.stack([u_l, u_r, v_t, v_b], axis=1)[ok]
        todo = todo[~ok]
    return out


# ---------------------------------------------------------------------------
# COCO skeletons.

def _skeleton(bend: float) -> tuple[np.ndarray, float]:
    """Unit-chain skeleton (17 x 2, v down, head point at the origin) with
    both knees bent by `bend` radians, and its posture ratio (vertical
    extent over upright extent, both extended above the head)."""
    head_sh, torso, thigh, shin = 0.15, 0.30, 0.28, 0.27
    p = np.zeros((17, 2))
    p[0] = (0.0, 0.02)                      # nose
    p[1], p[2] = (-0.02, 0.0), (0.02, 0.0)  # eyes: highest head points
    p[3], p[4] = (-0.04, 0.01), (0.04, 0.01)
    sh_v = head_sh
    hip_v = sh_v + torso
    p[5], p[6] = (-0.09, sh_v), (0.09, sh_v)
    p[7], p[8] = (-0.11, sh_v + 0.15), (0.11, sh_v + 0.15)
    p[9], p[10] = (-0.11, sh_v + 0.28), (0.11, sh_v + 0.28)
    p[11], p[12] = (-0.06, hip_v), (0.06, hip_v)
    knee_v = hip_v + thigh * math.cos(bend)
    knee_u = thigh * math.sin(bend)
    ankle_v = knee_v + shin * math.cos(bend)
    p[13], p[14] = (knee_u, knee_v), (knee_u, knee_v)
    p[15], p[16] = (0.0, ankle_v), (0.0, ankle_v)
    head = p[1]
    sh_mid = (p[5] + p[6]) / 2
    hip_mid = (p[11] + p[12]) / 2
    chain = (np.hypot(*(head - sh_mid)) + np.hypot(*(sh_mid - hip_mid))
             + np.hypot(*(hip_mid - p[13])) + np.hypot(*(p[13] - p[15])))
    ext = HEAD_EXTENSION * chain
    ratio = (ankle_v - (head[1] - ext)) / (chain + ext)
    # Shift so the extended head top sits at v = 0.
    p[:, 1] += ext
    return p, float(ratio)


def _fit_skeleton(points: np.ndarray, box, visible_ankles: bool) -> list:
    u_l, u_r, v_t, v_b = box
    extent = points[:, 1].max()
    scale = (v_b - v_t) / extent
    u_c = (u_l + u_r) / 2
    out = []
    for i, (u, v) in enumerate(points):
        if i in (15, 16) and not visible_ankles:
            out.append([0.0, 0.0, 0.0])
        else:
            out.append([float(u_c + u * scale), float(v_t + v * scale), 2.0])
    return out


# ---------------------------------------------------------------------------
# Documents.

def _heights(rng, cats):
    mu = np.array([HEIGHT_PRIOR[c][0] for c in cats])
    sd = np.array([HEIGHT_PRIOR[c][1] for c in cats])
    return np.clip(rng.normal(mu, sd), mu - 3 * sd, mu + 3 * sd)


def _noisy(rng, box):
    for _ in range(100):
        d = rng.normal(0.0, BOX_SIGMA, size=4)
        u_l, u_r, v_t, v_b = box + d
        if u_l < u_r and v_t < v_b:
            return [float(u_l), float(u_r), float(v_t), float(v_b)]
    return [float(c) for c in box]


def make_document(rng: np.random.Generator, shape: Shape, n_kept: int) -> dict:
    """One schema-v1 document with `n_kept` solvable detections plus the
    filter-bound ones; ground truth covers every detection."""
    for _ in range(100):
        cam = Camera(math.radians(rng.uniform(*shape.pitch_deg)),
                     math.radians(rng.uniform(*shape.fov_deg)),
                     rng.uniform(*shape.cam_height_m))
        cats = np.where(rng.uniform(size=n_kept) < shape.car_frac, "car",
                        "person")
        upright = _heights(rng, cats)
        person = cats == "person"
        has_kp = person & (rng.uniform(size=n_kept) < shape.keypoint_frac)
        crouch = has_kp & (rng.uniform(size=n_kept) < shape.crouch_frac)
        bend = np.where(crouch, rng.uniform(0.8, 1.2, size=n_kept), 0.0)
        skels = [_skeleton(b) if k else None for b, k in zip(bend, has_kp)]
        posed = np.array([upright[i] * (s[1] if s else 1.0)
                          for i, s in enumerate(skels)])
        width = np.array([WIDTH_M[c] for c in cats])
        # Persons stay inside the aspect filter's 1.2..6 band, clear of box noise.
        band = (np.where(person, 1.3, 0.0), np.where(person, 5.0, np.inf))
        boxes = _place(rng, cam, shape, posed, width, aspect=band)
        if not np.isnan(boxes).any():
            break
    else:
        raise RuntimeError("could not place the objects of a document")

    dets, truth = [], []
    for i in range(n_kept):
        det = {"category": str(cats[i]), "box": _box_dict(_noisy(rng, boxes[i]))}
        if skels[i] is not None:
            det["keypoints"] = _fit_skeleton(skels[i][0], boxes[i], True)
        dets.append(det)
        truth.append(float(posed[i]))

    n_rej = int(rng.poisson(shape.reject_rate * n_kept))
    for kind in rng.integers(0, 4, size=n_rej):
        rejected = _rejected_detection(rng, cam, shape, int(kind))
        if rejected is not None:
            dets.append(rejected[0])
            truth.append(rejected[1])

    order = rng.permutation(len(dets))
    return {
        "schema_version": 1,
        "image": {"width_px": 640.0, "height_px": 480.0},
        "calibration": {"fov_rad": cam.fov, "v0": cam.v0},
        "detections": [dets[i] for i in order],
        "ground_truth": {"cam_height_m": cam.height,
                         "object_heights_m": [truth[i] for i in order]},
        "meta": {"generator": "perfbench"},
    }


def _box_dict(b):
    return {"u_left": b[0], "u_right": b[1], "v_top": b[2], "v_bottom": b[3]}


def _rejected_detection(rng, cam, shape, kind):
    """(detection, true height) of a person the filters should reject:
    0 too small, 1 merged box with a bad aspect, 2 feet above the horizon,
    3 keypoints without ankles.  None when the camera admits no such one."""
    h = _heights(rng, ["person"])
    w = np.array([WIDTH_M["person"]])
    if kind == 0:
        box = _place(rng, cam, shape, h, w, box_h=(0.015, 0.04),
                     depth_m=(shape.depth_m[1], 8 * shape.depth_m[1]))[0]
    elif kind == 2:
        base = cam.height + rng.uniform(1.0, 4.0)
        box = _place(rng, cam, shape, h, w, base_y=base,
                     above_horizon=True)[0]
    else:
        box = _place(rng, cam, shape, h, w,
                     aspect=(np.array([1.3]), np.array([5.0])))[0]
    if np.isnan(box).any():
        return None
    det = {"category": "person"}
    if kind == 1:
        span = box[3] - box[2]
        mid = (box[0] + box[1]) / 2
        half = span / rng.uniform(0.5, 1.0) / 2
        box = np.array([mid - half, mid + half, box[2], box[3]])
    if kind == 3:
        det["keypoints"] = _fit_skeleton(_skeleton(0.0)[0], box, False)
    det["box"] = _box_dict(_noisy(rng, box))
    return det, float(h[0])


def write_corpus(root, workload: str, seed: int, sizes) -> list[list[str]]:
    """Write one document per entry of `sizes` (detections meant to be
    kept) into `root`, grouped into chunk directories of `len(sizes[c])`
    documents; returns the document paths per chunk."""
    tag = {"batch": 1, "crowd": 2}[workload]
    rng = np.random.default_rng([seed, tag])
    chunks = []
    for c, chunk_sizes in enumerate(sizes):
        d = root / f"chunk_{c:03d}"
        d.mkdir(parents=True, exist_ok=True)
        paths = []
        for j, n in enumerate(chunk_sizes):
            shape = BATCH if workload == "batch" else CROWD
            doc = make_document(rng, shape, int(n))
            p = d / f"doc_{j:04d}.json"
            p.write_text(json.dumps(doc), encoding="utf-8")
            paths.append(str(p))
        chunks.append(paths)
    return chunks
