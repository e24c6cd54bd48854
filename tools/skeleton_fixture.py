"""Write `tests/fixtures/skeletons.json`, the keypoint fixture.

One batch-style document from `perfbench/gen.py`'s `make_document` (seed
10, 18 detections meant to be kept): 19 detections, 9 of them with a
COCO skeleton, crouched ones among them, and one keypointed person
without visible ankles that the amodal filter rejects.  Two kept
skeletons are then edited so the posture ratio meets its other cases:
one hides both knees (no knee and ankle pair: ratio 1.0), one hides its
left knee (only the right leg is scored).  The document is written in
the canonical form of `emit_document`.

Usage: python tools/skeleton_fixture.py [OUT]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]

from gen import BATCH, make_document  # noqa: E402
from scenescale.documents import emit_document, parse_document  # noqa: E402

SEED = 10
N_KEPT = 18
LEFT_KNEE, RIGHT_KNEE, LEFT_ANKLE, RIGHT_ANKLE = 13, 14, 15, 16


def skeleton_document() -> str:
    doc = make_document(np.random.default_rng(SEED), BATCH, N_KEPT)
    kept = [det["keypoints"] for det in doc["detections"]
            if "keypoints" in det and det["keypoints"][LEFT_ANKLE][2] != 0]
    for knee in (LEFT_KNEE, RIGHT_KNEE):
        kept[0][knee] = [0.0, 0.0, 0.0]
    kept[1][LEFT_KNEE] = [0.0, 0.0, 0.0]
    return emit_document(parse_document(json.dumps(doc)))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out = Path(argv[0]) if argv else REPO / "tests" / "fixtures" / "skeletons.json"
    out.write_text(skeleton_document(), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
