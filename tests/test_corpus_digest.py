"""Byte guard: everything the CLI writes for the seeded corpora of
`tools/corpus_digest.py` (synth, solve with each method, eval, overlay,
the committed fixture and a hand-written scene with a box on the
horizon) hashes to one pinned total."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

PINNED_TOTAL = "2018540741b3666b013322e789beaf5e08e58b65027059c349403248aa07b55b"


def test_corpus_digest_total_is_pinned(tmp_path):
    run = subprocess.run(
        [sys.executable, str(REPO / "tools" / "corpus_digest.py"),
         str(tmp_path / "out")],
        capture_output=True, text=True, check=True)
    total = run.stdout.splitlines()[-1]
    assert total == f"total {PINNED_TOTAL}", (
        "the CLI's output bytes changed.  If the change is deliberate, "
        "update PINNED_TOTAL and give the old and new totals in CHANGES.md; "
        f"got {total!r}")
