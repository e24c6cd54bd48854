#!/usr/bin/env python3
"""scenescale benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload batch --seed 1 --seconds 15 --trace 0

Every workload runs the same passes, as closed loops with a single client
in this process, over its own seeded inputs:

* the research loop through the CLI: `synth`, `solve`, `eval`, `overlay`;
* `solve DIR` with the cascade method at `--jobs 1` and `--jobs 2`, and
  with `--method pgm` and `--method pgm-fixed`;
* the Python API path, `parse_document -> filter_detections ->
  solve_scene`, one document at a time.

Work is done in rounds of one corpus chunk each, in whole cycles over the
corpus until `--seconds` have passed.  Outputs are checked between rounds
(see `Checks`).  Times are in reference seconds (see `probe`).

With `--trace 0` the last stdout line carries the end-to-end metrics;
with `--trace 1` it carries the per-layer metrics of a traced run (see
`spans.py`), and the spans are written to `.bench_out/`.  Details of each
run, with its environment record, go to `.bench_out/` as JSON.
"""

from __future__ import annotations

import os

# One BLAS thread per process: the `--jobs 2` pass runs two workers on a
# two-core machine.  Must be set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
JOBS = 2
SETUP_SAMPLES = 12
TIME_CAP_S = 120.0  # no new cycle after this, to stay inside 180 s a run


@dataclass(frozen=True)
class Workload:
    name: str
    chunks: int
    # Kept detections per document, one tuple per chunk; empty when the
    # documents are the research loop's synth scenes.
    sizes: tuple[tuple[int, ...], ...]
    synth_scenes: int          # research-loop scenes per round
    synth_args: tuple[str, ...]
    # Times each document goes through the API path per round: enough
    # samples that the p99 has ten beyond it where the corpus allows.
    latency_reps: int
    # Untraced CLI passes are repeated within a round until every pass has
    # run this long over a cycle of the corpus: the machine's speed varies
    # in bursts of well under a second, which a single short pass would
    # catch whole.
    pass_s_per_cycle: float = 1.5


# Capping depth at 20 m and the field of view at 80 deg keeps enough boxes
# above the box-height filter that no scene loses all of its detections
# (with either left at its default, some scenes in a few thousand do, and
# `solve` rightly fails them).
_SYNTH = ("--categories", "person,car", "--box-noise", "0.002",
          "--depth-max", "20", "--fov-max-deg", "80")

WORKLOADS = {
    # Many small documents: per-document cost of cli, documents, priors
    # and init dominates.
    "batch": Workload(
        "batch", chunks=7,
        sizes=tuple(tuple(4 + (c * 84 + j) % 37 for j in range(84))
                    for c in range(7)),
        synth_scenes=2,
        synth_args=("--objects", "12", "--outlier-rate", "0.05", *_SYNTH),
        latency_reps=2),
    # A few documents of 500-2000 detections: the dense refine solve and
    # the per-layer array work dominate.  Largest first in each chunk:
    # `solve --jobs 2` hands documents out in name order, so the two
    # workers finish at about the same time.
    "crowd": Workload(
        "crowd", chunks=3, sizes=((2000, 1500, 1000, 500),) * 3,
        synth_scenes=1,
        synth_args=("--objects", "200", "--outlier-rate", "0.05", *_SYNTH),
        latency_reps=1),
    # The research loop through the CLI: synth placement dominates.
    "experiment": Workload(
        "experiment", chunks=8, sizes=(), synth_scenes=40,
        synth_args=("--objects", "20", "--outlier-rate", "0.1", *_SYNTH),
        latency_reps=4),
}
TINY = {  # smoke-test sizes
    "batch": dict(chunks=1, sizes=((4, 9, 15),), synth_scenes=2,
                  pass_s_per_cycle=0.1),
    "crowd": dict(chunks=1, sizes=((90, 60),), synth_scenes=1,
                  pass_s_per_cycle=0.1),
    "experiment": dict(chunks=1, synth_scenes=3, pass_s_per_cycle=0.1),
}

METHOD_PASSES = (  # (pass, extra solve arguments)
    ("solve", ()),
    ("solve_j2", ("--jobs", str(JOBS))),
    ("pgm", ("--method", "pgm")),
    ("pgm_fixed", ("--method", "pgm-fixed")),
)


class Failure(Exception):
    pass


# ---------------------------------------------------------------------------
# Reference probe.
#
# The benchmark shares its cores and disk with other tenants' work, which
# switches between a quiet and a loaded phase that is up to 2x slower, in
# stretches of seconds to minutes, with shorter bursts on top.  A fixed
# piece of work, the probe, is timed at the start of each round and
# between the calls of every pass (see `Bench._timed`), and passes are
# reported in reference seconds: the wall seconds between two probes
# divided by the probe's slowdown over its quiet-machine time, taken as
# the mean of the two.  The probe is interpreter work followed by what
# the CLI does with each output: serialize JSON, then write it
# atomically.  It runs no scenescale code, so a change to scenescale
# moves reference seconds as it moves wall seconds.  Wall seconds, and
# every end-to-end metric in wall seconds, go to the run record.

PROBE_ITERATIONS = 50_000
PROBE_RUNS = 3
PROBE_REF_S = 0.009  # one probe run on a quiet machine
PROBE_EVERY_S = 0.5
_PROBE_DOC = {"detections": [
    {"box": {"u_left": i / 1000, "u_right": i / 500 + 0.01, "v_top": 0.25,
             "v_bottom": 0.5}, "category": "person", "weight": 1.0}
    for i in range(60)]}


def probe(work: Path) -> float:
    """The probe's time, as the median of `PROBE_RUNS` runs back to back,
    so that a burst shorter than the probe does not set the scale of the
    calls around it; `work` takes the written files."""
    times = []
    for _ in range(PROBE_RUNS):
        table: dict[int, int] = {}
        acc = 0
        t0 = time.perf_counter()
        for i in range(PROBE_ITERATIONS):
            acc = (acc + i * i) % 1_000_003
            table[i & 1023] = acc
        for k in range(3):
            text = json.dumps(_PROBE_DOC, indent=2, sort_keys=True)
            fd, tmp = tempfile.mkstemp(dir=work)
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, work / f"probe_{k}.json")
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe_helper(work: str) -> None:
    """The helper process of `PairProbe`: one probe per line of input."""
    Path(work).mkdir(exist_ok=True)
    for _ in sys.stdin:
        print(probe(Path(work)), flush=True)


class PairProbe:
    """The probe run in this process and, at the same time, in a helper
    process: the slower of the two is the probe of work that needs both
    cores, as the `--jobs 2` pass does, which another tenant busy on one
    core slows far more than work in one process."""

    def __init__(self, work: Path):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", "import sys, run; "
             "run.probe_helper(sys.argv[1])", str(work / "pair_helper")],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(HERE)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self, work: Path) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        own = probe(work)
        line = self.proc.stdout.readline()
        if not line:
            raise Failure("the pair probe's helper process ended")
        return max(own, float(line))

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def fix_mmap_threshold() -> None:
    """Serve every allocation of 1 MiB or more with its own mapping.

    glibc otherwise raises its mmap threshold after large frees, up to
    32 MiB, so whether a crowd solve's 32 MB matrices come from fresh
    mappings or from a fragmented heap depends on allocation history, and
    peak resident memory moved by 20% between identical runs.  With a
    fixed threshold it follows the live data.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    m_mmap_threshold = -3
    libc.mallopt(ctypes.c_int(m_mmap_threshold), ctypes.c_int(1 << 20))


# ---------------------------------------------------------------------------
# Environment record.

def _blas_threads_reported() -> int | None:
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _command_output(argv) -> str:
    try:
        res = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = os.cpu_count() or 1
    reported = _blas_threads_reported()
    threads = reported or BLAS_THREADS
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads_reported": reported,
        "nproc": nproc,
        "jobs": JOBS,
        "busy_processes_x_blas_threads": JOBS * threads,
        "within_nproc": JOBS * threads <= nproc,
        "git_commit": _command_output(["git", "rev-parse", "HEAD"]),
        "output_fs": _command_output(["stat", "-f", "-c", "%T", str(OUT)]),
        "machine": platform.machine(),
    }


def measure_setup(work: Path) -> tuple[float, float]:
    """One fresh interpreter importing `scenescale.cli`: its wall seconds
    and the probe's time just after it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    # No timeout: with one, `subprocess` polls the child in sleeps of up
    # to 50 ms, which would quantize the measurement.
    subprocess.run([sys.executable, "-c", "import scenescale.cli"],
                   env=env, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0, probe(work)


# ---------------------------------------------------------------------------
# Output checks.

@dataclass
class Checks:
    """Correctness of every pass, counted per document and pass.

    A document fails a pass when the CLI call that carried it exits
    non-zero, or when one of its outputs fails a check:
    * results round-trip byte-exactly through `parse_results` and
      `emit_results`, with finite camera and object heights;
    * `--jobs 1` and `--jobs 2` results are byte-identical;
    * a repeated pass over a chunk reproduces its bytes (synth documents
      and every method's results);
    * the API path returns the camera height the CLI wrote.
    """

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    digests: dict[tuple[str, int], dict[str, str]] = field(default_factory=dict)

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(note)


def _digests(paths) -> dict[str, str]:
    return {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
            for p in paths}


# ---------------------------------------------------------------------------
# The benchmark proper.

@dataclass
class Round:
    """Timings of one round: pass -> [documents, wall seconds, reference
    seconds], the probe times in order, the API path's per-document wall
    seconds, and the documents of the round's chunk with their
    detections."""

    passes: dict[str, list] = field(default_factory=dict)
    probes: list[float] = field(default_factory=list)
    latency_s: list[float] = field(default_factory=list)
    docs: int = 0
    detections: int = 0

    def ref(self, *labels, wall: bool = False) -> float:
        """Reference (or wall) seconds spent in the given passes."""
        return sum(self.passes[k][1 if wall else 2] for k in labels)

    def wall(self) -> float:
        return sum(wall for _, wall, _ in self.passes.values())


class Bench:
    def __init__(self, wl: Workload, seed: int, work: Path, tracer=None):
        import scenescale
        from scenescale import cli, documents
        self.scenescale, self.cli, self.documents = scenescale, cli, documents
        self.wl, self.seed, self.work, self.tracer = wl, seed, work, tracer
        self.checks = Checks()
        self.rounds: list[Round] = []
        # Set-up samples: (wall seconds, probe seconds around the sample).
        self.setup: list[tuple[float, float]] = []
        self.pair: PairProbe | None = None
        self.cam_err: dict[tuple[int, str], float] = {}
        self.obj_err: dict[tuple[int, str], list[float]] = {}
        self.cli_cam: dict[tuple[int, str], float] = {}
        self.visited: set[int] = set()
        self.truth: dict[tuple[int, str], dict] = {}
        self.corpus: list[list[str]] = []
        if wl.sizes:
            import gen
            self.corpus = gen.write_corpus(work / "corpus", wl.name, seed,
                                           wl.sizes)
            for c, paths in enumerate(self.corpus):
                for p in paths:
                    doc = json.loads(Path(p).read_text(encoding="utf-8"))
                    self.truth[(c, Path(p).name)] = doc["ground_truth"]

    def close(self) -> None:
        if self.pair is not None:
            self.pair.close()

    def units(self, c: int) -> int:
        """Documents of chunk `c`: per-layer metrics are per one of these."""
        return len(self.corpus[c]) if self.wl.sizes else self.wl.synth_scenes

    # -- timing -------------------------------------------------------------

    def _timed(self, label: str, docs: int, fn, reps: int = 0):
        """Call `fn`, which handles `docs` documents a call, as one timed
        pass: `reps` times, or if `reps` is 0 until the pass has run its
        share of the workload's `pass_s_per_cycle` (once when traced).

        A probe follows the last call and every call that ends
        `PROBE_EVERY_S` or more after the previous probe; the calls between
        two probes are scaled by the mean of the two.  The `--jobs 2` pass
        is probed on both cores (`PairProbe`).  Returns the result of every
        call.
        """
        min_s = self.wl.pass_s_per_cycle / self.wl.chunks
        tracer, r = self.tracer, self.rounds[-1]
        measure = probe
        if label == "solve_j2":
            if self.pair is None:
                self.pair = PairProbe(self.work)
            measure = self.pair
            r.probes.append(measure(self.work))
        results = []
        wall = ref = since = 0.0
        while True:
            if tracer is not None:
                tracer.start()
            t0 = time.perf_counter()
            try:
                results.append(fn())
            finally:
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.stop()
            wall += dt
            since += dt
            if reps:
                done = len(results) >= reps
            else:
                done = tracer is not None or wall >= min_s
            if done or since >= PROBE_EVERY_S:
                r.probes.append(measure(self.work))
                scale = 2 * PROBE_REF_S / (r.probes[-2] + r.probes[-1])
                ref += since * scale
                since = 0.0
            if done:
                break
        r.passes[label] = [docs * len(results), wall, ref]
        self.checks.attempted += docs * len(results)
        return results

    def _cli(self, label: str, *calls) -> None:
        """Run (argv, documents) CLI calls in process, timed together as
        one pass."""
        err = io.StringIO()
        argvs = [[str(a) for a in argv] for argv, _ in calls]

        def run():
            with contextlib.redirect_stderr(err):
                return [self.cli.main(argv) for argv in argvs]
        reps = self._timed(label, sum(docs for _, docs in calls), run)
        for argv, (_, docs), *codes in zip(argvs, calls, *reps):
            for rc in codes:
                if rc != 0:
                    self.checks.fail(docs, f"{' '.join(argv[:2])}: exit "
                                           f"{rc}: {err.getvalue()[-300:]}")

    def _latency(self, raws: list[bytes]) -> list[list]:
        """The README's API path, one document a call, over the round's
        documents `latency_reps` times (once when traced).  Returns the
        camera heights of each time over the documents."""
        api = self.scenescale
        reps = 1 if self.tracer else self.wl.latency_reps
        order = iter(raws * reps)

        def run():
            raw = next(order)
            t0 = time.perf_counter()
            try:
                doc = api.parse_document(raw)
                kept = api.filter_detections(doc)
                est = api.solve_scene(doc.calibration.horizon_v0(),
                                      doc.calibration.fov_rad, kept.kept)
            except ValueError:  # counted by the check against the CLI
                return None, None
            return est.cam_height_m, time.perf_counter() - t0
        results = self._timed("latency", 1, run, reps * len(raws))
        self.rounds[-1].latency_s += [t for _, t in results if t is not None]
        cams = [cam for cam, _ in results]
        return [cams[i:i + len(raws)] for i in range(0, len(cams), len(raws))]

    # -- one round ----------------------------------------------------------

    def run_round(self, c: int, with_jobs2: bool = True) -> None:
        wl, work = self.wl, self.work
        gc.collect()  # garbage of earlier checks is not this round's cost
        self.rounds.append(Round(probes=[probe(work)]))
        m = wl.synth_scenes
        exp = work / "exp" / f"chunk_{c:03d}"
        # With a corpus of its own, the workload's research loop uses the
        # same scenes for every seed, so its few scenes per run do not make
        # the loop's throughput depend on the seed.  Without one, the
        # loop's scenes are the workload's documents and the loop's solve
        # is the cascade pass.
        synth_seed = c * m if wl.sizes else self.seed * 100_000 + c * m
        loop_solve = "exp_solve" if wl.sizes else "solve"
        self._cli("synth", (["synth", "--out", exp, "--scenes", m,
                             "--seed", synth_seed, *wl.synth_args], m))
        scenes = sorted(str(p) for p in exp.glob("scene_*.json")
                        if not p.name.endswith(".results.json"))
        self._cli(loop_solve, (["solve", exp], m))
        self._cli("eval", (["eval", "--results", exp, "--out",
                            work / "exp" / f"report_{c:03d}.json"], m))
        self._cli("overlay", *((["overlay", s, s[:-5] + ".results.json",
                                 "--out", s[:-5] + ".svg"], 1) for s in scenes))

        docs = self.corpus[c] if wl.sizes else scenes
        dirs = {"solve": exp}
        for name, extra in METHOD_PASSES:
            if (name == "solve" and not wl.sizes) or (
                    name == "solve_j2" and not with_jobs2):
                continue
            dirs[name] = work / name / f"chunk_{c:03d}"
            self._cli(name, (["solve", Path(docs[0]).parent, "--out",
                              dirs[name], *extra], len(docs)))
        raws = [Path(p).read_bytes() for p in docs]
        self.rounds[-1].docs = len(raws)
        self.rounds[-1].detections = sum(len(json.loads(r)["detections"])
                                         for r in raws)
        cams = self._latency(raws)
        self._check_round(c, docs, scenes, dirs, cams)

    # -- checks -------------------------------------------------------------

    def _check_round(self, c, docs, scenes, dirs, cams) -> None:
        first = c not in self.visited
        self.visited.add(c)
        ck = self.checks
        names = [Path(p).stem for p in docs]
        self._check_repeat(("synth", c), scenes)
        for name, d in dirs.items():
            paths = [Path(d) / f"{n}.results.json" for n in names]
            missing = [p for p in paths if not p.exists()]
            if missing:
                ck.fail(len(missing), f"{name}: missing {missing[0]}")
                continue
            if first and name != "solve_j2":  # j2 is held to j1's bytes
                for doc, p in zip(docs, paths):
                    self._check_results(c, name, doc, p)
            self._check_repeat((name, c), paths)
        if "solve_j2" in dirs and ("solve_j2", c) in ck.digests:
            a, b = ck.digests[("solve", c)], ck.digests[("solve_j2", c)]
            bad = [k for k in a if a[k] != b.get(k)]
            if bad:
                ck.fail(len(bad), f"--jobs 1 and --jobs {JOBS} differ: {bad[0]}")
        # The API path must agree with what the CLI wrote.
        for rep in cams:
            for n, cam in zip(names, rep):
                if self.cli_cam.get((c, n)) != cam:
                    ck.fail(1, f"API and CLI disagree on {n}")

    def _check_repeat(self, key, paths) -> None:
        digests = _digests(paths)
        seen = self.checks.digests.setdefault(key, digests)
        bad = [k for k in digests if seen.get(k) != digests[k]]
        if bad:
            self.checks.fail(len(bad),
                             f"{key[0]}: repeated pass differs on {bad[0]}")

    def _check_results(self, c, name, doc_path, path: Path) -> None:
        """Round trip and finiteness of one results file; for the cascade
        pass also the accuracy against the generator's ground truth."""
        docs = self.documents
        data = path.read_bytes()
        try:
            res = docs.parse_results(data)
        except docs.SchemaError as exc:
            self.checks.fail(1, f"{name}: {path.name}: {exc}")
            return
        est = res.estimate
        values = [est.cam_height_m, *est.heights_m, *est.upright_heights_m]
        again = docs.emit_results(est, config_hash=res.config_hash,
                                  source_indices=res.source_indices)
        if not all(math.isfinite(v) for v in values):
            self.checks.fail(1, f"{name}: {path.name}: non-finite estimate")
        elif again.encode("utf-8") != data:
            self.checks.fail(1, f"{name}: {path.name}: does not round-trip")
        if name != "solve":
            return
        stem = Path(doc_path).stem
        truth = self.truth.get((c, Path(doc_path).name))
        if truth is None:  # synth documents carry the generator's truth
            truth = json.loads(Path(doc_path).read_text("utf-8"))["ground_truth"]
        gt = truth["object_heights_m"]
        self.cli_cam[(c, stem)] = est.cam_height_m
        self.cam_err[(c, stem)] = abs(est.cam_height_m - truth["cam_height_m"])
        self.obj_err[(c, stem)] = [abs(h - gt[i]) for h, i in
                                   zip(est.heights_m, res.source_indices)]

    # -- metrics ------------------------------------------------------------

    def e2e(self, wall: bool = False) -> dict:
        """End-to-end metrics, in reference seconds or else wall seconds;
        a throughput is the units of all timed rounds over their time in
        the given passes."""
        def rate(*labels, count=None):
            units = sum(r.passes[labels[0]][0] if count is None else count(r)
                        for r in self.rounds)
            return units / sum(r.ref(*labels, wall=wall) for r in self.rounds)

        loop_solve = "exp_solve" if self.wl.sizes else "solve"
        # Each sample is scaled by its round's whole API pass: the probes
        # around a single sample would add their own noise to the p99.
        lat = [t * 1e3 * r.ref("latency", wall=wall)
               / r.ref("latency", wall=True)
               for r in self.rounds for t in r.latency_s]
        setup = [w * (1.0 if wall else PROBE_REF_S / p) for w, p in self.setup]
        obj = [e for errs in self.obj_err.values() for e in errs]
        return {
            "setup_s": (statistics.median(setup), "s"),
            "solve_docs_per_s": (rate("solve"), "docs/s"),
            "solve_jobs2_docs_per_s": (rate("solve_j2"), "docs/s"),
            "pgm_docs_per_s": (rate("pgm"), "docs/s"),
            "pgm_fixed_docs_per_s": (rate("pgm_fixed"), "docs/s"),
            "doc_latency_ms_p50": (statistics.median(lat), "ms"),
            "doc_latency_ms_p99": (statistics.quantiles(
                lat, n=100, method="inclusive")[98], "ms"),
            "objects_per_s": (rate("solve", count=lambda r: r.detections
                                   * r.passes["solve"][0] // r.docs),
                              "detections/s"),
            "synth_scenes_per_s": (rate("synth"), "scenes/s"),
            "experiment_scenes_per_s": (
                rate("synth", loop_solve, "eval", "overlay"), "scenes/s"),
            "cam_err_median_m": (statistics.median(self.cam_err.values()), "m"),
            "obj_err_median_m": (statistics.median(obj), "m"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }

    def totals(self) -> dict[str, dict]:
        """Per pass: documents, wall seconds and reference seconds."""
        out: dict[str, dict] = {}
        for r in self.rounds:
            for label, (docs, wall, ref) in r.passes.items():
                acc = out.setdefault(label, {"docs": 0, "wall_s": 0.0,
                                             "ref_s": 0.0})
                acc["docs"] += docs
                acc["wall_s"] += wall
                acc["ref_s"] += ref
        return out


def _loop(bench: Bench, seconds: float, one_round) -> tuple[int, float]:
    """Whole cycles over the chunks until `seconds` have passed, so every
    run measures the same mix of documents."""
    t0 = time.perf_counter()
    k = 0
    while True:
        one_round(k % bench.wl.chunks)
        k += 1
        elapsed = time.perf_counter() - t0
        if k % bench.wl.chunks == 0 and (elapsed >= seconds
                                         or elapsed > TIME_CAP_S):
            return k, elapsed


def untraced(bench: Bench, args, work: Path):
    wl = bench.wl
    # Warm-up, checked like any other round, with every pass taken once.
    bench.wl = replace(wl, pass_s_per_cycle=0.0, latency_reps=1)
    bench.run_round(0)
    bench.wl = wl
    bench.rounds.clear()
    measure_setup(work)  # may compile bytecode; not kept
    # Set-up is sampled between the rounds of the first cycle, so that its
    # samples fall in different phases of the machine's speed.
    per_round = -(-SETUP_SAMPLES // wl.chunks)

    def one_round(c):
        bench.run_round(c)
        before = bench.rounds[-1].probes[-1]
        while len(bench.setup) < min(SETUP_SAMPLES,
                                     per_round * len(bench.rounds)):
            wall, after = measure_setup(work)
            bench.setup.append((wall, (before + after) / 2))
            before = after
    rounds, elapsed = _loop(bench, args.seconds, one_round)
    return bench, {"rounds": rounds, "elapsed_s": elapsed}


def traced(bench: Bench, args, work: Path):
    """Per-layer metrics: each round runs untraced, then traced, on the
    same chunk, every pass once; both skip the `--jobs 2` pass, whose
    workers are other processes."""
    wl, tracer = bench.wl, bench.tracer
    bench.run_round(0, with_jobs2=False)
    walls = {"untraced": 0.0, "traced": 0.0}
    refs = dict(walls)
    units = 0

    def both(c):
        nonlocal units
        for mode in walls:
            if mode == "traced":
                tracer.install()
            try:
                bench.run_round(c, with_jobs2=False)
            finally:
                tracer.uninstall()
            r = bench.rounds[-1]
            walls[mode] += r.wall()
            refs[mode] += r.ref(*r.passes)
        units += bench.units(c)

    rounds, elapsed = _loop(bench, args.seconds, both)
    out = tracer.summary(units, walls["traced"])
    # In reference seconds, so a change in machine speed between the two
    # modes does not pass for tracing overhead.
    out["trace.overhead_ms"] = (refs["traced"] - refs["untraced"]) * 1e3 / units
    tracer.save(OUT / f"spans-{wl.name}.npz")
    bench.metrics = {k: (float(v), _unit(k)) for k, v in out.items()}
    return bench, {"rounds": rounds, "elapsed_s": elapsed, "units": units,
                   "walls_s": walls, "refs_s": refs, "spans": len(tracer.names)}


def _unit(name: str) -> str:
    if name.endswith(".calls"):
        return "calls/doc"
    if name.endswith(("_ms", ".ms")):
        return "ms/doc"
    if name == "cli.bytes_per_doc":
        return "B/doc"
    return "ratio"


def run(args) -> dict:
    wl = WORKLOADS[args.workload]
    if args.tiny:
        wl = replace(wl, **TINY[wl.name])
    OUT.mkdir(exist_ok=True)
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True), file=sys.stderr)
    if not env["within_nproc"]:
        raise Failure(f"{JOBS} workers x {env['blas_threads_reported']} BLAS "
                      f"threads exceed nproc={env['nproc']}")
    work = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    bench = None
    try:
        bench = Bench(wl, args.seed, work, tracer)
        if args.trace:
            bench, detail = traced(bench, args, work)
            metrics = bench.metrics
        else:
            bench, detail = untraced(bench, args, work)
            metrics = bench.e2e()
            detail.update(wall_metrics={k: v for k, (v, _) in
                                        bench.e2e(wall=True).items()},
                          setup_samples=bench.setup)
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(work, ignore_errors=True)
    ck = bench.checks
    probes = [p for r in bench.rounds for p in r.probes]
    detail.update(
        workload=wl.name, seed=args.seed, seconds=args.seconds,
        trace=args.trace, environment=env,
        latency_samples=sum(len(r.latency_s) for r in bench.rounds),
        accuracy_documents=len(bench.cam_err), passes=bench.totals(),
        probe_s={"reference": PROBE_REF_S, "median": statistics.median(probes),
                 "min": min(probes), "max": max(probes)},
        attempted=ck.attempted, failed=ck.failed, check_notes=ck.notes,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    record = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(detail, indent=2, sort_keys=True) + "\n")
    print(f"record: {record}", file=sys.stderr)
    for note in ck.notes:
        print(f"check failed: {note}", file=sys.stderr)
    finite = all(math.isfinite(v) for v, _ in metrics.values())
    return {"correct": ck.failed == 0 and finite and len(bench.cam_err) > 0,
            "attempted": ck.attempted, "failed": ck.failed,
            "metrics": detail["metrics"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one small chunk per workload, for smoke tests")
    args = parser.parse_args(argv)
    if not (SRC / "scenescale" / "cli.py").is_file():
        print(f"error: no scenescale sources under {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    fix_mmap_threshold()
    try:
        result = run(args)
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
