"""In-memory span tracing of `scenescale`, installed from outside the package.

Each traced function is replaced, at every module attribute that refers
to it, by a wrapper that records one span: name, start, end, parent span
and whether the call returned normally.  Callers look functions up
through module attributes at call time (`cli.parse_document`,
`geometry.oracle_project_points`, ...), so the wrappers see every call
without any change to the package.

`numpy.linalg.solve` is traced only when its caller is a traced
`solver.refine_layer`, as `solver.linalg_solve`.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

SPANS = (
    ("cli", "main"),
    ("documents", "parse_document"),
    ("documents", "filter_detections"),
    ("documents", "emit_results"),
    ("documents", "config_digest"),
    ("documents", "emit_document"),
    ("documents", "parse_results"),
    ("priors", "upright_ratio"),
    ("solver", "solve_scene"),
    ("solver", "box_ratios"),
    ("solver", "init_camera_height"),
    ("solver", "classify_boxes"),
    ("solver", "refine_layer"),
    ("solver", "total_loss"),
    ("solver", "reprojection_loss"),
    ("baselines", "pgm_full"),
    ("baselines", "pgm_fixed_height"),
    ("geometry", "project_tops_with_grads"),
    ("geometry", "oracle_project_points"),
    ("geometry", "projection_matrix"),
    ("synth", "sample_scene"),
    ("synth", "render_detections"),
    ("metrics", "compute_metrics"),
    ("overlay", "render_overlay"),
)
LINALG = "solver.linalg_solve"
NAMES = tuple(f"{m}.{f}" for m, f in SPANS) + (LINALG,)


class Tracer:
    """Span store plus the counters the ratio metrics need.

    Spans are recorded only between `start` and `stop`, around the
    timed calls, so work done between them (output checks, probes) leaves
    no spans; each such window is kept.
    """

    def __init__(self):
        self.on = False
        self.name_id = {n: i for i, n in enumerate(NAMES)}
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.ok = array("b")
        self.window_starts = array("d")
        self.window_ends = array("d")
        self.stack: list[int] = []
        self.counts = {"filter_in": 0, "filter_kept": 0, "refine_moved": 0,
                       "converged": 0, "objects_placed": 0, "cli_bytes": 0}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def start(self) -> None:
        self.window_starts.append(time.perf_counter())
        self.on = True

    def stop(self) -> None:
        self.on = False
        self.window_ends.append(time.perf_counter())

    def _enter(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(self.name_id[name])
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.ok.append(0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _exit(self, idx: int, ok: bool) -> None:
        self.ends[idx] = time.perf_counter()
        self.ok[idx] = ok
        self.stack.pop()

    def _wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = tracer._enter(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                tracer._exit(idx, ok)
            if count is not None:
                count(args, kwargs, result)
            return result
        return traced

    def _wrap_linalg(self, fn, refine_id: int):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not (tracer.on and tracer.stack
                    and tracer.names[tracer.stack[-1]] == refine_id):
                return fn(*args, **kwargs)
            idx = tracer._enter(LINALG)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                tracer._exit(idx, ok)
            return result
        return traced

    # -- installation --------------------------------------------------------

    def _count(self, key, amount):
        self.counts[key] += amount

    def install(self) -> None:
        """Wrap every traced function at each module attribute naming it."""
        import scenescale
        from scenescale import cli
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "scenescale"
                                         or n.startswith("scenescale."))]
        hooks = {
            "documents.filter_detections": lambda a, k, r: (
                self._count("filter_in", len(a[0].detections)),
                self._count("filter_kept", len(r.kept))),
            "solver.refine_layer": lambda a, k, r: self._count(
                "refine_moved", int(r is not a[0])),
            "solver.solve_scene": lambda a, k, r: self._count(
                "converged", int(r.converged)),
            "synth.sample_scene": lambda a, k, r: self._count(
                "objects_placed", len(r.objects)),
        }
        for mod_name, fn_name in SPANS:
            module = getattr(scenescale, mod_name)
            original = getattr(module, fn_name)
            name = f"{mod_name}.{fn_name}"
            self._replace(modules, original,
                          self._wrap(name, original, hooks.get(name)))
        # Bytes the CLI writes, counted where every CLI output passes.
        write = cli._write_atomic
        self._replace([cli], write, self._wrap_counter(write))
        solve = np.linalg.solve
        self._replace([np.linalg], solve, self._wrap_linalg(
            solve, self.name_id["solver.refine_layer"]))

    def _wrap_counter(self, write):
        tracer = self

        @functools.wraps(write)
        def counted(path, text):
            if tracer.on:
                tracer._count("cli_bytes", len(text.encode("utf-8")))
            return write(path, text)
        return counted

    def _replace(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- summaries -----------------------------------------------------------

    def arrays(self):
        # Copies, so the arrays stay appendable afterwards.
        return (np.array(self.names, dtype=np.int32),
                np.array(self.parents, dtype=np.int32),
                np.array(self.starts, dtype=np.float64),
                np.array(self.ends, dtype=np.float64),
                np.array(self.ok, dtype=np.int8))

    def save(self, path) -> None:
        names, parents, starts, ends, ok = self.arrays()
        np.savez(path, names=np.array(NAMES), name=names, parent=parents,
                 start=starts, end=ends, ok=ok,
                 window_start=np.array(self.window_starts),
                 window_end=np.array(self.window_ends))

    def summary(self, units: int, wall_s: float) -> dict[str, float]:
        """Per-unit span totals, the ratio metrics and the time no span
        claims, as {metric name: value}."""
        names, parents, starts, ends, ok = self.arrays()
        n_names = len(NAMES)
        dur = ends - starts
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        calls = np.bincount(names, minlength=n_names)
        incl = np.bincount(names, weights=dur, minlength=n_names)
        own = np.bincount(names, weights=self_t, minlength=n_names)
        out: dict[str, float] = {}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls"] = calls[i] / units
            out[f"{name}.ms"] = incl[i] * 1e3 / units
            out[f"{name}.self_ms"] = own[i] * 1e3 / units

        nid = self.name_id
        parent_name = np.where(has_parent, names[np.maximum(parents, 0)], -1)

        def n(name, mask=None):
            m = names == nid[name]
            return int(np.count_nonzero(m if mask is None else m & mask))

        def share(num, den):
            return num / den if den else 0.0

        c = self.counts
        solves = n("solver.solve_scene")
        refines = n("solver.refine_layer")
        under_refine = parent_name == nid["solver.refine_layer"]
        under_solve = parent_name == nid["solver.solve_scene"]
        trace_mask = ((names == nid["solver.total_loss"])
                      | (names == nid["solver.reprojection_loss"])) & under_solve
        solve_ms = incl[nid["solver.solve_scene"]]
        is_attempt = ((names == nid["geometry.oracle_project_points"])
                      & (parent_name == nid["synth.sample_scene"]))
        attempts = int(is_attempt.sum())
        in_attempt = np.zeros(len(names), dtype=bool)
        in_attempt[has_parent] = is_attempt[parents[has_parent]]
        builds = n("geometry.projection_matrix", in_attempt)
        out.update({
            "documents.kept_ratio": share(c["filter_kept"], c["filter_in"]),
            "priors.ratio_ok_ratio": share(
                n("priors.upright_ratio", ok == 1), n("priors.upright_ratio")),
            "solver.classify_per_solve": share(n("solver.classify_boxes"), solves),
            "solver.refine_accept_ratio": share(c["refine_moved"], refines),
            "solver.backtracks_per_refine": share(
                n("solver.total_loss", under_refine) - refines, refines),
            "solver.converged_ratio": share(c["converged"], solves),
            "solver.trace_share": share(float(dur[trace_mask].sum()), solve_ms),
            "synth.attempts_per_object": share(attempts, c["objects_placed"]),
            "geometry.matrix_builds_per_attempt": share(builds, attempts),
            "cli.bytes_per_doc": c["cli_bytes"] / units,
        })
        claimed = float(own.sum())
        out["trace.wall_ms"] = wall_s * 1e3 / units
        out["trace.unclaimed_ms"] = (wall_s - claimed) * 1e3 / units
        return out
