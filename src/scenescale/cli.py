"""Command-line interface: solve, synth, eval, overlay.

Exit codes: 0 success, 1 input or usage error, 2 internal failure.
Diagnostics go to stderr; file outputs are written atomically.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import functools
import math
import os
import sys
from pathlib import Path

from . import baselines, metrics, solver, synth
from .documents import (SchemaError, ToolkitConfig, VALID_METHODS,
                        canonical_json, config_digest, config_from_yaml,
                        config_to_yaml, emit_document, emit_results,
                        filter_detections, parse_document, parse_results,
                        CalibrationInput, DetectionDocument)
from .metrics import GroundTruth
from .overlay import render_overlay


def _write_atomic(path: Path, text: str) -> None:
    """Write through a uniquely named temporary file in the same directory,
    then rename it over `path`.  The file is created with mode 0666 less
    the umask, as `open` would create it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.getpid()}.{os.urandom(8).hex()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _load_config(path: str | None) -> ToolkitConfig:
    if path is None:
        return ToolkitConfig()
    return config_from_yaml(Path(path).read_text(encoding="utf-8"))


def _run_method(doc: DetectionDocument, config: ToolkitConfig):
    """Filter the document and dispatch to the configured estimator."""
    kept = filter_detections(doc, config.filters)
    if not kept.kept_indices:
        raise ValueError("no detections survive the ingestion filters")
    v0 = doc.calibration.horizon_v0()
    priors = config.prior_map()
    if config.method == "cascade":
        estimate = solver.solve_scene(
            v0, doc.calibration.fov_rad, kept.kept, priors, config.refine,
            principal_v=doc.calibration.principal_v)
    elif config.method == "pgm":
        estimate = baselines.pgm_full(
            v0, doc.calibration.fov_rad, kept.kept, priors,
            config.cam_height_prior, principal_v=doc.calibration.principal_v)
    else:
        estimate = baselines.pgm_fixed_height(
            v0, doc.calibration.fov_rad, kept.kept, config.canonical_map(),
            priors, principal_v=doc.calibration.principal_v)
    return estimate, kept


def _result_path(input_path: Path, out: str | None) -> Path:
    name = input_path.stem + ".results.json"
    if out is None:
        return input_path.with_name(name)
    out_path = Path(out)
    if out_path.suffix == ".json" and not out_path.is_dir():
        return out_path
    return out_path / name


def _solve_one(input_path: Path, target: Path, config: ToolkitConfig,
               config_hash: str) -> tuple[bool, str]:
    """(ok, message) so batch workers never raise across the pool boundary.
    The result goes to `target`; `config_hash` is `config_digest(config)`."""
    try:
        doc = parse_document(input_path.read_bytes())
        estimate, kept = _run_method(doc, config)
        text = emit_results(estimate, config_hash=config_hash,
                            source_indices=kept.kept_indices)
        _write_atomic(target, text)
    except (OSError, ValueError) as exc:
        return False, f"{input_path}: {exc}"
    skipped = len(kept.rejected)
    note = f", {skipped} filtered out" if skipped else ""
    return True, (f"{input_path} -> {target}: cam {estimate.cam_height_m:.3f} m, "
                  f"{len(estimate.heights_m)} objects{note}")


def _discover_inputs(path: Path) -> list[Path]:
    if path.is_dir():
        found = sorted(p for p in path.glob("*.json")
                       if not p.name.endswith(".results.json"))
        if not found:
            raise SchemaError(f"no input documents in {path}")
        return found
    if not path.exists():
        raise SchemaError(f"no such input: {path}")
    return [path]


def _cmd_solve(args) -> int:
    config = _load_config(args.config)
    if args.method is not None:
        config = dataclasses.replace(config, method=args.method)
    if args.print_config:
        sys.stdout.write(config_to_yaml(config))
        return 0
    if not args.inputs:
        raise SchemaError("no input documents given")
    if args.jobs < 1:
        raise SchemaError("--jobs must be >= 1")
    inputs = [p for arg in args.inputs for p in _discover_inputs(Path(arg))]
    targets = [_result_path(p, args.out) for p in inputs]
    # A result replaces the entry of its name in its directory, so two
    # inputs with one such entry would overwrite each other's result.
    resolved = functools.cache(Path.resolve)
    writers: dict[Path, Path] = {}
    for path, target in zip(inputs, targets):
        entry = resolved(target.parent) / target.name
        if writers.setdefault(entry, path) is not path:
            raise SchemaError(f"{writers[entry]} and {path} would both "
                              f"write {entry}")
    config_hash = config_digest(config)
    failures = 0
    # A fork-started pool starts all its workers at once.
    workers = min(args.jobs, len(inputs))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_solve_one, inputs, targets,
                                    [config] * len(inputs),
                                    [config_hash] * len(inputs)))
    else:
        results = list(map(_solve_one, inputs, targets, [config] * len(inputs),
                           [config_hash] * len(inputs)))
    for ok, message in results:
        print(message, file=sys.stderr)
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} of {len(inputs)} documents failed", file=sys.stderr)
        return 1
    return 0


def _cmd_synth(args) -> int:
    if args.scenes < 1:
        raise SchemaError("--scenes must be >= 1")
    ranges = synth.SceneRanges(
        pitch_rad=(-math.radians(args.pitch_max_deg),
                   math.radians(args.pitch_max_deg)),
        fov_rad=(math.radians(args.fov_min_deg), math.radians(args.fov_max_deg)),
        cam_height_m=(args.cam_height_min, args.cam_height_max),
        depth_m=(args.depth_min, args.depth_max),
        image_w_px=args.width, image_h_px=args.height,
        categories=tuple(args.categories.split(",")),
    )
    noise = synth.NoiseModel(
        box_sigma=args.box_noise,
        horizon_sigma=args.horizon_noise,
        fov_sigma_rad=math.radians(args.fov_noise_deg),
        height_outlier_rate=args.outlier_rate,
    )
    out_dir = Path(args.out)
    for i in range(args.scenes):
        seed = args.seed + i
        scene = synth.sample_scene(ranges, n_objects=args.objects, seed=seed)
        boxes = synth.render_detections(scene, noise)
        v0_obs, fov_obs = synth.observe_calibration(scene, noise)
        doc = DetectionDocument(
            image_w_px=ranges.image_w_px, image_h_px=ranges.image_h_px,
            calibration=CalibrationInput(fov_rad=fov_obs, v0=v0_obs),
            detections=boxes,
            ground_truth=GroundTruth(
                cam_height_m=scene.camera.cam_height_m,
                object_heights_m=synth.effective_heights(scene, noise)),
            meta=(("generator", "synth"), ("seed", seed)),
        )
        _write_atomic(out_dir / f"scene_{i:04d}.json", emit_document(doc))
    print(f"wrote {args.scenes} scenes to {out_dir}", file=sys.stderr)
    return 0


def _stat_dict(values) -> dict | None:
    if not values:
        return None
    mean, std, median = metrics.summarize(values)
    return {"mean": mean, "std": std, "median": median}


def _cmd_eval(args) -> int:
    results_path = Path(args.results)
    if results_path.is_dir():
        result_files = sorted(results_path.glob("*.results.json"))
    else:
        result_files = [results_path]
    if not result_files:
        raise SchemaError(f"no result files in {results_path}")
    truth_dir = Path(args.truth) if args.truth else result_files[0].parent

    reports = []
    per_scene = []
    for res_file in result_files:
        stem = res_file.name[:-len(".results.json")] \
            if res_file.name.endswith(".results.json") else res_file.stem
        truth_file = truth_dir / f"{stem}.json"
        if not truth_file.exists():
            raise SchemaError(f"no matching document {truth_file} for {res_file}")
        res = parse_results(res_file.read_bytes())
        doc = parse_document(truth_file.read_bytes())
        if doc.ground_truth is None:
            raise SchemaError(f"{truth_file} carries no ground_truth block")
        report = metrics.compute_metrics(
            res.estimate, doc.ground_truth, doc.detections.v_top.tolist(),
            compare_upright=args.upright, indices=res.source_indices)
        reports.append(report)
        per_scene.append({
            "scene": stem,
            "e_cam": report.e_cam[0] if report.e_cam else None,
            "e_obj_median": metrics.summarize(report.e_obj)[2]
            if report.e_obj else None,
        })

    pooled = metrics.aggregate_reports(reports)
    payload = {
        "n_scenes": len(reports),
        "compare_upright": bool(args.upright),
        "e_cam": _stat_dict(pooled.e_cam),
        "e_obj": _stat_dict(pooled.e_obj),
        "l_vt": _stat_dict(pooled.l_vt),
        "per_scene": per_scene,
    }
    text = canonical_json(payload)
    if args.out:
        _write_atomic(Path(args.out), text)
        print(f"report -> {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)

    if args.curve:
        thresholds = [float(t) for t in args.thresholds.split(",")]
        curve = metrics.threshold_curve(pooled.e_obj, thresholds)
        lines = ["threshold_m,fraction"]
        lines += [f"{t},{frac}" for t, frac in curve]
        _write_atomic(Path(args.curve), "\n".join(lines) + "\n")
        print(f"curve -> {args.curve}", file=sys.stderr)
    return 0


def _cmd_overlay(args) -> int:
    config = _load_config(args.config)
    doc = parse_document(Path(args.document).read_bytes())
    res = parse_results(Path(args.results).read_bytes())
    svg = render_overlay(doc, res.estimate, source_indices=res.source_indices,
                         config=config.overlay)
    out = Path(args.out) if args.out else Path(args.document).with_suffix(".svg")
    _write_atomic(out, svg)
    print(f"overlay -> {out}", file=sys.stderr)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenescale",
        description="Single-view metric scale from detections and a horizon.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="estimate camera and object heights")
    solve.add_argument("inputs", nargs="*",
                       help="detection document(s) or directories of them")
    solve.add_argument("--out", help="output file or directory "
                       "(default: next to each input)")
    solve.add_argument("--config", help="YAML config file")
    solve.add_argument("--method",
                       help=f"estimator, one of: {', '.join(VALID_METHODS)}")
    solve.add_argument("--jobs", type=int, default=1,
                       help="parallel workers for batch solves")
    solve.add_argument("--print-config", action="store_true",
                       help="print the effective config as YAML and exit")
    solve.set_defaults(func=_cmd_solve)

    gen = sub.add_parser("synth", help="generate synthetic scene documents")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--scenes", type=int, default=10)
    gen.add_argument("--objects", type=int, default=5)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--box-noise", type=float, default=0.0,
                     help="box coordinate noise sigma, image-height units")
    gen.add_argument("--horizon-noise", type=float, default=0.0)
    gen.add_argument("--fov-noise-deg", type=float, default=0.0)
    gen.add_argument("--outlier-rate", type=float, default=0.0)
    gen.add_argument("--pitch-max-deg", type=float, default=30.0)
    gen.add_argument("--fov-min-deg", type=float, default=30.0)
    gen.add_argument("--fov-max-deg", type=float, default=100.0)
    gen.add_argument("--cam-height-min", type=float, default=0.5)
    gen.add_argument("--cam-height-max", type=float, default=10.0)
    gen.add_argument("--depth-min", type=float, default=2.0)
    gen.add_argument("--depth-max", type=float, default=40.0)
    gen.add_argument("--width", type=float, default=640.0)
    gen.add_argument("--height", type=float, default=480.0)
    gen.add_argument("--categories", default="person",
                     help="comma-separated category list")
    gen.set_defaults(func=_cmd_synth)

    ev = sub.add_parser("eval", help="score results against ground truth")
    ev.add_argument("--results", required=True,
                    help="result file or directory of *.results.json")
    ev.add_argument("--truth", help="directory of source documents "
                    "(default: alongside the results)")
    ev.add_argument("--out", help="write the JSON report here "
                    "(default: stdout)")
    ev.add_argument("--curve", help="also write a threshold-curve CSV here")
    ev.add_argument("--thresholds", default="0.05,0.1,0.25,0.5",
                    help="comma-separated thresholds for --curve, meters")
    ev.add_argument("--upright", action="store_true",
                    help="score posture-corrected upright heights")
    ev.set_defaults(func=_cmd_eval)

    ov = sub.add_parser("overlay", help="render an SVG overlay for a result")
    ov.add_argument("document", help="detection document")
    ov.add_argument("results", help="matching results file")
    ov.add_argument("--out", help="output SVG path (default: document name .svg)")
    ov.add_argument("--config", help="YAML config file")
    ov.set_defaults(func=_cmd_overlay)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; fold the latter
        # into the documented input-error code
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (SchemaError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - last-resort internal guard
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
