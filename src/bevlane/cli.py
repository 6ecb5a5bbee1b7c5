"""Command-line pipeline: generate, fit, eval, anchors, project, render.

Every flag is declared once, in build_parser. Flags can also come from a
JSON config file (--config) whose top level maps subcommand names to
{flag dest: value} sections; config values go through the same parser as
flags, and explicit command-line values win. Exit codes: 0 success, 2
usage or schema problems, 3 numerical failure during fitting.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import anchors as anchors_mod
from . import datagen, fitting, io_formats, metrics, render
from .assignment import match_lanes, resample_lanes, resample_on_grid
from .camera import Lane2D, project_lane
from .errors import (
    LaneError,
    NonFiniteError,
    SchemaError,
    VersionError,
)
from .geometry import DEFAULT_SAMPLE_COUNT, MAX_SAMPLE_COUNT
from .losses import IoUConfig, LossWeights


def _parse_order(text: str):
    if text not in ("2", "3", "4", "bezier"):
        raise argparse.ArgumentTypeError(f"order must be 2, 3, 4 or bezier, got {text!r}")
    return text if text == "bezier" else int(text)


def _count(limit: int | None = None):
    """An argparse type for an int of at least 1 and at most limit."""

    def parse(text: str) -> int:
        value = int(text)
        if value < 1 or (limit is not None and value > limit):
            bound = ">= 1" if limit is None else f"in [1, {limit}]"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


def _non_negative_float(text: str) -> float:
    value = float(text)
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _cmd_generate(opts) -> int:
    scenes, jitter = io_formats.read_scene_spec(opts.spec)
    frames = datagen.generate_dataset(
        scenes, frames_per_spec=opts.frames, jitter=jitter, seed=opts.seed
    )
    io_formats.write_dataset(frames, opts.out)
    print(f"wrote {len(frames)} frames ({len(scenes)} scenes) to {opts.out}")
    return 0


def _cmd_fit(opts) -> int:
    frames = io_formats.read_dataset(opts.dataset)
    cfg = fitting.FitConfig(
        max_iters=opts.max_iters,
        step_size=opts.step_size,
        plateau_patience=opts.plateau,
        order=opts.order,
        keypoints=opts.keypoints,
        ipm_camera_height=opts.ipm_height,
    )
    weights = LossWeights(beta=opts.beta)
    per_iou = IoUConfig(e=opts.e_per)

    # Per frame, in baseline mode each fitted (lane, max residual), and in
    # 3d and 2d mode the index of each lane's job; fit_lanes solves the jobs.
    fitted_lanes = []
    jobs = []
    skipped = 0
    for frame in frames:
        if opts.mode == "3d" and len(frame.lanes3d) != len(frame.lanes2d):
            raise SchemaError(f"frame {frame.frame_id} has no lanes3d labels; use --mode 2d")
        lanes = []
        targets = [] if opts.mode == "baseline" else resample_on_grid(frame.lanes2d, frame.image)
        for idx, gt2d in enumerate(frame.lanes2d):
            if opts.mode == "baseline":
                if opts.order == "bezier":
                    raise SchemaError("the baseline fit is polynomial; use order 2, 3 or 4")
                fit = fitting.fit_perspective_baseline(gt2d, order=opts.order)
                v = np.linspace(gt2d.v.max(), gt2d.v.min(), DEFAULT_SAMPLE_COUNT)
                lanes.append((Lane2D(np.column_stack([fit.u_at(v), v])), fit.max_residual))
            elif targets[idx] is None:
                skipped += 1
            else:
                if opts.mode == "3d":
                    labels = frame.lanes3d[idx]
                    start = fitting.label_init(labels, cfg)
                else:
                    labels = None
                    start = fitting.ipm_init(gt2d, frame.intrinsics, cfg)
                lanes.append(len(jobs))
                jobs.append((targets[idx], frame.intrinsics, start, labels))
        fitted_lanes.append(lanes)

    reports = _fit_in_blocks(jobs, cfg, per_iou, weights)
    preds = []
    residuals = []
    for frame, lanes in zip(frames, fitted_lanes):
        if opts.mode != "baseline":
            lanes = [(reports[i].lane, reports[i].terms["total"]) for i in lanes]
        residuals.extend(value for _lane, value in lanes)
        fitted = tuple(lane for lane, _value in lanes)
        preds.append(
            io_formats.PredictionFrame(
                frame_id=frame.frame_id,
                lanes3d=() if opts.mode == "baseline" else fitted,
                lanes2d=fitted if opts.mode == "baseline" else (),
            )
        )
    io_formats.write_predictions(preds, opts.out)
    label = "max residual [px]" if opts.mode == "baseline" else "final loss"
    mean_val = float(np.mean(residuals)) if residuals else float("nan")
    print(
        f"fit {len(residuals)} lanes in mode {opts.mode} (skipped {skipped}); "
        f"mean {label}: {mean_val:.6g}; wrote {opts.out}"
    )
    return 0


# Lanes per fit_lanes call; results do not depend on it. Every array of
# the 2D descent grows with the block: on the 400-lane mixed-ground set
# (2-vCPU x86 host, numpy 2.4) the 2d fit stage peaked at 105 MB RSS with
# one 400-lane block and at 93 MB with 64-lane blocks, which ran about as fast.
FIT_BLOCK_LANES = 64


def _fit_in_blocks(jobs, cfg, per_iou, weights) -> list:
    """fit_lanes over (target, camera, start, labels or None) jobs: by row grid, in blocks."""
    by_grid = {}
    for i, (gt, *_rest) in enumerate(jobs):
        by_grid.setdefault(gt.v_grid.tobytes(), []).append(i)
    reports = [None] * len(jobs)
    for members in by_grid.values():
        for start in range(0, len(members), FIT_BLOCK_LANES):
            block = members[start : start + FIT_BLOCK_LANES]
            gts, cameras, starts, labels = zip(*(jobs[i] for i in block))
            labels = None if labels[0] is None else labels
            fits = fitting.fit_lanes(gts, cameras, starts, cfg, per_iou, weights, labels)
            for i, report in zip(block, fits):
                reports[i] = report
    return reports


def _cmd_eval(opts) -> int:
    frames = io_formats.read_dataset(opts.dataset)
    preds = io_formats.read_predictions(opts.pred)
    io_formats.validate_predictions(preds, frames)
    by_id = {p.frame_id: p for p in preds}

    cfg = metrics.EvalConfig(
        lane_width=opts.lane_width,
        raster_scale=opts.raster_scale,
        tusimple_pixel_tol=opts.tusimple_tol,
    )
    totals = {t: [0, 0, 0] for t in cfg.iou_thresholds}
    ts_correct = ts_points = ts_matched = ts_pred = ts_gt = 0
    cd_values = []
    n_pred_lanes = 0
    n_gt_lanes = 0

    for frame in frames:
        pred = by_id.get(frame.frame_id, io_formats.PredictionFrame(frame_id=frame.frame_id))
        if pred.lanes2d:
            pred2d = list(pred.lanes2d)
        else:
            pred2d = [
                project_lane(frame.intrinsics, lane, opts.sample_count) for lane in pred.lanes3d
            ]
        gts2d = list(frame.lanes2d)
        n_pred_lanes += len(pred2d)
        n_gt_lanes += len(gts2d)

        for t, (tp, fp, fn) in metrics.f1_counts(pred2d, gts2d, frame.image, cfg).items():
            totals[t][0] += tp
            totals[t][1] += fp
            totals[t][2] += fn

        height = frame.image.height
        rows = np.arange(height // 2, height, opts.tusimple_row_step, dtype=float)
        gt_arrays = resample_lanes(gts2d, rows)
        ts = metrics.tusimple_accuracy(pred2d, gt_arrays, rows, cfg)
        ts_correct += ts.correct_points
        ts_points += ts.gt_points
        ts_matched += ts.matched_pairs
        ts_pred += ts.pred_lanes
        ts_gt += ts.gt_lanes

        if pred.lanes3d and frame.lanes3d:
            match = match_lanes(pred2d, gts2d, frame.image, match_threshold=opts.match_threshold)
            pairs = [(i, j) for i, j, _ in match.pairs]
            if pairs:
                cd_values.extend(
                    metrics.cd_error_per_pair(
                        list(pred.lanes3d), list(frame.lanes3d), pairs, opts.sample_count
                    )
                )

    f1_section = {}
    f1_values = []
    for t in cfg.iou_thresholds:
        counts = metrics.counts_to_f1(*totals[t])
        f1_values.append(counts.f1)
        f1_section[f"{t:.2f}"] = {
            "tp": counts.tp,
            "fp": counts.fp,
            "fn": counts.fn,
            "precision": counts.precision,
            "recall": counts.recall,
            "f1": counts.f1,
        }
    report = {
        "frames": len(frames),
        "pred_lanes": n_pred_lanes,
        "gt_lanes": n_gt_lanes,
        "f1": f1_section,
        "mf1": float(np.mean(f1_values)),
        "tusimple": {
            "accuracy": ts_correct / ts_points if ts_points else 0.0,
            "fp_rate": (ts_pred - ts_matched) / ts_pred if ts_pred else 0.0,
            "fn_rate": (ts_gt - ts_matched) / ts_gt if ts_gt else 0.0,
            "correct_points": ts_correct,
            "gt_points": ts_points,
        },
        "cd_error": float(np.mean(cd_values)) if cd_values else None,
    }
    io_formats.write_report(report, opts.out)
    print(format_report(report))
    return 0


def format_report(report: dict) -> str:
    lines = [
        f"frames      {report['frames']}",
        f"pred lanes  {report['pred_lanes']}",
        f"gt lanes    {report['gt_lanes']}",
        "KPI    TP    FP    FN    Prec    Recall  F1",
    ]
    for key in sorted(report["f1"]):
        c = report["f1"][key]
        lines.append(
            f"@{key} {c['tp']:5d} {c['fp']:5d} {c['fn']:5d}   "
            f"{c['precision']:.4f}  {c['recall']:.4f}  {c['f1']:.4f}"
        )
    lines.append(f"mF1         {report['mf1']:.4f}")
    ts = report["tusimple"]
    lines.append(
        f"row-anchor  acc {ts['accuracy']:.4f}  fp {ts['fp_rate']:.4f}  fn {ts['fn_rate']:.4f}"
    )
    cd = report["cd_error"]
    lines.append(f"cd error    {'n/a' if cd is None else f'{cd:.6f} m'}")
    return "\n".join(lines)


def _cmd_anchors(opts) -> int:
    frames = io_formats.read_dataset(opts.dataset)
    if not frames:
        raise SchemaError("dataset has no frames")
    image = frames[0].image
    all_lanes = [lane for frame in frames for lane in frame.lanes2d]
    built = anchors_mod.build_descriptors(all_lanes, image, opts.rows)
    descriptors = [d for d in built if d is not None]
    lanes = [lane for lane, d in zip(all_lanes, built) if d is not None]
    if not descriptors:
        raise SchemaError("dataset contains no usable lanes")
    anchor_set = anchors_mod.cluster_anchors(
        descriptors,
        k=opts.k,
        image=image,
        seed=opts.seed,
        restarts=opts.restarts,
    )
    io_formats.write_anchors(anchor_set, opts.out)
    recall = anchors_mod.anchor_recall(anchor_set, lanes, opts.match_threshold)
    print(
        f"clustered {len(descriptors)} lanes into {anchor_set.k} anchors "
        f"(inertia {anchor_set.inertia:.4g}, restart {anchor_set.chosen_restart}); "
        f"recall@{opts.match_threshold:g}px {recall:.4f}; wrote {opts.out}"
    )
    return 0


def _cmd_project(opts) -> int:
    frames = io_formats.read_dataset(opts.dataset)
    preds = io_formats.read_predictions(opts.pred)
    io_formats.validate_predictions(preds, frames)
    by_id = {f.frame_id: f for f in frames}
    out = []
    n = 0
    for pred in preds:
        frame = by_id[pred.frame_id]
        lanes2d = tuple(project_lane(frame.intrinsics, l, opts.sample_count) for l in pred.lanes3d)
        n += len(lanes2d)
        out.append(
            io_formats.PredictionFrame(
                frame_id=pred.frame_id, lanes3d=pred.lanes3d, lanes2d=lanes2d
            )
        )
    io_formats.write_predictions(out, opts.out)
    print(f"projected {n} lanes to {opts.out}")
    return 0


def _cmd_render(opts) -> int:
    frames = io_formats.read_dataset(opts.dataset)
    if not frames:
        raise SchemaError("dataset has no frames")
    if opts.frame is None:
        frame = frames[0]
    else:
        matching = [f for f in frames if f.frame_id == opts.frame]
        if not matching:
            raise SchemaError(f"dataset has no frame_id {opts.frame}")
        frame = matching[0]
    pred_lanes = None
    if opts.pred is not None:
        preds = io_formats.read_predictions(opts.pred)
        for p in preds:
            if p.frame_id == frame.frame_id:
                pred_lanes = list(p.lanes3d) if p.lanes3d else list(p.lanes2d)
                break
    svg = render.render_svg(frame, pred_lanes, view=opts.view, sample_count=opts.sample_count)
    io_formats.atomic_write_text(opts.out, svg)
    print(f"rendered frame {frame.frame_id} ({opts.view}) to {opts.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bevlane",
        description="Synthesize, fit, evaluate and render decoupled 3D lanes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, flags):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON config file with per-command sections")
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)

    dataset = {"required": True, "help": "input dataset"}
    sample_count = {
        "type": _count(MAX_SAMPLE_COUNT),
        "default": DEFAULT_SAMPLE_COUNT,
        "help": f"samples per 3D lane, at most {MAX_SAMPLE_COUNT}",
    }
    fit_defaults = fitting.FitConfig()
    add(
        "generate",
        _cmd_generate,
        "generate a synthetic dataset from a scene spec file",
        {
            "--spec": {"required": True, "help": "scene spec JSON file"},
            "--frames": {
                "type": _count(datagen.MAX_FRAMES_PER_SPEC),
                "default": 1,
                "help": f"frames per scene, at most {datagen.MAX_FRAMES_PER_SPEC}",
            },
            "--out": {"required": True, "help": "output dataset (JSON lines)"},
            "--seed": {"type": int, "help": "override the scene seeds"},
        },
    )
    add(
        "fit",
        _cmd_fit,
        "fit lane models to dataset labels",
        {
            "--dataset": dataset,
            "--out": {"required": True, "help": "output predictions (JSON lines)"},
            "--mode": {
                "choices": ["2d", "3d", "baseline"],
                "default": "3d",
                "help": "supervision mode",
            },
            "--order": {
                "type": _parse_order,
                "default": fit_defaults.order,
                "help": "2, 3, 4 or bezier",
            },
            "--beta": {"type": float, "default": 1.0, "help": "2D loss weight"},
            "--e-per": {"type": float, "default": 15.0, "help": "image IoU half-width [px]"},
            "--max-iters": {
                "type": int,
                "default": fit_defaults.max_iters,
                "help": "descent iterations (2d mode)",
            },
            "--step-size": {
                "type": float,
                "default": fit_defaults.step_size,
                "help": "descent step (2d mode)",
            },
            "--plateau": {
                "type": int,
                "default": fit_defaults.plateau_patience,
                "help": "stop after this many non-improving iters, at least 1 (2d mode)",
            },
            "--keypoints": {
                "type": _count(fitting.MAX_KEYPOINTS),
                "default": fit_defaults.keypoints,
                "help": f"height keypoints per lane, 2 to {fitting.MAX_KEYPOINTS}",
            },
            "--ipm-height": {
                "type": float,
                "default": fit_defaults.ipm_camera_height,
                "help": "camera height for 2d init",
            },
        },
    )
    add(
        "eval",
        _cmd_eval,
        "score predictions against a dataset",
        {
            "--dataset": dataset,
            "--pred": {"required": True, "help": "predictions file"},
            "--out": {"required": True, "help": "output report JSON"},
            "--lane-width": {"type": float, "default": 30.0, "help": "raster lane width [px]"},
            "--raster-scale": {"type": float, "default": 1.0, "help": "raster scale, in (0, 1]"},
            "--match-threshold": {
                "type": _non_negative_float,
                "default": 30.0,
                "help": "match distance [px]",
            },
            "--sample-count": sample_count,
            "--tusimple-tol": {"type": float, "default": 20.0, "help": "row-anchor tolerance [px]"},
            "--tusimple-row-step": {"type": _count(), "default": 10, "help": "row step [px]"},
        },
    )
    add(
        "anchors",
        _cmd_anchors,
        "cluster dataset lanes into an anchor dictionary",
        {
            "--dataset": dataset,
            "--out": {"required": True, "help": "output anchors JSON"},
            "-k": {"type": int, "default": 24, "help": "number of anchors"},
            "--rows": {
                "type": _count(MAX_SAMPLE_COUNT),
                "default": anchors_mod.DEFAULT_DESCRIPTOR_ROWS,
                "help": f"descriptor rows, 2 to {MAX_SAMPLE_COUNT}",
            },
            "--restarts": {"type": int, "default": 10, "help": "k-means restarts"},
            "--seed": {"type": int, "default": 0, "help": "k-means seed"},
            "--match-threshold": {
                "type": _non_negative_float,
                "default": 30.0,
                "help": "recall distance [px]",
            },
        },
    )
    add(
        "project",
        _cmd_project,
        "project 3D predictions into 2D polylines",
        {
            "--dataset": {"required": True, "help": "input dataset (for intrinsics)"},
            "--pred": {"required": True, "help": "3D predictions file"},
            "--out": {"required": True, "help": "output predictions with 2D lanes"},
            "--sample-count": sample_count,
        },
    )
    add(
        "render",
        _cmd_render,
        "render a frame (and optional predictions) to SVG",
        {
            "--dataset": dataset,
            "--pred": {"help": "predictions file"},
            "--frame": {"type": int, "help": "frame id (default: first frame)"},
            "--view": {"choices": list(render.VIEWS), "default": "perspective"},
            "--out": {"required": True, "help": "output SVG file"},
            "--sample-count": sample_count,
        },
    )
    return parser


def _splice_config(argv: list[str]) -> tuple[dict, list[str]]:
    """The --config section of argv's command, and argv with it after the command.

    Section keys are flag dests. Each value becomes a --flag=value token,
    so it passes the flag's type and choices checks, and explicit flags,
    which come later, win.
    """
    pre = argparse.ArgumentParser(prog="bevlane", add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[1:])[0].config
    if path is None:
        return {}, argv
    section = io_formats.read_json_object(path).get(argv[0], {})
    if not isinstance(section, dict):
        raise SchemaError(f"{path}: section {argv[0]!r} must be an object")
    tokens = []
    for key, value in section.items():
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise SchemaError(f"{path}: {argv[0]}.{key} must be a string or a number")
        tokens.append(f"{'-' if len(key) == 1 else '--'}{key.replace('_', '-')}={value}")
    return section, argv[:1] + tokens + argv[1:]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        section, argv = _splice_config(argv)
        args, extras = parser.parse_known_args(argv)
        unknown = set(section) - (set(vars(args)) - {"command", "config", "func"})
        if unknown:
            raise SchemaError(f"unknown config keys for {args.command!r}: {sorted(unknown)}")
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except NonFiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (VersionError, SchemaError, LaneError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
