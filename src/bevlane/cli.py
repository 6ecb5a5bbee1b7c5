"""Command-line pipeline: generate, fit, eval, anchors, render.

Every flag is declared once, in build_parser. Flags can also come from a
JSON config file (--config) whose top level maps subcommand names to
{flag dest: value} sections; config values go through the same parser as
flags, and explicit command-line values win. Exit codes: 0 success, 2
usage or schema problems, 3 when a computation gives non-finite values
(a fit's objective, or eval's curve distance).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np
from numpy.polynomial.polynomial import polyval

from . import anchors as anchors_mod
from . import datagen, fitting, io_formats, metrics, render
from .assignment import (
    DEFAULT_MATCH_THRESHOLD,
    cost_matrix,
    hungarian_assign,
    resample_lanes,
    row_grid,
)
from .camera import Lane2D, project_stack
from .errors import (
    LaneError,
    NonFiniteError,
    SchemaError,
    VersionError,
)
from .geometry import DEFAULT_SAMPLE_COUNT, MAX_SAMPLE_COUNT, sample_lanes
from .losses import LaneTargets


def _count(limit: int | None = None, low: int = 1):
    """An argparse type for an int of at least low and at most limit."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low or (limit is not None and value > limit):
            bound = f">= {low}" if limit is None else f"in [{low}, {limit}]"
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
    # baseline mode fits u(v) in the image, which has no height keypoints
    keypoints = {} if opts.keypoints is None else {"keypoints": opts.keypoints}
    if opts.mode == "baseline" and keypoints:
        raise SchemaError("--keypoints does not apply to --mode baseline")
    cfg = fitting.FitConfig(order=opts.order, **keypoints)
    frames = io_formats.read_dataset(opts.dataset)
    if opts.mode != "baseline":
        u_blocks = _resample_by_height(
            [frame.lanes2d for frame in frames], [frame.image for frame in frames]
        )

    # Per frame, in baseline mode each fitted (lane, max residual), and in
    # 3d and 2d mode the stack index of each lane that covers an image
    # row. Per stacked lane, where (frame id, lane index) names it in a
    # failure, points feed its start, and u_rows, v_ends and cameras make
    # its target on the row grid of its image height (heights, grids).
    fitted_lanes = []
    where, points, u_rows, v_ends, cameras, heights = [], [], [], [], [], []
    grids = {}
    skipped = 0
    for n, frame in enumerate(frames):
        if opts.mode == "3d" and len(frame.lanes3d) != len(frame.lanes2d):
            raise SchemaError(f"frame {frame.frame_id} has no lanes3d labels; use --mode 2d")
        if opts.mode == "baseline":
            lanes = []
            for gt2d in frame.lanes2d:
                fit = fitting.fit_perspective_baseline(gt2d, order=opts.order)
                v = np.linspace(gt2d.v.max(), gt2d.v.min(), DEFAULT_SAMPLE_COUNT)
                u = polyval(v, fit.coefficients)
                lanes.append((Lane2D(np.column_stack([u, v])), fit.max_residual))
            fitted_lanes.append(lanes)
            continue
        grids.setdefault(frame.image.height, row_grid(frame.image))
        u_values = u_blocks[n]
        kept = np.flatnonzero(~np.isnan(u_values).all(axis=1))
        skipped += len(frame.lanes2d) - kept.size
        fitted_lanes.append(range(len(where), len(where) + kept.size))
        frame_where = [(frame.frame_id, int(i)) for i in kept]
        where += frame_where
        u_rows += [u_values[i] for i in kept]
        v_ends += [(frame.lanes2d[i].v[0], frame.lanes2d[i].v[-1]) for i in kept]
        k = frame.intrinsics
        cameras += [(k.fx, k.fy, k.ox, k.oy)] * kept.size
        heights += [frame.image.height] * kept.size
        if opts.mode == "3d":
            points += [fitting.by_depth(frame.lanes3d[i]) for i in kept]
        else:
            lanes2d, height = [frame.lanes2d[i] for i in kept], frame.camera_height
            points += _naming_lanes(frame_where, fitting.ipm_points, lanes2d, k, height)

    if opts.mode != "baseline":
        starts = _naming_lanes(where, fitting.lane_starts, points, cfg)
        reports = [None] * len(where)
        v_ends, cameras, heights = np.array(v_ends), np.array(cameras), np.array(heights)
        for height in dict.fromkeys(heights.tolist()):
            members = np.flatnonzero(heights == height)
            u_values = np.array([u_rows[i] for i in members])
            targets = LaneTargets(
                rows=grids[height],
                u_values=u_values,
                present=~np.isnan(u_values),
                v_ends=v_ends[members],
                camera=cameras[members],
                labels=[points[i] for i in members] if opts.mode == "3d" else None,
            )
            fits = _naming_lanes(
                [where[i] for i in members], fitting.fit_lanes, targets, starts[members], cfg
            )
            for i, report in zip(members, fits):
                reports[i] = report
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


def _resample_by_height(lanes, images):
    """Per frame i, resample_lanes(lanes[i], row_grid(images[i])), as a slice
    of one resample_lanes call over the lanes of every frame of its image
    height.

    Each lane is resampled on its own, so a slice reads as its frame
    would alone.
    """
    blocks = [None] * len(lanes)
    for height in dict.fromkeys(image.height for image in images):
        members = [i for i, image in enumerate(images) if image.height == height]
        rows = row_grid(images[members[0]])
        u_values = resample_lanes([lane for i in members for lane in lanes[i]], rows)
        start = 0
        for i in members:
            blocks[i] = u_values[start : start + len(lanes[i])]
            start += len(lanes[i])
    return blocks


def _naming_lanes(where, call, *args):
    """call(*args), with a LaneError about lane i of its stack re-raised
    with where[i], a (frame id, lane index) pair, named first."""
    try:
        return call(*args)
    except LaneError as exc:
        if exc.lane is None:
            raise
        frame_id, lane = where[exc.lane]
        raise type(exc)(f"frame {frame_id}, lane {lane}: {exc}") from exc


def _cmd_eval(opts) -> int:
    frames = io_formats.read_dataset(opts.dataset)
    preds = io_formats.read_predictions(opts.pred)
    io_formats.validate_predictions(preds, frames)
    by_id = {p.frame_id: p for p in preds}
    preds = [by_id.get(f.frame_id, io_formats.PredictionFrame(frame_id=f.frame_id)) for f in frames]

    cfg = metrics.EvalConfig(lane_width=opts.lane_width, tusimple_pixel_tol=opts.tusimple_tol)
    totals = {t: [0, 0, 0] for t in cfg.iou_thresholds}
    ts_correct = ts_points = ts_matched = ts_pred = ts_gt = 0
    cd_values = []
    n_pred_lanes = 0
    n_gt_lanes = 0

    # A record holds 3D or 2D lanes, never both. Every predicted 3D lane of
    # the dataset is sampled once, in one pass, and projected through its
    # own frame's camera: its projection and its curve distance read the
    # same points. A curve that overflows gives inf or NaN samples, which
    # Lane2D and cd_error_per_pair refuse, so a lane that overflows in any
    # frame is refused before any frame is scored.
    n_lanes3d = [len(p.lanes3d) for p in preds]
    splits = np.cumsum(n_lanes3d)[:-1]
    cameras = [[f.intrinsics.fx, f.intrinsics.fy, f.intrinsics.ox, f.intrinsics.oy] for f in frames]
    cameras = np.repeat(np.reshape(cameras, (-1, 4)), n_lanes3d, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        samples = sample_lanes([lane for p in preds for lane in p.lanes3d], opts.sample_count)
        projected = project_stack(cameras, samples)
    samples = np.split(samples, splits)
    pred2d = [
        [*p.lanes2d, *map(Lane2D, uv)] for p, uv in zip(preds, np.split(projected, splits))
    ]

    # Matching reads every image row and row-anchor accuracy every
    # tusimple_row_step-th row from mid-image down. Each side's lanes are
    # resampled once per image height, on every row of that height.
    images = [frame.image for frame in frames]
    pred_blocks = _resample_by_height(pred2d, images)
    gt_blocks = _resample_by_height([frame.lanes2d for frame in frames], images)

    per_frame = zip(frames, preds, pred2d, samples, pred_blocks, gt_blocks)
    for frame, pred, lanes, points, pred_u, gt_u in per_frame:
        gts2d = list(frame.lanes2d)
        n_pred_lanes += len(lanes)
        n_gt_lanes += len(gts2d)

        for t, (tp, fp, fn) in metrics.f1_counts(lanes, gts2d, frame.image, cfg).items():
            totals[t][0] += tp
            totals[t][1] += fp
            totals[t][2] += fn

        grid = row_grid(frame.image)
        anchors = slice(frame.image.height // 2, None, opts.tusimple_row_step)
        ts = metrics.tusimple_accuracy(pred_u[:, anchors], gt_u[:, anchors], grid[anchors], cfg)
        ts_correct += ts.correct_points
        ts_points += ts.gt_points
        ts_matched += ts.matched_pairs
        ts_pred += ts.pred_lanes
        ts_gt += ts.gt_lanes

        if pred.lanes3d and frame.lanes3d:
            costs = cost_matrix(pred_u, gt_u, grid)
            match = hungarian_assign(costs, match_threshold=opts.match_threshold)
            pairs = [(i, j) for i, j, _ in match.pairs]
            if pairs:
                try:
                    cd_values.extend(metrics.cd_error_per_pair(points, frame.lanes3d, pairs))
                except NonFiniteError as exc:
                    raise NonFiniteError(f"frame {frame.frame_id}: {exc}") from exc

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
    # descriptors sit at rows of one image size and anchors match on its grid
    other = next((f.image for f in frames if f.image != image), None)
    if other is not None:
        raise SchemaError(
            f"anchors need one image size, got {image.width}x{image.height} "
            f"and {other.width}x{other.height}"
        )
    all_lanes = [lane for frame in frames for lane in frame.lanes2d]
    built = anchors_mod.build_descriptors(all_lanes, image, opts.rows)
    descriptors = [d for d in built if d is not None]
    lanes = [lane for lane, d in zip(all_lanes, built) if d is not None]
    if not descriptors:
        raise SchemaError("dataset contains no usable lanes")
    anchor_set = anchors_mod.cluster_anchors(descriptors, k=opts.k, image=image, seed=opts.seed)
    io_formats.write_anchors(anchor_set, opts.out)
    recall = anchors_mod.anchor_recall(anchor_set, lanes, opts.match_threshold)
    print(
        f"clustered {len(descriptors)} lanes into {anchor_set.k} anchors "
        f"(inertia {anchor_set.inertia:.4g}, restart {anchor_set.chosen_restart}); "
        f"recall@{opts.match_threshold:g}px {recall:.4f}; wrote {opts.out}"
    )
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
        "type": _count(MAX_SAMPLE_COUNT, low=2),
        "default": DEFAULT_SAMPLE_COUNT,
        "help": f"samples per 3D lane, 2 to {MAX_SAMPLE_COUNT}",
    }
    fit_defaults = fitting.FitConfig()
    eval_defaults = metrics.EvalConfig()
    match_threshold = {"type": _non_negative_float, "default": DEFAULT_MATCH_THRESHOLD}
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
                "type": int,
                "choices": fitting.ORDERS,
                "default": fit_defaults.order,
                "help": "least-squares degree; 4 in baseline mode only",
            },
            "--keypoints": {
                "type": _count(fitting.MAX_KEYPOINTS, low=2),
                "help": f"height keypoints per lane, 2 to {fitting.MAX_KEYPOINTS} "
                f"(default {fit_defaults.keypoints}); 3d and 2d modes only",
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
            "--lane-width": {
                "type": float,
                "default": eval_defaults.lane_width,
                "help": "raster lane width [px]",
            },
            "--match-threshold": {**match_threshold, "help": "match distance [px]"},
            "--sample-count": sample_count,
            "--tusimple-tol": {
                "type": float,
                "default": eval_defaults.tusimple_pixel_tol,
                "help": "row-anchor tolerance [px]",
            },
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
            "-k": {
                "type": _count(anchors_mod.MAX_ANCHORS),
                "default": 24,
                "help": f"number of anchors, 1 to {anchors_mod.MAX_ANCHORS}",
            },
            "--rows": {
                "type": _count(MAX_SAMPLE_COUNT, low=2),
                "default": anchors_mod.DEFAULT_DESCRIPTOR_ROWS,
                "help": f"descriptor rows, 2 to {MAX_SAMPLE_COUNT}",
            },
            "--seed": {"type": int, "default": 0, "help": "k-means seed"},
            "--match-threshold": {**match_threshold, "help": "recall distance [px]"},
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
