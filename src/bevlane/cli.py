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
from .assignment import DEFAULT_MATCH_THRESHOLD
from .camera import Lane2D
from .errors import LaneError, NonFiniteError, SchemaError, VersionError
from .geometry import DEFAULT_SAMPLE_COUNT, MAX_SAMPLE_COUNT


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
    # the lane model of the 3d and 2d modes; baseline reads --order alone, 4 included
    cfg = None if opts.mode == "baseline" else fitting.FitConfig(order=opts.order, **keypoints)
    frames = io_formats.read_dataset(opts.dataset)
    bare = next((f for f in frames if len(f.lanes3d) != len(f.lanes2d)), None)
    if opts.mode == "3d" and bare is not None:
        raise SchemaError(f"frame {bare.frame_id} has no lanes3d labels; use --mode 2d")

    # Per frame, each fitted lane with its max residual (baseline) or final loss.
    if opts.mode == "baseline":
        fitted = [[_fit_baseline(gt2d, opts.order) for gt2d in f.lanes2d] for f in frames]
    else:
        fitted = [
            [(report.lane, report.terms["total"]) for report in reports]
            for reports in fitting.fit_dataset(frames, opts.mode, cfg)
        ]
    side = "lanes2d" if opts.mode == "baseline" else "lanes3d"
    preds = [
        io_formats.PredictionFrame(frame_id=frame.frame_id, **{side: tuple(l for l, _ in lanes)})
        for frame, lanes in zip(frames, fitted)
    ]
    io_formats.write_predictions(preds, opts.out)
    values = [value for lanes in fitted for _lane, value in lanes]
    skipped = sum(len(frame.lanes2d) for frame in frames) - len(values)
    label = "max residual [px]" if opts.mode == "baseline" else "final loss"
    mean_val = float(np.mean(values)) if values else float("nan")
    print(
        f"fit {len(values)} lanes in mode {opts.mode} (skipped {skipped}); "
        f"mean {label}: {mean_val:.6g}; wrote {opts.out}"
    )
    return 0


def _fit_baseline(gt2d: Lane2D, order: int) -> tuple[Lane2D, float]:
    """The u(v) polynomial of one 2D lane, sampled over its rows, and its max residual."""
    fit = fitting.fit_perspective_baseline(gt2d, order=order)
    v = np.linspace(gt2d.v.max(), gt2d.v.min(), DEFAULT_SAMPLE_COUNT)
    return Lane2D(np.column_stack([polyval(v, fit.coefficients), v])), fit.max_residual


def _cmd_eval(opts) -> int:
    frames = io_formats.read_dataset(opts.dataset)
    preds = io_formats.read_predictions(opts.pred)
    io_formats.validate_predictions(preds, frames)
    cfg = metrics.EvalConfig(lane_width=opts.lane_width, tusimple_pixel_tol=opts.tusimple_tol)
    report = metrics.evaluate(
        frames, preds, cfg, opts.sample_count, opts.match_threshold, opts.tusimple_row_step
    )
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
