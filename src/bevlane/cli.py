"""Command-line pipeline: generate, fit, eval, anchors, project, render.

Every flag can also come from a JSON config file (--config) whose top
level maps subcommand names to flag dictionaries; explicit command-line
values win. Exit codes: 0 success, 2 usage or schema problems, 3
numerical failure during fitting.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from . import anchors as anchors_mod
from . import datagen, fitting, io_formats, metrics, render
from .assignment import match_lanes, resample_lane
from .camera import CameraIntrinsics, ImageSpec, Lane2D, project_lane
from .errors import (
    DegenerateLaneError,
    LaneError,
    NonFiniteError,
    SchemaError,
    ValidationError,
    VersionError,
)
from .geometry import BevCurve, DEFAULT_SAMPLE_COUNT
from .losses import IoUConfig, LossWeights

_COMMANDS = {}


def _command(name, defaults):
    def wrap(fn):
        _COMMANDS[name] = (fn, defaults)
        return fn

    return wrap


def _load_config(path: str | None, command: str) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON config: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: config must be an object of per-command sections")
    section = obj.get(command, {})
    if not isinstance(section, dict):
        raise SchemaError(f"{path}: section {command!r} must be an object")
    return section


def _resolve(args: argparse.Namespace, command: str) -> SimpleNamespace:
    """Fill unset flags from the config file section, then from defaults."""
    _, defaults = _COMMANDS[command]
    section = _load_config(args.config, command)
    unknown = set(section) - set(defaults)
    if unknown:
        raise SchemaError(f"unknown config keys for {command!r}: {sorted(unknown)}")
    values = {}
    for key, default in defaults.items():
        cli_value = getattr(args, key, None)
        values[key] = cli_value if cli_value is not None else section.get(key, default)
    return SimpleNamespace(**values)


def _parse_order(text: str):
    if text == "bezier":
        return text
    try:
        order = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"order must be 2, 3, 4 or bezier, got {text!r}")
    if order not in (2, 3, 4):
        raise argparse.ArgumentTypeError(f"order must be 2, 3, 4 or bezier, got {text!r}")
    return order


def _scene_from_json(obj: dict, where: str) -> datagen.SceneSpec:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: scene must be an object")
    known = {
        "preset",
        "centerline",
        "lateral_offsets",
        "ground",
        "z_range",
        "samples_per_lane",
        "camera_height",
        "intrinsics",
        "image",
        "seed",
        "tag",
    }
    unknown = set(obj) - known
    if unknown:
        raise SchemaError(f"{where}: unknown scene keys {sorted(unknown)}")
    base = None
    if "preset" in obj:
        presets = {
            "flat": datagen.flat_scene,
            "slope": datagen.slope_scene,
            "bump": datagen.bump_scene,
            "rough": datagen.rough_scene,
        }
        name = obj["preset"]
        if name not in presets:
            raise SchemaError(f"{where}: unknown preset {name!r}, choose from {sorted(presets)}")
        base = presets[name]()
    kwargs = {}
    try:
        if "centerline" in obj:
            c = obj["centerline"]
            kwargs["centerline"] = BevCurve(
                a=float(c.get("a", 0.0)),
                b=float(c.get("b", 0.0)),
                c=float(c.get("c", 0.0)),
                d=float(c.get("d", 0.0)),
            )
        if "lateral_offsets" in obj:
            kwargs["lateral_offsets"] = tuple(float(x) for x in obj["lateral_offsets"])
        if "ground" in obj:
            g = obj["ground"]
            kwargs["ground"] = datagen.GroundModel(
                kind=g.get("kind", "flat"),
                amplitude=float(g.get("amplitude", 0.0)),
                wavelength=float(g.get("wavelength", 20.0)),
                grade=float(g.get("grade", 0.0)),
                seed=int(g.get("seed", 0)),
            )
        if "z_range" in obj:
            z0, z1 = obj["z_range"]
            kwargs["z_range"] = (float(z0), float(z1))
        if "samples_per_lane" in obj:
            kwargs["samples_per_lane"] = int(obj["samples_per_lane"])
        if "camera_height" in obj:
            kwargs["camera_height"] = float(obj["camera_height"])
        if "intrinsics" in obj:
            k = obj["intrinsics"]
            kwargs["intrinsics"] = CameraIntrinsics(
                fx=float(k["fx"]), fy=float(k["fy"]), ox=float(k["ox"]), oy=float(k["oy"])
            )
        if "image" in obj:
            img = obj["image"]
            kwargs["image"] = ImageSpec(width=int(img["width"]), height=int(img["height"]))
        if "seed" in obj:
            kwargs["seed"] = int(obj["seed"])
        if "tag" in obj:
            kwargs["tag"] = str(obj["tag"])
        if base is not None:
            return replace(base, **kwargs)
        return datagen.SceneSpec(**kwargs)
    except (TypeError, ValueError, KeyError) as exc:
        raise SchemaError(f"{where}: bad scene: {exc}") from exc


def _jitter_from_json(obj: dict, where: str) -> datagen.JitterSpec:
    known = {"curve_delta", "amplitude_delta", "grade_delta", "wavelength_delta"}
    unknown = set(obj) - known
    if unknown:
        raise SchemaError(f"{where}: unknown jitter keys {sorted(unknown)}")
    try:
        kwargs = {}
        if "curve_delta" in obj:
            kwargs["curve_delta"] = tuple(float(x) for x in obj["curve_delta"])
        for key in ("amplitude_delta", "grade_delta", "wavelength_delta"):
            if key in obj:
                kwargs[key] = float(obj[key])
        return datagen.JitterSpec(**kwargs)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: bad jitter: {exc}") from exc


@_command("generate", {"spec": None, "frames": 1, "out": None, "seed": None})
def _cmd_generate(opts) -> int:
    if opts.spec is None or opts.out is None:
        raise SchemaError("generate needs --spec and --out")
    try:
        with open(opts.spec, "r", encoding="utf-8") as f:
            obj = json.load(f)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{opts.spec}: invalid JSON: {exc}") from exc
    if isinstance(obj, dict) and "scenes" in obj:
        scenes = [
            _scene_from_json(s, f"{opts.spec}:scenes[{i}]") for i, s in enumerate(obj["scenes"])
        ]
        jitter = (
            _jitter_from_json(obj["jitter"], f"{opts.spec}:jitter") if "jitter" in obj else None
        )
    else:
        scenes = [_scene_from_json(obj, opts.spec)]
        jitter = None
    frames = datagen.generate_dataset(
        scenes,
        frames_per_spec=int(opts.frames),
        jitter=jitter,
        seed=None if opts.seed is None else int(opts.seed),
    )
    io_formats.write_dataset(frames, opts.out)
    print(f"wrote {len(frames)} frames ({len(scenes)} scenes) to {opts.out}")
    return 0


_FIT_DEFAULTS = {
    "dataset": None,
    "out": None,
    "mode": "3d",
    "order": 3,
    "alpha": 1.0,
    "beta": 1.0,
    "e_bev": 0.5,
    "e_per": 15.0,
    "max_iters": 60,
    "step_size": 1e-2,
    "plateau": 15,
    "keypoints": 72,
    "ipm_height": 1.5,
}


def _fit_config(opts) -> fitting.FitConfig:
    return fitting.FitConfig(
        max_iters=int(opts.max_iters),
        step_size=float(opts.step_size),
        plateau_patience=int(opts.plateau),
        order=opts.order,
        keypoints=int(opts.keypoints),
        ipm_camera_height=float(opts.ipm_height),
    )


@_command("fit", _FIT_DEFAULTS)
def _cmd_fit(opts) -> int:
    if opts.dataset is None or opts.out is None:
        raise SchemaError("fit needs --dataset and --out")
    if opts.mode not in ("2d", "3d", "baseline"):
        raise SchemaError(f"fit mode must be 2d, 3d or baseline, got {opts.mode!r}")
    frames = io_formats.read_dataset(opts.dataset)
    cfg = _fit_config(opts)
    weights = LossWeights(alpha=float(opts.alpha), beta=float(opts.beta))
    bev_iou = IoUConfig(e=float(opts.e_bev))
    per_iou = IoUConfig(e=float(opts.e_per))

    preds = []
    skipped = 0
    fitted = 0
    residual_sums = []
    for frame in frames:
        if opts.mode == "3d" and len(frame.lanes3d) != len(frame.lanes2d):
            raise SchemaError(f"frame {frame.frame_id} has no lanes3d labels; use --mode 2d")
        lanes3d = []
        lanes2d = []
        for idx, gt2d in enumerate(frame.lanes2d):
            try:
                if opts.mode == "baseline":
                    if opts.order == "bezier":
                        raise SchemaError("the baseline fit is polynomial; use order 2, 3 or 4")
                    fit = fitting.fit_perspective_baseline(gt2d, order=int(opts.order))
                    v = np.linspace(gt2d.v.max(), gt2d.v.min(), DEFAULT_SAMPLE_COUNT)
                    lanes2d.append(Lane2D(np.column_stack([fit.u_at(v), v])))
                    residual_sums.append(fit.max_residual)
                else:
                    gt_rl = resample_lane(gt2d, frame.image)
                    if opts.mode == "3d":
                        report = fitting.fit_lane_3d(
                            frame.lanes3d[idx],
                            gt_rl,
                            frame.intrinsics,
                            cfg,
                            bev_iou=bev_iou,
                            per_iou=per_iou,
                            weights=weights,
                        )
                    else:
                        init = fitting.ipm_init(gt2d, frame.intrinsics, cfg)
                        report = fitting.fit_lane_2d(
                            gt_rl,
                            frame.intrinsics,
                            init,
                            cfg,
                            per_iou=per_iou,
                            weights=weights,
                        )
                    lanes3d.append(report.lane)
                    residual_sums.append(report.terms.get("total", float("nan")))
                fitted += 1
            except DegenerateLaneError:
                skipped += 1
        preds.append(
            io_formats.PredictionFrame(
                frame_id=frame.frame_id, lanes3d=tuple(lanes3d), lanes2d=tuple(lanes2d)
            )
        )
    io_formats.write_predictions(preds, opts.out)
    label = "max residual [px]" if opts.mode == "baseline" else "final loss"
    mean_val = float(np.mean(residual_sums)) if residual_sums else float("nan")
    print(
        f"fit {fitted} lanes in mode {opts.mode} (skipped {skipped}); "
        f"mean {label}: {mean_val:.6g}; wrote {opts.out}"
    )
    return 0


_EVAL_DEFAULTS = {
    "dataset": None,
    "pred": None,
    "out": None,
    "lane_width": 30.0,
    "raster_scale": 1.0,
    "match_threshold": 30.0,
    "sample_count": DEFAULT_SAMPLE_COUNT,
    "tusimple_tol": 20.0,
    "tusimple_row_step": 10,
}


def _tusimple_rows(image: ImageSpec, step: int) -> np.ndarray:
    return np.arange(image.height // 2, image.height, step, dtype=float)


@_command("eval", _EVAL_DEFAULTS)
def _cmd_eval(opts) -> int:
    if opts.dataset is None or opts.pred is None or opts.out is None:
        raise SchemaError("eval needs --dataset, --pred and --out")
    frames = io_formats.read_dataset(opts.dataset)
    preds = io_formats.read_predictions(opts.pred)
    io_formats.validate_predictions(preds, frames)
    by_id = {p.frame_id: p for p in preds}

    cfg = metrics.EvalConfig(
        lane_width=float(opts.lane_width),
        raster_scale=float(opts.raster_scale),
        tusimple_pixel_tol=float(opts.tusimple_tol),
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
                project_lane(frame.intrinsics, lane, int(opts.sample_count))
                for lane in pred.lanes3d
            ]
        gts2d = list(frame.lanes2d)
        n_pred_lanes += len(pred2d)
        n_gt_lanes += len(gts2d)

        for t, (tp, fp, fn) in metrics.f1_counts(pred2d, gts2d, frame.image, cfg).items():
            totals[t][0] += tp
            totals[t][1] += fp
            totals[t][2] += fn

        rows = _tusimple_rows(frame.image, int(opts.tusimple_row_step))
        gt_arrays = [metrics.resample_at_rows(g, rows) for g in gts2d]
        ts = metrics.tusimple_accuracy(pred2d, gt_arrays, rows, cfg)
        ts_correct += ts.correct_points
        ts_points += ts.gt_points
        ts_matched += ts.matched_pairs
        ts_pred += ts.pred_lanes
        ts_gt += ts.gt_lanes

        if pred.lanes3d and frame.lanes3d:
            match = match_lanes(
                pred2d, gts2d, frame.image, match_threshold=float(opts.match_threshold)
            )
            pairs = [(i, j) for i, j, _ in match.pairs]
            if pairs:
                cd_values.extend(
                    metrics.cd_error_per_pair(
                        list(pred.lanes3d), list(frame.lanes3d), pairs, int(opts.sample_count)
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


_ANCHOR_DEFAULTS = {
    "dataset": None,
    "out": None,
    "k": 24,
    "rows": 36,
    "restarts": 10,
    "seed": 0,
    "match_threshold": 30.0,
}


@_command("anchors", _ANCHOR_DEFAULTS)
def _cmd_anchors(opts) -> int:
    if opts.dataset is None or opts.out is None:
        raise SchemaError("anchors needs --dataset and --out")
    frames = io_formats.read_dataset(opts.dataset)
    if not frames:
        raise SchemaError("dataset has no frames")
    image = frames[0].image
    descriptors = []
    lanes = []
    for frame in frames:
        for lane in frame.lanes2d:
            try:
                descriptors.append(anchors_mod.build_descriptor(lane, image, int(opts.rows)))
                lanes.append(lane)
            except DegenerateLaneError:
                continue
    if not descriptors:
        raise SchemaError("dataset contains no usable lanes")
    anchor_set = anchors_mod.cluster_anchors(
        descriptors,
        k=int(opts.k),
        image=image,
        seed=int(opts.seed),
        restarts=int(opts.restarts),
    )
    io_formats.write_anchors(anchor_set, opts.out)
    recall = anchors_mod.anchor_recall(anchor_set, lanes, float(opts.match_threshold))
    print(
        f"clustered {len(descriptors)} lanes into {anchor_set.k} anchors "
        f"(inertia {anchor_set.inertia:.4g}, restart {anchor_set.chosen_restart}); "
        f"recall@{opts.match_threshold:g}px {recall:.4f}; wrote {opts.out}"
    )
    return 0


_PROJECT_DEFAULTS = {
    "dataset": None,
    "pred": None,
    "out": None,
    "sample_count": DEFAULT_SAMPLE_COUNT,
}


@_command("project", _PROJECT_DEFAULTS)
def _cmd_project(opts) -> int:
    if opts.dataset is None or opts.pred is None or opts.out is None:
        raise SchemaError("project needs --dataset, --pred and --out")
    frames = io_formats.read_dataset(opts.dataset)
    preds = io_formats.read_predictions(opts.pred)
    io_formats.validate_predictions(preds, frames)
    by_id = {f.frame_id: f for f in frames}
    out = []
    n = 0
    for pred in preds:
        frame = by_id[pred.frame_id]
        lanes2d = tuple(
            project_lane(frame.intrinsics, lane, int(opts.sample_count))
            for lane in pred.lanes3d
        )
        n += len(lanes2d)
        out.append(
            io_formats.PredictionFrame(
                frame_id=pred.frame_id, lanes3d=pred.lanes3d, lanes2d=lanes2d
            )
        )
    io_formats.write_predictions(out, opts.out)
    print(f"projected {n} lanes to {opts.out}")
    return 0


_RENDER_DEFAULTS = {
    "dataset": None,
    "pred": None,
    "out": None,
    "frame": None,
    "view": "perspective",
    "sample_count": DEFAULT_SAMPLE_COUNT,
}


@_command("render", _RENDER_DEFAULTS)
def _cmd_render(opts) -> int:
    if opts.dataset is None or opts.out is None:
        raise SchemaError("render needs --dataset and --out")
    frames = io_formats.read_dataset(opts.dataset)
    if not frames:
        raise SchemaError("dataset has no frames")
    if opts.frame is None:
        frame = frames[0]
    else:
        wanted = int(opts.frame)
        matching = [f for f in frames if f.frame_id == wanted]
        if not matching:
            raise SchemaError(f"dataset has no frame_id {wanted}")
        frame = matching[0]
    pred_lanes = None
    if opts.pred is not None:
        preds = io_formats.read_predictions(opts.pred)
        for p in preds:
            if p.frame_id == frame.frame_id:
                pred_lanes = list(p.lanes3d) if p.lanes3d else list(p.lanes2d)
                break
    svg = render.render_svg(frame, pred_lanes, view=opts.view, sample_count=int(opts.sample_count))
    io_formats.atomic_write_text(opts.out, svg)
    print(f"rendered frame {frame.frame_id} ({opts.view}) to {opts.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bevlane",
        description="Synthesize, fit, evaluate and render decoupled 3D lanes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file with per-command sections")
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
        return p

    add(
        "generate",
        "generate a synthetic dataset from a scene spec file",
        {
            "--spec": {"help": "scene spec JSON file"},
            "--frames": {"type": int, "help": "frames per scene (default 1)"},
            "--out": {"help": "output dataset (JSON lines)"},
            "--seed": {"type": int, "help": "override the scene seeds"},
        },
    )
    add(
        "fit",
        "fit lane models to dataset labels",
        {
            "--dataset": {"help": "input dataset"},
            "--out": {"help": "output predictions (JSON lines)"},
            "--mode": {"choices": ["2d", "3d", "baseline"], "help": "supervision mode"},
            "--order": {"type": _parse_order, "help": "curve model: 2, 3, 4 or bezier"},
            "--alpha": {"type": float, "help": "3D loss weight"},
            "--beta": {"type": float, "help": "2D loss weight"},
            "--e-bev": {"dest": "e_bev", "type": float, "help": "BEV IoU half-width [m]"},
            "--e-per": {"dest": "e_per", "type": float, "help": "image IoU half-width [px]"},
            "--max-iters": {"dest": "max_iters", "type": int, "help": "descent iterations (2d mode)"},
            "--step-size": {"dest": "step_size", "type": float, "help": "descent step (2d mode)"},
            "--plateau": {"type": int, "help": "stop after this many non-improving iters (2d mode)"},
            "--keypoints": {"type": int, "help": "height keypoints per lane"},
            "--ipm-height": {"dest": "ipm_height", "type": float, "help": "assumed camera height for 2d init"},
        },
    )
    add(
        "eval",
        "score predictions against a dataset",
        {
            "--dataset": {"help": "input dataset"},
            "--pred": {"help": "predictions file"},
            "--out": {"help": "output report JSON"},
            "--lane-width": {"dest": "lane_width", "type": float},
            "--raster-scale": {"dest": "raster_scale", "type": float},
            "--match-threshold": {"dest": "match_threshold", "type": float},
            "--sample-count": {"dest": "sample_count", "type": int},
            "--tusimple-tol": {"dest": "tusimple_tol", "type": float},
            "--tusimple-row-step": {"dest": "tusimple_row_step", "type": int},
        },
    )
    add(
        "anchors",
        "cluster dataset lanes into an anchor dictionary",
        {
            "--dataset": {"help": "input dataset"},
            "--out": {"help": "output anchors JSON"},
            "-k": {"dest": "k", "type": int, "help": "number of anchors"},
            "--rows": {"type": int, "help": "descriptor rows"},
            "--restarts": {"type": int},
            "--seed": {"type": int},
            "--match-threshold": {"dest": "match_threshold", "type": float},
        },
    )
    add(
        "project",
        "project 3D predictions into 2D polylines",
        {
            "--dataset": {"help": "input dataset (for intrinsics)"},
            "--pred": {"help": "3D predictions file"},
            "--out": {"help": "output predictions with 2D lanes"},
            "--sample-count": {"dest": "sample_count", "type": int},
        },
    )
    add(
        "render",
        "render a frame (and optional predictions) to SVG",
        {
            "--dataset": {"help": "input dataset"},
            "--pred": {"help": "predictions file"},
            "--frame": {"type": int, "help": "frame id (default: first frame)"},
            "--view": {"choices": list(render.VIEWS)},
            "--out": {"help": "output SVG file"},
            "--sample-count": {"dest": "sample_count", "type": int},
        },
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    fn, _ = _COMMANDS[args.command]
    try:
        opts = _resolve(args, args.command)
        return fn(opts)
    except NonFiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (VersionError, SchemaError, LaneError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
