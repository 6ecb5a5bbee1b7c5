"""Serialization: JSON Lines datasets and predictions, JSON reports.

Every file starts with a header object declaring schema_version and
kind. Floats are written with Python's shortest-repr JSON encoding,
which round-trips exactly. Writes go through a temp file and an atomic
replace so readers never observe a half-written file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .anchors import AnchorSet, LaneDescriptor
from .camera import CameraIntrinsics, ImageSpec, Lane2D
from .datagen import FrameRecord
from .errors import SchemaError, ValidationError, VersionError
from .geometry import BevCurve, HeightProfile, Lane3D

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class PredictionFrame:
    """Predicted lanes for one frame; 3D, 2D, or both."""

    frame_id: int
    lanes3d: tuple[Lane3D, ...] = ()
    lanes2d: tuple[Lane2D, ...] = ()


def atomic_write_text(path: str, text: str) -> None:
    """Write text through a temp file and an atomic replace."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(text)
    os.replace(tmp, path)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, allow_nan=False, separators=(",", ":"))


def _header(kind: str) -> str:
    return _dump({"kind": kind, "schema_version": SCHEMA_VERSION})


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a finite number")


# json.loads would turn NaN and Infinity literals into floats.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _parse_object(text: str, where: str, kind: str | None = None) -> dict:
    """Decode one JSON object; with kind, also check its envelope."""
    try:
        obj = _DECODER.decode(text)
    except ValueError as exc:
        raise SchemaError(f"{where}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    if kind is not None:
        version = obj.get("schema_version")
        if version != SCHEMA_VERSION:
            raise VersionError(
                f"{where}: schema_version {version!r} is not supported (expected {SCHEMA_VERSION!r})"
            )
        if obj.get("kind") != kind:
            raise SchemaError(f"{where}: kind {obj.get('kind')!r}, expected {kind!r}")
    return obj


def _records(path: str, kind: str):
    """Check the header line, then yield (line number, object) per record."""
    with open(path, "r", encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        raise SchemaError(f"{path}: empty file, expected a {kind} header")
    _parse_object(lines[0], f"{path}:1", kind)
    for index in range(1, len(lines)):
        yield index + 1, _parse_object(lines[index], f"{path}:{index + 1}")


def _field(obj: dict, key: str, where: str):
    if key not in obj:
        raise SchemaError(f"{where}: missing key {key!r}")
    return obj[key]


def _intrinsics_to_json(k: CameraIntrinsics) -> dict:
    return {"fx": k.fx, "fy": k.fy, "ox": k.ox, "oy": k.oy}


def _image_to_json(image: ImageSpec) -> dict:
    return {"width": image.width, "height": image.height}


def _points_to_json(points: np.ndarray) -> list:
    return np.asarray(points, dtype=float).tolist()


def _lane3d_to_json(lane: Lane3D) -> dict:
    return {
        "curve": {"a": lane.curve.a, "b": lane.curve.b, "c": lane.curve.c, "d": lane.curve.d},
        "heights": list(lane.profile.heights),
        "z_min": lane.z_min,
        "z_max": lane.z_max,
        "score": lane.score,
    }


def _lane3d_from_json(obj: dict, where: str) -> Lane3D:
    try:
        curve_obj = _field(obj, "curve", where)
        curve = BevCurve(
            a=float(_field(curve_obj, "a", where)),
            b=float(_field(curve_obj, "b", where)),
            c=float(_field(curve_obj, "c", where)),
            d=float(_field(curve_obj, "d", where)),
        )
        profile = HeightProfile(
            heights=tuple(float(h) for h in _field(obj, "heights", where)),
            z_min=float(_field(obj, "z_min", where)),
            z_max=float(_field(obj, "z_max", where)),
        )
        return Lane3D(curve=curve, profile=profile, score=float(_field(obj, "score", where)))
    except (TypeError, ValueError, OverflowError, ValidationError) as exc:
        raise SchemaError(f"{where}: bad 3D lane: {exc}") from exc


def write_dataset(frames: list[FrameRecord], path: str) -> None:
    lines = [_header("dataset")]
    for frame in frames:
        lines.append(
            _dump(
                {
                    "frame_id": frame.frame_id,
                    "tag": frame.tag,
                    "seed": frame.seed,
                    "camera_height": frame.camera_height,
                    "intrinsics": _intrinsics_to_json(frame.intrinsics),
                    "image": _image_to_json(frame.image),
                    "lanes3d": [_points_to_json(p) for p in frame.lanes3d],
                    "lanes2d": [_points_to_json(l.points) for l in frame.lanes2d],
                }
            )
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_dataset(path: str) -> list[FrameRecord]:
    frames = []
    for line_no, obj in _records(path, "dataset"):
        where = f"{path}:{line_no}"
        try:
            intr = _field(obj, "intrinsics", where)
            img = _field(obj, "image", where)
            frame = FrameRecord(
                frame_id=int(_field(obj, "frame_id", where)),
                tag=str(obj.get("tag", "")),
                seed=int(obj.get("seed", 0)),
                camera_height=float(_field(obj, "camera_height", where)),
                intrinsics=CameraIntrinsics(
                    fx=float(_field(intr, "fx", where)),
                    fy=float(_field(intr, "fy", where)),
                    ox=float(_field(intr, "ox", where)),
                    oy=float(_field(intr, "oy", where)),
                ),
                image=ImageSpec(
                    width=int(_field(img, "width", where)),
                    height=int(_field(img, "height", where)),
                ),
                lanes3d=tuple(
                    np.asarray(p, dtype=float) for p in _field(obj, "lanes3d", where)
                ),
                lanes2d=tuple(Lane2D(p) for p in _field(obj, "lanes2d", where)),
            )
        except (TypeError, ValueError, OverflowError, ValidationError) as exc:
            raise SchemaError(f"{where}: bad frame record: {exc}") from exc
        if frame.lanes3d and len(frame.lanes3d) != len(frame.lanes2d):
            raise SchemaError(f"{where}: {len(frame.lanes3d)} lanes3d for {len(frame.lanes2d)} lanes2d")
        for pts in frame.lanes3d:
            if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 2:
                raise SchemaError(f"{where}: lanes3d entries must be (m >= 2, 3) point lists")
            if not np.isfinite(pts).all() or (pts[:, 2] <= 0.0).any():
                raise SchemaError(f"{where}: lanes3d points must be finite with z > 0")
        frames.append(frame)
    return frames


def write_predictions(frames: list[PredictionFrame], path: str) -> None:
    lines = [_header("predictions")]
    for frame in frames:
        lines.append(
            _dump(
                {
                    "frame_id": frame.frame_id,
                    "lanes3d": [_lane3d_to_json(l) for l in frame.lanes3d],
                    "lanes2d": [_points_to_json(l.points) for l in frame.lanes2d],
                }
            )
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_predictions(path: str) -> list[PredictionFrame]:
    frames = []
    for line_no, obj in _records(path, "predictions"):
        where = f"{path}:{line_no}"
        try:
            frame = PredictionFrame(
                frame_id=int(_field(obj, "frame_id", where)),
                lanes3d=tuple(
                    _lane3d_from_json(l, where) for l in obj.get("lanes3d", [])
                ),
                lanes2d=tuple(Lane2D(p) for p in obj.get("lanes2d", [])),
            )
        except (TypeError, ValueError, OverflowError, ValidationError) as exc:
            raise SchemaError(f"{where}: bad prediction record: {exc}") from exc
        frames.append(frame)
    return frames


def validate_predictions(preds: list[PredictionFrame], dataset: list[FrameRecord]) -> None:
    """Ensure every prediction refers to a dataset frame."""
    known = {frame.frame_id for frame in dataset}
    for pred in preds:
        if pred.frame_id not in known:
            raise SchemaError(f"prediction references unknown frame_id {pred.frame_id}")
    seen = set()
    for pred in preds:
        if pred.frame_id in seen:
            raise SchemaError(f"duplicate prediction for frame_id {pred.frame_id}")
        seen.add(pred.frame_id)


def write_anchors(anchors: AnchorSet, path: str) -> None:
    obj = {
        "kind": "anchors",
        "schema_version": SCHEMA_VERSION,
        "image": _image_to_json(anchors.image),
        "rows": anchors.rows.tolist(),
        "inertia": anchors.inertia,
        "descriptors": [
            {"u": d.u.tolist(), "v_start": d.v_start, "v_end": d.v_end}
            for d in anchors.descriptors
        ],
    }
    atomic_write_text(path, _dump(obj) + "\n")


def read_anchors(path: str) -> AnchorSet:
    with open(path, "r", encoding="utf-8") as f:
        obj = _parse_object(f.read(), path, "anchors")
    where = path
    img = _field(obj, "image", where)
    try:
        descriptors = tuple(
            LaneDescriptor(
                u=np.asarray(_field(d, "u", where), dtype=float),
                v_start=float(_field(d, "v_start", where)),
                v_end=float(_field(d, "v_end", where)),
            )
            for d in _field(obj, "descriptors", where)
        )
        return AnchorSet(
            descriptors=descriptors,
            rows=np.asarray(_field(obj, "rows", where), dtype=float),
            image=ImageSpec(
                width=int(_field(img, "width", where)),
                height=int(_field(img, "height", where)),
            ),
            inertia=float(_field(obj, "inertia", where)),
        )
    except (TypeError, ValueError, OverflowError, ValidationError) as exc:
        raise SchemaError(f"{where}: bad anchor file: {exc}") from exc


def write_report(report: dict, path: str) -> None:
    obj = {"kind": "report", "schema_version": SCHEMA_VERSION}
    obj.update(report)
    atomic_write_text(path, json.dumps(obj, sort_keys=True, allow_nan=False, indent=2) + "\n")


def read_report(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return _parse_object(f.read(), path, "report")
