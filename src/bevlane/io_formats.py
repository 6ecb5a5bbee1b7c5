"""Serialization: JSON Lines datasets and predictions, JSON reports.

Every data file starts with a header object declaring schema_version and
kind. Floats are written with Python's shortest-repr JSON encoding,
float.__repr__, which round-trips exactly. write_dataset formats each
distinct value of a record's point lists once and writes that text
wherever the value occurs, so its bytes equal json.dumps's. Floats are
read as plain floats, and each reader checks that what it builds is
finite. Writes go through a temp file and an atomic replace so readers
never observe a half-written file. Scene specs and CLI config files are
read with the same JSON decoder as the data files. JSON Lines records
end at a newline only: a raw U+2028 or other Unicode line break inside
a string is part of the line.

write_dataset also writes a point cache beside the dataset,
``<dataset>.pts``, so that later stages skip decoding the dataset's
floats. Its first line is a JSON header holding the sha256 of the
dataset file's bytes and of the cache's body. The body is one JSON
array of the frame records with each point list replaced by its array
shape, a newline, then every lanes3d and lanes2d point as raw
little-endian float64, in record order. Like a .pyc keyed by its
source's hash, the cache is trusted only for the exact bytes it was
written beside: read_dataset uses it when both digests match and
otherwise decodes the JSON, which stays the reference and the only
path for datasets bevlane did not write or that were edited since. A
missing, stale, truncated or garbled cache is never read, and both
paths build each frame through the same checks.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, is_dataclass, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .anchors import AnchorSet, LaneDescriptor
from .camera import CameraIntrinsics, ImageSpec, Lane2D
from .datagen import SCENE_PRESETS, FrameRecord, JitterSpec, SceneSpec
from .errors import SchemaError, ValidationError, VersionError
from .geometry import BevCurve, HeightProfile, Lane3D

SCHEMA_VERSION = "1"
# The point cache's name suffix and layout version.
_CACHE_SUFFIX = ".pts"
_CACHE_VERSION = "1"
# read_dataset hashes the dataset file in blocks of this many bytes.
_HASH_BLOCK = 1 << 20
# The largest |u| and |v| of a 2D point the readers accept, in pixels.
# The kernels' highest power of a pixel coordinate is the fourth (fit
# --mode baseline's degree-4 np.vander on v), and the raster and k-means
# sum squared differences of two coordinates, up to (2 * MAX_PIXEL) ** 2.
# Those stay finite below about 1e77, the fourth root of float64's
# maximum (1.8e308). The raster's work sets a tighter bound: it tests one
# by one the pixels within metrics._EDGE_BAND (1e-9) of the coordinate
# magnitude of a capsule's edge, a band about a pixel wide at 1e9. Eval
# of one frame of zig-zag lanes took 44 MB at 1e9, 443 MB at 1e10 and
# over 3 GB at 1e11. At 1e9 a fourth power is 1e36 and a squared
# difference 4e18.
MAX_PIXEL = 1e9
# The largest |x|, |y| and z of a lanes3d point the readers accept, in
# meters. The kernels' highest power of a meter coordinate is the cube
# (lane_starts' np.vander on z, and z ** 3 in the BEV term's gradient),
# and the curve distance sums three squared differences of two points.
# These overflow past about 5e102 for z (z ** 3) and 4e153 for x and y:
# a label z of 1e120 made the 3d fit refuse its cubes, an x or y of 1e160
# made eval's curve distance overflow (exit 3), and an x of 1e160 leaked
# RuntimeWarnings from the 3d fit. Road scenes span under a kilometer;
# at 1e9 m a cube is 1e27 and a squared difference 4e18.
MAX_METERS = 1e9


@dataclass(frozen=True)
class PredictionFrame:
    """Predicted lanes for one frame, 3D or 2D."""

    frame_id: int
    lanes3d: tuple[Lane3D, ...] = ()
    lanes2d: tuple[Lane2D, ...] = ()


def atomic_write_text(path: str, text: str) -> None:
    """Write text through a temp file and an atomic replace."""
    _atomic_write(path, [text.encode("utf-8")])


def _sha256(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _atomic_write(path: str, chunks, digest=None) -> None:
    """Write byte chunks through a temp file and an atomic replace, each
    chunk also fed to digest (a hashlib object) when one is given."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        for chunk in chunks:
            if digest is not None:
                digest.update(chunk)
            f.write(chunk)
    os.replace(tmp, path)


def _dump(obj) -> str:
    # The writers build fresh trees, which hold no cycles to look for.
    return json.dumps(
        obj, sort_keys=True, allow_nan=False, check_circular=False, separators=(",", ":")
    )


def _header(kind: str) -> str:
    return _dump({"kind": kind, "schema_version": SCHEMA_VERSION})


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a finite number")


# json.loads would turn NaN and Infinity literals into non-finite floats.
# Overflowing literals such as 1e400 still decode to inf, which the
# readers' finiteness checks catch.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _finite(value, where: str, name: str):
    """The value, unless it is a non-finite float."""
    if isinstance(value, float) and not math.isfinite(value):
        raise SchemaError(f"{where}: invalid JSON: {name} is not a finite number")
    return value


def _typed(value, kinds: tuple, where: str, name: str):
    """The value, if it is finite and its type is one of kinds; a bool is not an int."""
    if type(_finite(value, where, name)) not in kinds:
        expected = " or ".join(kind.__name__ for kind in kinds)
        raise SchemaError(f"{where}: {name} must be {expected}, got {type(value).__name__}")
    return value


def _float(obj: dict, key: str, where: str) -> float:
    return float(_typed(_field(obj, key, where), (int, float), where, key))


def _int(obj: dict, key: str, where: str) -> int:
    return _typed(_field(obj, key, where), (int,), where, key)


def _numeric(points, where: str, name: str) -> np.ndarray:
    """The decoded list (or cached array) as an array, if its entries are numbers.

    numpy reads a bool beside numbers as a number ([true, 319.0] becomes
    [1.0, 319.0]), so a decoded list is also searched for bools.
    """
    array = np.asarray(points)
    if array.dtype.kind not in "iuf" or (isinstance(points, list) and _holds_bool(points, array.ndim)):
        raise SchemaError(f"{where}: {name} entries must be numbers")
    return array


def _holds_bool(items: list, depth: int) -> bool:
    """Whether a nested list, depth levels deep, holds a bool."""
    for _ in range(depth - 1):
        items = itertools.chain.from_iterable(items)
    return bool in set(map(type, items))


def _check_finite_tree(document: dict, where: str) -> None:
    """Raise on a non-finite float anywhere in a decoded document, naming its path.

    A loop, not recursion: the decoder accepts nesting close to the
    recursion limit.
    """
    stack = [("", document)]
    while stack:
        name, value = stack.pop()
        if isinstance(value, dict):
            stack.extend((f"{name}.{key}" if name else key, item) for key, item in value.items())
        elif isinstance(value, list):
            stack.extend((f"{name}[{index}]", item) for index, item in enumerate(value))
        else:
            _finite(value, where, name)


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _text(data: bytes, path: str) -> str:
    """The file's UTF-8 text, with CRLF and CR line ends read as newlines."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _read_text(path: str) -> str:
    return _text(_read_bytes(path), path)


def _sha256_and_head(path: str) -> tuple[str, bytes]:
    """The file's sha256, read in blocks of _HASH_BLOCK bytes, and its first
    line (its first block, if that holds no newline)."""
    with open(path, "rb") as f:
        head = f.readline(_HASH_BLOCK)
        digest = hashlib.sha256(head)
        while block := f.read(_HASH_BLOCK):
            digest.update(block)
    return digest.hexdigest(), head


def _parse_object(text: str, where: str, kind: str | None = None) -> dict:
    """Decode one JSON object; with kind, also check its envelope."""
    try:
        obj = _DECODER.decode(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
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


def _read_document(path: str, kind: str | None = None) -> dict:
    """A whole-file JSON object (report, anchors, spec or config), every float finite."""
    obj = _parse_object(_read_text(path), path, kind)
    _check_finite_tree(obj, path)
    return obj


def _records(text: str, path: str, kind: str):
    """Check the header line, then yield (line number, object) per record.

    Lines end at a newline only, and blank lines are skipped.
    """
    lines = [(n, line) for n, line in enumerate(text.split("\n"), 1) if line.strip()]
    if not lines:
        raise SchemaError(f"{path}: empty file, expected a {kind} header")
    _parse_object(lines[0][1], f"{path}:{lines[0][0]}", kind)
    for line_no, line in lines[1:]:
        yield line_no, _parse_object(line, f"{path}:{line_no}")


def _field(obj: dict, key: str, where: str):
    if key not in obj:
        raise SchemaError(f"{where}: missing key {key!r}")
    return obj[key]


def _lanes2d(items, where: str, name: str) -> tuple[Lane2D, ...]:
    """The 2D lanes of a record, each point's |u| and |v| at most MAX_PIXEL."""
    try:
        lanes = tuple(Lane2D(_numeric(p, where, name)) for p in items)
    except (TypeError, ValueError, ValidationError) as exc:
        raise SchemaError(f"{where}: bad {name}: {exc}") from exc
    if lanes and np.abs(np.concatenate([lane.points for lane in lanes])).max() > MAX_PIXEL:
        lane, point = next(
            (i, j) for i, lane in enumerate(lanes) for j, uv in enumerate(lane.points)
            if np.abs(uv).max() > MAX_PIXEL
        )
        raise SchemaError(
            f"{where}: {name} lane {lane}, point {point}: |u| and |v| must be at most "
            f"{MAX_PIXEL:g}, got {lanes[lane].points[point].tolist()}"
        )
    return lanes


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
    }


def _lane3d_from_json(obj: dict, where: str) -> Lane3D:
    try:
        curve_obj = _field(obj, "curve", where)
        curve = BevCurve(*(_float(curve_obj, key, where) for key in "abcd"))
        profile = HeightProfile(
            heights=tuple(_numeric(_field(obj, "heights", where), where, "heights").tolist()),
            z_min=_float(obj, "z_min", where),
            z_max=_float(obj, "z_max", where),
        )
        return Lane3D(curve=curve, profile=profile)
    except (TypeError, ValueError, OverflowError, ValidationError) as exc:
        raise SchemaError(f"{where}: bad 3D lane: {exc}") from exc


def _point_lists(arrays: list[np.ndarray]) -> str:
    """The text _dump gives [a.tolist() for a in arrays], for 2-d float64 arrays of points.

    Values are grouped by their float64 bits, which keeps -0.0 and 0.0
    apart, and each distinct one is formatted once with float.__repr__,
    as json's encoder formats every float.
    """
    if any(a.ndim != 2 for a in arrays):
        raise ValueError("point lists must be 2-d arrays")
    values = np.concatenate([a.ravel() for a in arrays]) if arrays else np.zeros(0)
    if not np.isfinite(values).all():
        raise ValueError("point lists must be finite to be written as JSON")
    bits, index = np.unique(values.view(np.uint64), return_inverse=True)
    texts = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())), dtype=object)
    cells = texts[index]
    parts = []
    stop = 0
    for a in arrays:
        start, stop = stop, stop + a.size
        parts.append(_array_text(cells[start:stop], *a.shape))
    return "[" + ",".join(parts) + "]"


def _array_text(cells: np.ndarray, rows: int, columns: int) -> str:
    """An (rows, columns) array's JSON text from its values' texts in row-major order.

    Each value is followed by its separator: "," inside a row, "],[" at a
    row's end and "]]" at the last.
    """
    if not cells.size:
        return "[" + ",".join(["[]"] * rows) + "]"
    tokens = np.empty(2 * cells.size + 1, dtype=object)
    tokens[0] = "[["
    tokens[1::2] = cells
    separators = tokens[2::2]
    separators[:] = ","
    separators[columns - 1 :: columns] = "],["
    separators[-1] = "]]"
    return "".join(tokens.tolist())


def _cache_head(dataset_sha256: str, body_sha256: str) -> bytes:
    """The point cache's header line: what it holds and the digests that key it."""
    return _dump(
        {
            "body_sha256": body_sha256,
            "dataset_sha256": dataset_sha256,
            "kind": "dataset-points",
            "version": _CACHE_VERSION,
        }
    ).encode("ascii") + b"\n"


def write_dataset(frames: list[FrameRecord], path: str) -> None:
    """Write the dataset and its point cache; nothing is written if any record is refused."""
    lines = [_header("dataset")]
    shapes = []
    points = []
    for frame in frames:
        lanes3d = [np.asarray(p, dtype=float) for p in frame.lanes3d]
        lanes2d = [np.asarray(lane.points, dtype=float) for lane in frame.lanes2d]
        record = {
            "frame_id": frame.frame_id,
            "tag": frame.tag,
            "seed": frame.seed,
            "camera_height": frame.camera_height,
            "intrinsics": _intrinsics_to_json(frame.intrinsics),
            "image": _image_to_json(frame.image),
            "lanes3d": None,
            "lanes2d": None,
        }
        # sort_keys writes the point lists side by side after camera_height,
        # frame_id, image and intrinsics, which hold no strings, so the first
        # match is theirs.
        points_text = f'"lanes2d":{_point_lists(lanes2d)},"lanes3d":{_point_lists(lanes3d)}'
        lines.append(_dump(record).replace('"lanes2d":null,"lanes3d":null', points_text, 1))
        record["lanes3d"] = [list(p.shape) for p in lanes3d]
        record["lanes2d"] = [list(p.shape) for p in lanes2d]
        shapes.append(record)
        points += lanes3d + lanes2d
    dataset_sha256 = hashlib.sha256()
    _atomic_write(path, (line.encode("utf-8") + b"\n" for line in lines), dataset_sha256)
    body = [_dump(shapes).encode("ascii") + b"\n"]
    body += [np.ascontiguousarray(p, dtype="<f8") for p in points]
    head = _cache_head(dataset_sha256.hexdigest(), _sha256(body))
    _atomic_write(path + _CACHE_SUFFIX, [head, *body])


def _cached_records(path: str, dataset_sha256: str) -> list | None:
    """(line number, object) per record from the point cache, or None if it
    does not vouch for the dataset bytes whose sha256 is dataset_sha256.

    Each object is the record as the JSON decoder gives it, with every
    point list as a read-only float64 array view of the cache.
    """
    try:
        cache = _read_bytes(path + _CACHE_SUFFIX)
    except OSError:
        return None
    body = cache.find(b"\n") + 1
    if not body:
        return None
    if cache[:body] != _cache_head(dataset_sha256, _sha256([memoryview(cache)[body:]])):
        return None
    # Matching digests vouch for the bytes, not for the writer: a body of
    # another layout is a miss too.
    try:
        points = cache.index(b"\n", body) + 1
        records = json.loads(cache[body:points])
        values = np.frombuffer(cache, dtype="<f8", offset=points)
        start = 0
        for record in records:
            for key in ("lanes3d", "lanes2d"):
                lanes = []
                for shape in record[key]:
                    stop = start + math.prod(shape)
                    lanes.append(values[start:stop].reshape(shape))
                    start = stop
                record[key] = lanes
    except (ValueError, TypeError, KeyError):
        return None
    if start != values.size:
        return None
    # write_dataset writes no blank lines: record n is line n + 2.
    return list(enumerate(records, 2))


def _frame(obj: dict, where: str) -> FrameRecord:
    """One dataset record, checked; obj is a decoded JSON line or a cached record."""
    try:
        intr = _field(obj, "intrinsics", where)
        img = _field(obj, "image", where)
        frame = FrameRecord(
            frame_id=_int(obj, "frame_id", where),
            tag=_typed(obj.get("tag", ""), (str,), where, "tag"),
            seed=_typed(obj.get("seed", 0), (int,), where, "seed"),
            camera_height=_float(obj, "camera_height", where),
            intrinsics=CameraIntrinsics(
                fx=_float(intr, "fx", where),
                fy=_float(intr, "fy", where),
                ox=_float(intr, "ox", where),
                oy=_float(intr, "oy", where),
            ),
            image=ImageSpec(width=_int(img, "width", where), height=_int(img, "height", where)),
            lanes3d=tuple(
                np.array(_numeric(p, where, "lanes3d"), dtype=float)
                for p in _field(obj, "lanes3d", where)
            ),
            lanes2d=_lanes2d(_field(obj, "lanes2d", where), where, "lanes2d"),
        )
    except (TypeError, ValueError, OverflowError, ValidationError) as exc:
        raise SchemaError(f"{where}: bad frame record: {exc}") from exc
    if not frame.camera_height > 0.0:
        raise SchemaError(f"{where}: camera_height must be > 0, got {frame.camera_height}")
    if frame.lanes3d and len(frame.lanes3d) != len(frame.lanes2d):
        raise SchemaError(f"{where}: {len(frame.lanes3d)} lanes3d for {len(frame.lanes2d)} lanes2d")
    for lane, pts in enumerate(frame.lanes3d):
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 2:
            raise SchemaError(f"{where}: lanes3d entries must be (m >= 2, 3) point lists")
        if not np.isfinite(pts).all() or (pts[:, 2] <= 0.0).any():
            raise SchemaError(f"{where}: lanes3d points must be finite with z > 0")
        far = np.flatnonzero(np.abs(pts).max(axis=1) > MAX_METERS)
        if far.size:
            raise SchemaError(
                f"{where}: lanes3d lane {lane}, point {far[0]}: |x|, |y| and z must be at "
                f"most {MAX_METERS:g}, got {pts[far[0]].tolist()}"
            )
    return frame


def read_dataset(path: str) -> list[FrameRecord]:
    """The dataset's frames, from its point cache when that matches the file's bytes.

    The file is hashed block by block; its whole text is held only when
    the cache does not vouch for it.
    """
    dataset_sha256, head = _sha256_and_head(path)
    records = _cached_records(path, dataset_sha256)
    if records is None:
        records = _records(_read_text(path), path, "dataset")
    else:
        # The cache vouches for bytes write_dataset wrote, whose first line is the header.
        _parse_object(head[: head.index(b"\n")].decode("ascii"), f"{path}:1", "dataset")
    return [_frame(obj, f"{path}:{line_no}") for line_no, obj in records]


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
    for line_no, obj in _records(_read_text(path), path, "predictions"):
        where = f"{path}:{line_no}"
        try:
            frame = PredictionFrame(
                frame_id=_int(obj, "frame_id", where),
                lanes3d=tuple(
                    _lane3d_from_json(l, where) for l in obj.get("lanes3d", [])
                ),
                lanes2d=_lanes2d(obj.get("lanes2d", []), where, "lanes2d"),
            )
        except (TypeError, ValueError, OverflowError, ValidationError) as exc:
            raise SchemaError(f"{where}: bad prediction record: {exc}") from exc
        if frame.lanes3d and frame.lanes2d:
            raise SchemaError(f"{where}: a record holds lanes3d or lanes2d, not both")
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
    obj = _read_document(path, "anchors")
    where = path
    img = _field(obj, "image", where)
    try:
        items = _field(obj, "descriptors", where)
        rows = _field(obj, "rows", where)
        us = [_field(d, "u", where) for d in items]
        if np.ndim(rows) != 1 or any(np.shape(u) != np.shape(rows) for u in us):
            raise SchemaError(f"{where}: rows and every descriptor u must be 1-d of one length")
        descriptors = tuple(
            LaneDescriptor(
                _numeric(u, where, "u"), _float(d, "v_start", where), _float(d, "v_end", where)
            )
            for u, d in zip(us, items)
        )
        return AnchorSet(
            descriptors=descriptors,
            rows=_numeric(rows, where, "rows"),
            image=ImageSpec(width=_int(img, "width", where), height=_int(img, "height", where)),
            inertia=_float(obj, "inertia", where),
        )
    except (TypeError, ValueError, OverflowError, ValidationError) as exc:
        raise SchemaError(f"{where}: bad anchor file: {exc}") from exc


def write_report(report: dict, path: str) -> None:
    obj = {"kind": "report", "schema_version": SCHEMA_VERSION}
    obj.update(report)
    atomic_write_text(path, json.dumps(obj, sort_keys=True, allow_nan=False, indent=2) + "\n")


def read_report(path: str) -> dict:
    return _read_document(path, "report")


def read_json_object(path: str) -> dict:
    """A JSON object file without an envelope: a scene spec or a CLI config."""
    return _read_document(path)


def read_scene_spec(path: str) -> tuple[list[SceneSpec], JitterSpec | None]:
    """Scenes and jitter from a spec file.

    The file holds one scene object, or {"scenes": [...], "jitter": {...}}
    with jitter optional. A scene object may name a preset; each other key
    overrides that field of the preset's scene (or of SceneSpec()).
    """
    obj = read_json_object(path)
    if "scenes" not in obj:
        return [_scene(obj, f"{path}:scene")], None
    if set(obj) - {"scenes", "jitter"} or not isinstance(obj["scenes"], list):
        raise SchemaError(f"{path}: expected a scenes list and an optional jitter object")
    scenes = [_scene(s, f"{path}:scenes[{i}]") for i, s in enumerate(obj["scenes"])]
    if "jitter" not in obj:
        return scenes, None
    return scenes, _decode(JitterSpec, obj["jitter"], f"{path}:jitter", JitterSpec())


def _scene(obj, where: str) -> SceneSpec:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    fields = dict(obj)
    base = SceneSpec()
    if "preset" in fields:
        name = fields.pop("preset")
        if not isinstance(name, str) or name not in SCENE_PRESETS:
            raise SchemaError(
                f"{where}: unknown preset {name!r:.60}, choose from {sorted(SCENE_PRESETS)}"
            )
        base = SCENE_PRESETS[name]()
    return _decode(SceneSpec, fields, where, base)


def _decode(hint, value, where: str, base=None):
    """A decoded JSON value of the type hint: a dataclass, tuple, float, int or str.

    A dataclass comes from a JSON object whose keys override those fields
    of base, recursively; unknown keys, wrong types, non-finite floats and
    tuples of the wrong length are SchemaErrors.
    """
    if is_dataclass(hint):
        if not isinstance(value, dict):
            raise SchemaError(f"{where}: expected an object")
        hints = get_type_hints(hint)
        unknown = set(value) - set(hints)
        if unknown:
            raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
        changes = {
            key: _decode(hints[key], item, f"{where}.{key}", getattr(base, key))
            for key, item in value.items()
        }
        try:
            return replace(base, **changes)
        except ValidationError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    if get_origin(hint) is tuple:
        items = get_args(hint)
        if not isinstance(value, list):
            raise SchemaError(f"{where}: expected a list")
        if items[-1] is Ellipsis:
            items = items[:1] * len(value)
        if len(value) != len(items):
            raise SchemaError(f"{where}: expected {len(items)} values, got {len(value)}")
        return tuple(_decode(h, v, f"{where}[{i}]") for i, (h, v) in enumerate(zip(items, value)))
    # Python compares ints with floats exactly, so 10**400 fails the bound too.
    if hint is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    if type(value) is hint and hint in (int, str):
        return value
    kind = f"finite {hint.__name__}" if hint is float else hint.__name__
    raise SchemaError(f"{where}: expected a {kind}, got {value!r:.60}")
