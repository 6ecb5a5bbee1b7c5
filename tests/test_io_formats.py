"""Round-trip and schema-validation tests for the JSON file formats."""

import hashlib
import json
import os
import re
import tempfile
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest

from bevlane import fitting, io_formats
from bevlane.anchors import build_descriptor, cluster_anchors
from bevlane.camera import ImageSpec, Lane2D
from bevlane.datagen import JitterSpec, bump_scene, flat_scene, generate_dataset
from bevlane.errors import SchemaError, VersionError
from bevlane.geometry import BevCurve, HeightProfile, Lane3D
from bevlane.io_formats import (
    MAX_PIXEL,
    PredictionFrame,
    atomic_write_text,
    read_anchors,
    read_dataset,
    read_predictions,
    read_report,
    read_scene_spec,
    validate_predictions,
    write_anchors,
    write_dataset,
    write_predictions,
    write_report,
)
from oracles import dataset_lines_oracle, predictions_lines_oracle
from test_eval_real_frames import MIXED_SPEC

try:
    from hypothesis import example, given
    from hypothesis import strategies as st
    from hypothesis.extra import numpy as hnp

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

IMAGE = ImageSpec(800, 320)


def sample_dataset():
    jitter = JitterSpec(curve_delta=(0.0, 5e-4, 0.02, 0.5), amplitude_delta=0.05)
    return generate_dataset([flat_scene(), bump_scene()], 2, jitter=jitter, seed=7)


def sample_anchors():
    lanes = [Lane2D([[u, 319.0], [u + 5.0, 165.0]]) for u in (100.0, 400.0, 650.0)]
    return cluster_anchors([build_descriptor(l, IMAGE) for l in lanes], 2, IMAGE)


def sample_predictions():
    """A 3D-only record and a 2D-only record: a record holds one view."""
    lane3d = Lane3D(
        BevCurve(1.25e-5, -3e-4, 0.07, 1.75),
        HeightProfile(1.5 + 0.1 * np.sin(np.linspace(0, 4, 72)), 3.7, 61.2),
    )
    lane2d = Lane2D([[400.5, 319.0], [410.25, 200.0], [415.125, 170.0]])
    return [
        PredictionFrame(frame_id=3, lanes3d=(lane3d,)),
        PredictionFrame(frame_id=4, lanes2d=(lane2d,)),
    ]


def _prediction_record(field: tuple) -> tuple[str, str]:
    """The predictions header and the sample record that holds field: the
    2D-only one for a lanes2d field, else the 3D-only one."""
    document = _written(lambda p: write_predictions(sample_predictions(), p))
    header, lanes3d, lanes2d = document.splitlines(True)
    return header, lanes2d if field[0] == "lanes2d" else lanes3d


class TestDatasetRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        frames = sample_dataset()
        path = str(tmp_path / "dataset.jsonl")
        write_dataset(frames, path)
        back = read_dataset(path)
        assert len(back) == len(frames)
        for a, b in zip(frames, back):
            assert (a.frame_id, a.tag, a.seed) == (b.frame_id, b.tag, b.seed)
            assert a.camera_height == b.camera_height
            assert a.intrinsics == b.intrinsics
            assert a.image == b.image
            assert len(a.lanes3d) == len(b.lanes3d)
            for la, lb in zip(a.lanes3d, b.lanes3d):
                # Shortest-repr floats survive JSON exactly, no tolerance.
                np.testing.assert_array_equal(la, lb)
            for la, lb in zip(a.lanes2d, b.lanes2d):
                np.testing.assert_array_equal(la.points, lb.points)

    def test_header_first_line(self, tmp_path):
        path = str(tmp_path / "dataset.jsonl")
        write_dataset(sample_dataset(), path)
        with open(path) as f:
            header = json.loads(f.readline())
        assert header == {"kind": "dataset", "schema_version": "1"}

    def test_version_mismatch(self, tmp_path):
        path = str(tmp_path / "dataset.jsonl")
        write_dataset(sample_dataset(), path)
        lines = open(path).read().splitlines()
        lines[0] = json.dumps({"kind": "dataset", "schema_version": "2"})
        open(path, "w").write("\n".join(lines))
        with pytest.raises(VersionError):
            read_dataset(path)

    def test_kind_mismatch(self, tmp_path):
        path = str(tmp_path / "preds.jsonl")
        write_predictions(sample_predictions(), path)
        with pytest.raises(SchemaError):
            read_dataset(path)

    def test_corrupt_line_is_numbered(self, tmp_path):
        path = str(tmp_path / "dataset.jsonl")
        write_dataset(sample_dataset(), path)
        lines = open(path).read().splitlines()
        lines[2] = "{not json"
        open(path, "w").write("\n".join(lines))
        with pytest.raises(SchemaError, match=":3:"):
            read_dataset(path)

    def test_missing_key_is_reported(self, tmp_path):
        path = str(tmp_path / "dataset.jsonl")
        header = json.dumps({"kind": "dataset", "schema_version": "1"})
        record = json.dumps({"frame_id": 0})
        open(path, "w").write(header + "\n" + record + "\n")
        with pytest.raises(SchemaError, match="missing key 'intrinsics'"):
            read_dataset(path)

    def test_nan_points_rejected_on_read(self, tmp_path):
        path = str(tmp_path / "dataset.jsonl")
        write_dataset(sample_dataset(), path)
        text = open(path).read().replace('"lanes2d":[[[', '"lanes2d":[[[NaN,', 1)
        open(path, "w").write(text)
        with pytest.raises(SchemaError):
            read_dataset(path)

    def test_nan_rejected_on_write(self, tmp_path):
        frames = sample_dataset()
        bad = frames[0].lanes3d[0].copy()
        bad[0, 0] = np.nan
        frames[0] = type(frames[0])(
            frame_id=0,
            tag="flat",
            seed=0,
            intrinsics=frames[0].intrinsics,
            image=frames[0].image,
            camera_height=1.5,
            lanes3d=(bad,),
            lanes2d=frames[0].lanes2d,
        )
        with pytest.raises(ValueError):
            write_dataset(frames, str(tmp_path / "bad.jsonl"))
        assert os.listdir(tmp_path) == []  # no dataset, cache or temp file

    def test_empty_file(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        open(path, "w").write("")
        with pytest.raises(SchemaError):
            read_dataset(path)

    def test_lanes3d_count_must_match_lanes2d(self, tmp_path):
        frames = sample_dataset()
        frames[1] = type(frames[1])(**{**vars(frames[1]), "lanes3d": frames[1].lanes3d[:-1]})
        path = str(tmp_path / "dataset.jsonl")
        with pytest.raises(SchemaError, match=":3: 3 lanes3d for 4 lanes2d"):
            write_dataset(frames, path)
        write_unchecked(frames, path)
        with pytest.raises(SchemaError, match=":3: 3 lanes3d for 4 lanes2d"):
            read_dataset(path)
        frames[1] = type(frames[1])(**{**vars(frames[1]), "lanes3d": ()})
        write_dataset(frames, path)
        assert read_dataset(path)[1].lanes3d == ()  # 2D-only frames stay valid

    def test_line_ends_only_at_newline(self, tmp_path):
        # JSON strings may hold U+2028, U+2029 and U+0085 raw; they are no
        # line ends, and line numbers count every physical line
        path = str(tmp_path / "dataset.jsonl")
        tag = "bump\u2028\u2029\x85end"
        lines = _written(lambda p: write_dataset(sample_dataset(), p)).splitlines()
        record = json.loads(lines[1])
        record["tag"] = tag
        lines[1] = json.dumps(record, ensure_ascii=False)
        text = "\n".join(lines[:2] + [""] + lines[2:]) + "\n"
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        assert [f.tag for f in read_dataset(path)][:2] == [tag, "flat"]
        lines = text.split("\n")
        lines[3] = "{not json"
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines))
        with pytest.raises(SchemaError, match=r"dataset\.jsonl:4: invalid JSON"):
            read_dataset(path)


@pytest.fixture(scope="module")
def mixed_frames(tmp_path_factory):
    """Acceptance criterion 2's mixed-ground recipe at 2 frames per scene."""
    spec = tmp_path_factory.mktemp("spec") / "spec.json"
    spec.write_text(json.dumps(MIXED_SPEC))
    scenes, jitter = read_scene_spec(str(spec))
    return generate_dataset(scenes, 2, jitter=jitter, seed=1)


def assert_same_frames(got, want):
    """Every field equal in type and value; every array equal in dtype, shape, flags and bits."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in ("frame_id", "tag", "seed", "camera_height", "intrinsics", "image"):
            x, y = getattr(a, name), getattr(b, name)
            assert (type(x), x) == (type(y), y)
        assert (len(a.lanes3d), len(a.lanes2d)) == (len(b.lanes3d), len(b.lanes2d))
        arrays = list(zip(a.lanes3d, b.lanes3d))
        arrays += [(p.points, q.points) for p, q in zip(a.lanes2d, b.lanes2d)]
        for x, y in arrays:
            assert (x.dtype, x.shape, x.flags.writeable, x.flags.owndata) == (
                y.dtype, y.shape, y.flags.writeable, y.flags.owndata,
            )
            assert x.tobytes() == y.tobytes()


def read_without_cache(path: str):
    """read_dataset's result, or its error's type and text, with the point cache moved away."""
    cache = path + ".pts"
    os.rename(cache, cache + ".away")
    try:
        return outcome(path)
    finally:
        os.rename(cache + ".away", cache)


def _with_line(text: str, index: int, line: str) -> str:
    lines = text.split("\n")
    lines[index] = line
    return "\n".join(lines)


def outcome(path: str):
    try:
        return read_dataset(path)
    except (SchemaError, VersionError) as exc:
        return type(exc), str(exc)


def write_unchecked(frames, path: str) -> None:
    """write_dataset without the record checks it shares with read_dataset:
    a dataset and point cache that the reader must refuse."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io_formats, "_check_frame", lambda frame, where: None)
        write_dataset(frames, path)


@pytest.fixture
def decodes(monkeypatch):
    """The texts io_formats' JSON decoder is given."""
    seen = []
    decode = io_formats._DECODER.decode

    def counting(text):
        seen.append(text)
        return decode(text)

    monkeypatch.setattr(io_formats._DECODER, "decode", counting)
    return seen


class TestPointListText:
    def test_dataset_bytes_equal_a_json_dumps_writer(self, tmp_path):
        # the benchmark's dataset: MIXED_SPEC at 25 frames per scene, seed 1
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(MIXED_SPEC))
        scenes, jitter = read_scene_spec(str(spec))
        frames = generate_dataset(scenes, 25, jitter=jitter, seed=1)
        path = str(tmp_path / "dataset.jsonl")
        write_dataset(frames, path)
        want = "".join(line + "\n" for line in dataset_lines_oracle(frames))
        assert open(path, "rb").read() == want.encode("ascii")

    def test_predictions_bytes_equal_a_json_dumps_writer(self, mixed_frames, tmp_path):
        # 3d and 2d fits share values across lanes, and the samples hold
        # 2D lanes and a record with no lanes
        fitted = {mode: fitting.fit_dataset(mixed_frames, mode) for mode in ("3d", "2d")}
        frames = [
            PredictionFrame(frame_id=n, lanes3d=tuple(report.lane for report in reports))
            for mode in ("3d", "2d")
            for n, reports in enumerate(fitted[mode])
        ]
        frames += [*sample_predictions(), PredictionFrame(frame_id=9)]
        path = str(tmp_path / "preds.jsonl")
        write_predictions(frames, path)
        want = "".join(line + "\n" for line in predictions_lines_oracle(frames))
        assert open(path, "rb").read() == want.encode("ascii")

    def test_non_finite_prediction_refused_and_nothing_written(self, tmp_path):
        # the lane types refuse non-finite values; past them, the writer
        # still refuses one, as json.dumps(allow_nan=False) does
        frames = sample_predictions()
        object.__setattr__(frames[0].lanes3d[0].curve, "c", float("nan"))
        with pytest.raises(ValueError, match="finite"):
            write_predictions(frames, str(tmp_path / "bad.jsonl"))
        assert os.listdir(tmp_path) == []

    def test_point_list_of_one_dimension_refused(self, tmp_path):
        # the reader refuses such a lane; the writer refuses it before writing
        frames = sample_dataset()
        frames[0] = type(frames[0])(**{**vars(frames[0]), "lanes3d": (np.ones(3),) * 3})
        with pytest.raises(ValueError, match="must be 2-d"):
            write_dataset(frames, str(tmp_path / "bad.jsonl"))
        assert os.listdir(tmp_path) == []


if HAVE_HYPOTHESIS:
    # A small pool mixed into the floats makes values repeat within a list.
    _VALUES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
        [0.0, -0.0, 1.5, 660.0, 1e-05]
    )
    _POINT_ARRAYS = st.lists(
        hnp.arrays(
            np.float64, st.tuples(st.integers(1, 6), st.sampled_from([2, 3])), elements=_VALUES
        ),
        max_size=5,
    )

    @given(arrays=_POINT_ARRAYS)
    @example(arrays=[np.array([[-0.0, 0.0, -0.0], [0.0, 0.0, -0.0]])])
    @example(arrays=[np.zeros((0, 3)), np.ones((1, 2)), np.zeros((2, 0)), np.zeros((0, 2))])
    @example(
        arrays=[
            np.array([[5e-324, 2.2250738585072014e-308], [1e16, 9999999999999998.0]]),
            np.array([[1e-05, 0.0001, 1e22], [-1e300, 660.0, 660.0], [1e-05, 5e-324, 1e16]]),
        ]
    )
    def test_point_list_text_equals_the_stdlib_encoder(arrays):
        want = json.dumps([a.tolist() for a in arrays], separators=(",", ":"))
        assert io_formats._point_lists(arrays) == want


    _LANES3D = st.builds(
        lambda curve, heights, z_min, span: Lane3D(
            BevCurve(*curve), HeightProfile(tuple(heights), z_min, z_min + span)
        ),
        st.lists(_VALUES, min_size=4, max_size=4),
        st.lists(_VALUES, min_size=2, max_size=5),
        st.floats(1e-3, 1e3),
        st.floats(1e-3, 1e3),
    )
    _LANES2D = hnp.arrays(
        np.float64, st.tuples(st.integers(2, 5), st.just(2)), elements=_VALUES
    ).map(Lane2D)

    @given(
        records=st.lists(
            st.one_of(
                st.lists(_LANES3D, max_size=3).map(lambda lanes: {"lanes3d": tuple(lanes)}),
                st.lists(_LANES2D, max_size=3).map(lambda lanes: {"lanes2d": tuple(lanes)}),
            ),
            max_size=4,
        )
    )
    def test_predictions_text_equals_the_stdlib_encoder(records):
        frames = [PredictionFrame(frame_id=n, **lanes) for n, lanes in enumerate(records)]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "preds.jsonl")
            write_predictions(frames, path)
            got = open(path, "rb").read()
        assert got == "".join(line + "\n" for line in predictions_lines_oracle(frames)).encode()


def _moved_2d_point(frame, coordinate: int, value: float = np.nextafter(MAX_PIXEL, np.inf)):
    """The lanes2d field of frame with coordinate of lane 1's point 20 set to value."""
    points = frame.lanes2d[1].points.copy()
    points[20, coordinate] = value
    return {"lanes2d": (frame.lanes2d[0], Lane2D(points), *frame.lanes2d[2:])}


class TestPointCache:
    def test_cache_reads_like_json(self, mixed_frames, tmp_path):
        assert {"slope", "bump"} <= {f.tag for f in mixed_frames}
        path = str(tmp_path / "dataset.jsonl")
        write_dataset(mixed_frames, path)
        assert os.path.getsize(path + ".pts") > 0
        cached = read_dataset(path)
        assert_same_frames(cached, read_without_cache(path))
        for frame, back in zip(mixed_frames, cached):
            for a, b in zip(frame.lanes3d, back.lanes3d):
                np.testing.assert_array_equal(a, b)
            for a, b in zip(frame.lanes2d, back.lanes2d):
                np.testing.assert_array_equal(a.points, b.points)

    def test_valid_cache_decodes_only_the_header(self, mixed_frames, tmp_path, decodes):
        # a silent cache miss would pass every equivalence test
        path = str(tmp_path / "dataset.jsonl")
        write_dataset(mixed_frames, path)
        read_dataset(path)
        assert decodes == [open(path).readline().rstrip("\n")]
        decodes.clear()
        read_without_cache(path)
        assert len(decodes) == len(mixed_frames) + 1

    @pytest.mark.parametrize("block", [64, 1 << 20])
    def test_cache_hit_never_reads_the_dataset_whole(
        self, mixed_frames, tmp_path, monkeypatch, block
    ):
        # the dataset is hashed block by block; only a miss reads its text
        path = str(tmp_path / "dataset.jsonl")
        write_dataset(mixed_frames, path)
        data = open(path, "rb").read()
        assert data.index(b"\n") < 64 < len(data)  # the header fits the head of either size
        read = []
        real = io_formats._read_bytes

        def recording(name):
            read.append(name)
            return real(name)

        monkeypatch.setattr(io_formats, "_read_bytes", recording)
        monkeypatch.setattr(io_formats, "_HASH_BLOCK", block)
        assert io_formats._sha256_and_head(path)[0] == hashlib.sha256(data).hexdigest()
        got = read_dataset(path)
        assert read == [path + ".pts"]
        read.clear()
        assert_same_frames(got, read_without_cache(path))
        assert read == [path + ".pts", path]  # the cache, which is away, then the dataset

    def test_two_writes_give_identical_bytes(self, mixed_frames, tmp_path):
        paths = [str(tmp_path / f"{name}.jsonl") for name in ("a", "b")]
        for path in paths:
            write_dataset(mixed_frames, path)
        for suffix in ("", ".pts"):
            a, b = (open(path + suffix, "rb").read() for path in paths)
            assert a == b

    @pytest.mark.parametrize(
        "edit, error, message",
        [
            (
                lambda t: t.replace('"lanes2d":[[[', '"lanes2d":[[[NaN,', 1),
                SchemaError,
                ":2: invalid JSON",
            ),
            (
                lambda t: t.replace('"schema_version":"1"', '"schema_version":"2"'),
                VersionError,
                ":1: ",
            ),
            (lambda t: _with_line(t, 2, "{not json"), SchemaError, ":3: invalid JSON"),
        ],
        ids=["nan", "version", "corrupt-line"],
    )
    def test_edited_dataset_raises_the_json_error(self, tmp_path, edit, error, message):
        path = str(tmp_path / "dataset.jsonl")
        write_dataset(sample_dataset(), path)
        text = open(path).read()
        open(path, "w").write(edit(text))
        got = outcome(path)
        assert got == read_without_cache(path)
        assert got[0] is error and message in got[1]

    @pytest.mark.parametrize(
        "index, change, message",
        [
            (1, lambda f: {"camera_height": 0.0}, ":3: camera_height must be > 0"),
            (2, lambda f: {"lanes3d": f.lanes3d[:-1]}, ":4: 3 lanes3d for 4 lanes2d"),
            (3, lambda f: {"lanes3d": (f.lanes3d[0][:1],) + f.lanes3d[1:]}, ":5: lanes3d entries"),
            (3, lambda f: {"lanes3d": (f.lanes3d[0][:0],) + f.lanes3d[1:]}, ":5: lanes3d entries"),
            (2, lambda f: _moved_2d_point(f, 0), ":4: lanes2d lane 1, point 20: |u| and |v|"),
            (2, lambda f: _moved_2d_point(f, 1), ":4: lanes2d lane 1, point 20: |u| and |v|"),
        ],
        ids=["camera-height", "lane-count", "one-point", "no-point", "far-u", "far-v"],
    )
    def test_record_checks_hold_on_the_cache_path(self, tmp_path, decodes, index, change, message):
        # the writer refuses the record with the reader's message and writes
        # nothing; written without that check, both read paths refuse it alike
        frames = sample_dataset()
        frames[index] = type(frames[index])(**{**vars(frames[index]), **change(frames[index])})
        path = str(tmp_path / "dataset.jsonl")
        with pytest.raises(SchemaError, match=re.escape(message)):
            write_dataset(frames, path)
        assert os.listdir(tmp_path) == []
        write_unchecked(frames, path)
        got = outcome(path)
        assert len(decodes) == 1
        assert got == read_without_cache(path)
        assert got[0] is SchemaError and message in got[1]

    @pytest.mark.parametrize("coordinate", [0, 1])
    @pytest.mark.parametrize("value", [MAX_PIXEL, -MAX_PIXEL])
    def test_2d_points_at_max_pixel_read_on_both_paths(self, tmp_path, decodes, coordinate, value):
        frames = sample_dataset()
        moved = _moved_2d_point(frames[2], coordinate, value)
        frames[2] = type(frames[2])(**{**vars(frames[2]), **moved})
        path = str(tmp_path / "dataset.jsonl")
        write_dataset(frames, path)
        got = read_dataset(path)
        assert len(decodes) == 1
        assert_same_frames(got, read_without_cache(path))
        assert got[2].lanes2d[1].points[20, coordinate] == value

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda f: {"frame_id": "7"}, "frame_id must be int, got str"),
            (lambda f: {"frame_id": 7.9}, "frame_id must be int, got float"),
            (lambda f: {"frame_id": True}, "frame_id must be int, got bool"),
            (lambda f: {"seed": 2.5}, "seed must be int, got float"),
            (lambda f: {"tag": [1, 2]}, "tag must be str, got list"),
            (lambda f: {"camera_height": "1.5"}, "camera_height must be int or float, got str"),
            (
                lambda f: {"intrinsics": SimpleNamespace(**{**vars(f.intrinsics), "fx": True})},
                "fx must be int or float, got bool",
            ),
            (
                lambda f: {"image": SimpleNamespace(width=800.5, height=f.image.height)},
                "width must be int, got float",
            ),
        ],
        ids=["id-str", "id-float", "id-bool", "seed-float", "tag-list", "height-str", "fx-bool",
             "width-float"],
    )
    def test_scalar_fields_take_only_their_json_type(self, tmp_path, decodes, change, message):
        # refused alike on the cache path and on the JSON path
        frames = sample_dataset()
        frames[1] = type(frames[1])(**{**vars(frames[1]), **change(frames[1])})
        path = str(tmp_path / "dataset.jsonl")
        write_unchecked(frames, path)
        got = outcome(path)
        assert len(decodes) == 1
        assert got == read_without_cache(path)
        assert got[0] is SchemaError and f":3: {message}" in got[1]

    @pytest.mark.parametrize(
        "damage",
        [
            lambda c, other: None,
            lambda c, other: b"",
            lambda c, other: c[: c.index(b"\n")],
            lambda c, other: c[: c.index(b"\n") + 40],
            lambda c, other: c[:-8],
            lambda c, other: c[:-1],
            lambda c, other: c + b"\0" * 8,
            lambda c, other: c.replace(b"dataset-points", b"dataset-pointz"),
            lambda c, other: c.replace(b"[", b"{", 1),
            lambda c, other: c[:-5] + bytes([c[-5] ^ 1]) + c[-4:],
            lambda c, other: other,
        ],
        ids=[
            "missing", "empty", "header-only", "cut-shapes", "cut-point", "cut-byte",
            "extra-point", "kind", "garbled-shapes", "flipped-bit", "other-dataset",
        ],
    )
    def test_bad_cache_falls_back_to_json(self, mixed_frames, tmp_path, decodes, damage):
        path = str(tmp_path / "dataset.jsonl")
        write_dataset(mixed_frames[:3], path)
        other = str(tmp_path / "other.jsonl")
        write_dataset(mixed_frames[3:], other)
        cache = open(path + ".pts", "rb").read()
        self._check_falls_back(path, damage(cache, open(other + ".pts", "rb").read()), decodes)

    @pytest.mark.parametrize(
        "body",
        [lambda b: b'{"lanes3d": 1}\n', lambda b: b[:-8], lambda b: b + b"\0" * 8],
        ids=["not-records", "short-points", "extra-points"],
    )
    def test_rekeyed_foreign_body_falls_back_to_json(self, mixed_frames, tmp_path, decodes, body):
        # digests that match vouch for the bytes, not for the layout
        path = str(tmp_path / "dataset.jsonl")
        write_dataset(mixed_frames[:3], path)
        new = body(open(path + ".pts", "rb").read().partition(b"\n")[2])
        digests = [hashlib.sha256(b).hexdigest() for b in (open(path, "rb").read(), new)]
        self._check_falls_back(path, io_formats._cache_head(*digests) + new, decodes)

    @staticmethod
    def _check_falls_back(path, cache, decodes):
        want = read_without_cache(path)
        os.remove(path + ".pts")
        if cache is not None:
            open(path + ".pts", "wb").write(cache)
        decodes.clear()
        assert_same_frames(read_dataset(path), want)
        assert len(decodes) == 4


class TestPredictionsRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        frames = [*sample_predictions(), PredictionFrame(frame_id=9)]
        path = str(tmp_path / "preds.jsonl")
        write_predictions(frames, path)
        back = read_predictions(path)
        assert [f.frame_id for f in back] == [3, 4, 9]
        lane = back[0].lanes3d[0]
        src = frames[0].lanes3d[0]
        assert (lane.curve.a, lane.curve.b, lane.curve.c, lane.curve.d) == (
            src.curve.a, src.curve.b, src.curve.c, src.curve.d,
        )
        np.testing.assert_array_equal(lane.profile.heights, src.profile.heights)
        assert (lane.z_min, lane.z_max) == (src.z_min, src.z_max)
        np.testing.assert_array_equal(back[1].lanes2d[0].points, frames[1].lanes2d[0].points)
        assert back[0].lanes2d == () and back[1].lanes3d == ()
        assert back[2].lanes3d == () and back[2].lanes2d == ()

    @pytest.mark.parametrize("coordinate", [0, 1])
    def test_2d_points_read_up_to_max_pixel(self, tmp_path, coordinate):
        points = np.array([[400.5, 319.0], [410.25, 200.0], [415.125, 170.0]])
        path = str(tmp_path / "preds.jsonl")
        for value in (MAX_PIXEL, -MAX_PIXEL):
            points[1, coordinate] = value
            write_predictions([PredictionFrame(frame_id=4, lanes2d=(Lane2D(points),))], path)
            assert read_predictions(path)[0].lanes2d[0].points[1, coordinate] == value
        points[1, coordinate] = -np.nextafter(MAX_PIXEL, np.inf)
        write_predictions([PredictionFrame(frame_id=4, lanes2d=(Lane2D(points),))], path)
        with pytest.raises(SchemaError, match=r":2: lanes2d lane 0, point 1: \|u\| and \|v\|"):
            read_predictions(path)

    def test_bad_lane_is_schema_error(self, tmp_path):
        path = str(tmp_path / "preds.jsonl")
        header = json.dumps({"kind": "predictions", "schema_version": "1"})
        record = json.dumps({"frame_id": 0, "lanes3d": [{"curve": {"a": 0.0}}]})
        open(path, "w").write(header + "\n" + record + "\n")
        with pytest.raises(SchemaError, match=":2"):
            read_predictions(path)

    def test_validate_against_dataset(self, tmp_path):
        dataset = sample_dataset()
        good = [PredictionFrame(frame_id=dataset[0].frame_id)]
        validate_predictions(good, dataset)
        with pytest.raises(SchemaError, match="unknown frame_id"):
            validate_predictions([PredictionFrame(frame_id=999)], dataset)
        with pytest.raises(SchemaError, match="duplicate"):
            validate_predictions(good * 2, dataset)


class TestAnchorsRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        anchors = sample_anchors()
        path = str(tmp_path / "anchors.json")
        write_anchors(anchors, path)
        back = read_anchors(path)
        assert back.k == anchors.k
        assert back.inertia == anchors.inertia
        assert back.image == anchors.image
        np.testing.assert_array_equal(back.rows, anchors.rows)
        for da, db in zip(anchors.descriptors, back.descriptors):
            np.testing.assert_array_equal(da.u, db.u)
            assert (da.v_start, da.v_end) == (db.v_start, db.v_end)

    def test_version_check(self, tmp_path):
        path = str(tmp_path / "anchors.json")
        open(path, "w").write(json.dumps({"kind": "anchors", "schema_version": "0"}))
        with pytest.raises(VersionError):
            read_anchors(path)


class TestReportRoundTrip:
    def test_round_trip_adds_envelope(self, tmp_path):
        path = str(tmp_path / "report.json")
        write_report({"mf1": 0.75, "f1": {"0.50": {"tp": 3}}}, path)
        back = read_report(path)
        assert back["kind"] == "report"
        assert back["schema_version"] == "1"
        assert back["mf1"] == 0.75
        assert back["f1"]["0.50"]["tp"] == 3

    def test_nan_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_report({"cd_error": float("nan")}, str(tmp_path / "r.json"))

    def test_kind_check(self, tmp_path):
        path = str(tmp_path / "r.json")
        open(path, "w").write(json.dumps({"kind": "dataset", "schema_version": "1"}))
        with pytest.raises(SchemaError):
            read_report(path)


class TestAtomicWrite:
    def test_no_temp_file_left(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "hello\n")
        assert open(path).read() == "hello\n"
        assert not os.path.exists(path + ".tmp")

    def test_replaces_existing_content(self, tmp_path):
        path = str(tmp_path / "out.txt")
        open(path, "w").write("old, much longer content that must fully vanish")
        atomic_write_text(path, "new\n")
        assert open(path).read() == "new\n"


@lru_cache(maxsize=None)
def valid_documents():
    """Per reader: (reader, header line, one valid document, substitutable field paths)."""
    header, record = _written(lambda p: write_dataset(sample_dataset()[:1], p)).splitlines(True)
    report = _written(lambda p: write_report({"mf1": 0.5, "f1": {"0.50": {"tp": 3}}}, p))
    anchors = _written(lambda p: write_anchors(sample_anchors(), p))
    envelope = [("kind",), ("schema_version",)]
    return {
        "dataset": (read_dataset, header, record, [
            ("frame_id",), ("tag",), ("seed",), ("camera_height",), ("intrinsics",),
            ("intrinsics", "fx"), ("image",), ("image", "height"), ("lanes3d",),
            ("lanes3d", 0), ("lanes3d", 0, 0), ("lanes3d", 0, 0, 2), ("lanes2d",),
            ("lanes2d", 0), ("lanes2d", 0, 0), ("lanes2d", 0, 0, 1),
        ]),
        "report": (read_report, "", report, envelope + [("mf1",), ("f1",), ("f1", "0.50")]),
        "anchors": (read_anchors, "", anchors, envelope + [
            ("image",), ("image", "width"), ("rows",), ("rows", 0), ("inertia",),
            ("descriptors",), ("descriptors", 0), ("descriptors", 0, "u"),
            ("descriptors", 0, "u", 0), ("descriptors", 0, "v_end"),
        ]),
    }


def _written(write) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc")
        write(path)
        with open(path, encoding="utf-8") as f:
            return f.read()


def _substitute(document: str, path: tuple, fragment: str) -> str:
    """The document with the value at path replaced by the raw JSON fragment."""
    doc = json.loads(document)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = "@VALUE@"
    return json.dumps(doc).replace('"@VALUE@"', fragment) + "\n"


@pytest.mark.parametrize("reader", [read_report, read_anchors])
def test_non_object_document_rejected(tmp_path, reader):
    path = tmp_path / "doc.json"
    path.write_text("[1,2]")
    with pytest.raises(SchemaError, match="expected an object"):
        reader(str(path))


@pytest.mark.parametrize(
    "kind, field, fragment, message",
    [
        ("report", ("mf1",), "NaN", "invalid JSON"),
        ("anchors", ("inertia",), "NaN", "invalid JSON"),
        ("anchors", ("descriptors", 0, "u", 0), "NaN", "invalid JSON"),
        ("dataset", ("camera_height",), "NaN", ":2: invalid JSON"),
        ("dataset", ("frame_id",), "1e400", ":2: invalid JSON"),
        ("dataset", ("camera_height",), "1e400", ":2: invalid JSON"),
        ("report", ("mf1",), "1e400", "invalid JSON"),
        ("anchors", ("inertia",), "-1e400", "invalid JSON"),
    ],
)
def test_non_finite_literal_rejected(tmp_path, kind, field, fragment, message):
    reader, header, document, _ = valid_documents()[kind]
    path = tmp_path / "doc"
    path.write_text(header + _substitute(document, field, fragment))
    with pytest.raises(SchemaError, match=message):
        reader(str(path))


@pytest.mark.parametrize("fragment", ["0", "-0.0", "-1.5"])
def test_non_positive_camera_height_rejected(tmp_path, fragment):
    reader, header, document, _ = valid_documents()["dataset"]
    path = tmp_path / "doc"
    path.write_text(header + _substitute(document, ("camera_height",), fragment))
    with pytest.raises(SchemaError, match=":2: camera_height must be > 0"):
        reader(str(path))


@pytest.mark.parametrize(
    "reader, write",
    [
        (read_dataset, lambda p: write_dataset(sample_dataset()[:1], p)),
        (read_predictions, lambda p: write_predictions(sample_predictions(), p)),
        (read_report, lambda p: write_report({"mf1": 0.5}, p)),
        (read_anchors, lambda p: write_anchors(sample_anchors(), p)),
    ],
    ids=["dataset", "predictions", "report", "anchors"],
)
def test_non_utf8_file_rejected(tmp_path, reader, write):
    path = tmp_path / "doc"
    path.write_bytes(_written(write).encode("utf-16"))
    with pytest.raises(SchemaError, match="not UTF-8"):
        reader(str(path))


@pytest.mark.parametrize(
    "field, fragment",
    [(("rows",), "5"), (("descriptors", 0, "u"), '"7"'), (("descriptors", 1, "u"), "[1.0, 2.0]")],
)
def test_shapeless_anchors_rejected(tmp_path, field, fragment):
    _, _, document, _ = valid_documents()["anchors"]
    path = tmp_path / "anchors.json"
    path.write_text(_substitute(document, field, fragment))
    with pytest.raises(SchemaError, match="1-d of one length"):
        read_anchors(str(path))


@pytest.mark.parametrize(
    "kind, field, fragment, message",
    [
        ("dataset", ("lanes2d", 0, 0), '["400.0", "700"]', "lanes2d entries must be numbers"),
        ("dataset", ("lanes3d", 0, 0, 2), '"5.0"', "lanes3d entries must be numbers"),
        ("predictions", ("frame_id",), "3.0", "frame_id must be int, got float"),
        ("predictions", ("lanes3d", 0, "curve", "a"), '"0.5"', "a must be int or float, got str"),
        ("predictions", ("lanes3d", 0, "heights", 0), '"1.5"', "heights entries must be numbers"),
        ("predictions", ("lanes3d", 0, "z_max"), "true", "z_max must be int or float, got bool"),
        ("predictions", ("lanes2d", 0, 0), '["400.5", "319"]', "lanes2d entries must be numbers"),
        ("anchors", ("image", "width"), "800.0", "width must be int, got float"),
        ("anchors", ("inertia",), '"1.5"', "inertia must be int or float, got str"),
        ("anchors", ("descriptors", 0, "v_end"), "false", "v_end must be int or float, got bool"),
        ("anchors", ("descriptors", 0, "u", 0), '"3"', "u entries must be numbers"),
    ],
    ids=[
        "dataset-point-str", "dataset-z-str", "pred-id-float", "pred-curve-str", "pred-height-str",
        "pred-zmax-bool", "pred-point-str", "anchors-width-float", "anchors-inertia-str",
        "anchors-v-end-bool", "anchors-u-str",
    ],
)
def test_values_of_another_json_type_rejected(tmp_path, kind, field, fragment, message):
    if kind == "predictions":
        reader, (header, document) = read_predictions, _prediction_record(field)
    else:
        reader, header, document, _ = valid_documents()[kind]
    path = tmp_path / "doc"
    path.write_text(header + _substitute(document, field, fragment))
    with pytest.raises(SchemaError, match=message):
        reader(str(path))


@pytest.mark.parametrize(
    "kind, field, fragment, name",
    [
        ("dataset", ("lanes2d", 0, 0), "[true, 700.0]", "lanes2d"),
        ("dataset", ("lanes2d", 0, 0), "[true, false]", "lanes2d"),
        ("dataset", ("lanes3d", 0, 0, 2), "true", "lanes3d"),
        ("predictions", ("lanes3d", 0, "heights", 0), "false", "heights"),
        ("predictions", ("lanes2d", 0, 0), "[true, 319.0]", "lanes2d"),
        ("predictions", ("lanes2d", 0, 0), "[400, true]", "lanes2d"),
        ("anchors", ("descriptors", 0, "u", 0), "true", "u"),
        ("anchors", ("rows", 0), "false", "rows"),
    ],
    ids=[
        "dataset-point", "dataset-point-of-bools", "dataset-z", "pred-height", "pred-point",
        "pred-point-int", "anchors-u", "anchors-rows",
    ],
)
def test_bool_beside_numbers_rejected(tmp_path, kind, field, fragment, name):
    # numpy reads [true, 319.0] as [1.0, 319.0]; a bool among numbers is
    # refused like a list of bools only
    if kind == "predictions":
        reader, (header, document) = read_predictions, _prediction_record(field)
    else:
        reader, header, document, _ = valid_documents()[kind]
    path = tmp_path / "doc"
    path.write_text(header + _substitute(document, field, fragment))
    with pytest.raises(SchemaError, match=f"{name} entries must be numbers"):
        reader(str(path))


if HAVE_HYPOTHESIS:
    _JSON = st.recursive(
        st.none()
        | st.booleans()
        | st.integers()
        | st.floats(allow_nan=False, allow_infinity=False)
        | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=8), inner, max_size=4),
        max_leaves=12,
    )
    # Raw tokens json.dumps never writes: non-finite literals and overflowing numbers.
    _FRAGMENTS = _JSON.map(json.dumps) | st.sampled_from(
        ["NaN", "-Infinity", "Infinity", "1e400", "-1e400", "1" + "0" * 400]
    )

    @pytest.mark.parametrize("kind", ["dataset", "report", "anchors"])
    @given(data=st.data())
    def test_readers_raise_only_schema_errors(tmp_path_factory, kind, data):
        reader, header, document, paths = valid_documents()[kind]
        path = data.draw(st.sampled_from(paths), label="field")
        fragment = data.draw(_FRAGMENTS, label="value")
        target = tmp_path_factory.getbasetemp() / f"fuzz-{kind}"
        target.write_text(header + _substitute(document, path, fragment))
        try:
            reader(str(target))
        except (SchemaError, VersionError):
            pass
