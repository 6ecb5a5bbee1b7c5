"""End-to-end tests for the command-line pipeline, run in process."""

import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bevlane import fitting, io_formats, metrics
from bevlane.anchors import MAX_ANCHORS
from bevlane.assignment import match_lanes, resample_lane, resample_lanes, row_grid
from bevlane.camera import project_lane
from bevlane.cli import build_parser, main
from bevlane.datagen import MAX_FRAMES_PER_SPEC, bump_scene, generate_frame
from bevlane.fitting import MAX_KEYPOINTS, fit_lane_2d, fit_lane_3d, lane_gap_points, lane_starts
from bevlane.geometry import MAX_SAMPLE_COUNT, lane_from_vector, lane_to_vector
from bevlane.io_formats import (
    read_anchors,
    read_dataset,
    read_predictions,
    read_report,
    write_dataset,
    write_predictions,
)

try:
    from hypothesis import given
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

FLAT_SPEC = {"preset": "flat"}
MIXED_SPEC = {
    "scenes": [
        {"preset": "flat"},
        {"preset": "bump"},
    ],
    "jitter": {"curve_delta": [0.0, 0.0005, 0.02, 0.5], "amplitude_delta": 0.05},
}


def _fit_frame_2d(frame, kept):
    """The 2d fit of a frame's lanes at the indices kept, each alone from
    the lane-gap start of those lanes."""
    lanes, rows, k = [frame.lanes2d[i] for i in kept], row_grid(frame.image), frame.intrinsics
    points = lane_gap_points(lanes, resample_lanes(lanes, rows), rows, k, frame.camera_height)
    return [
        fit_lane_2d(resample_lane(lane, frame.image), k, lane_from_vector(start)).lane
        for lane, start in zip(lanes, lane_starts(points), strict=True)
    ]


def _two_height_frames(tmp_path):
    """Six jittered frames, bump at 300 rows and slope at 320, alternating:
    the set of TestEval.test_two_image_heights_fit_and_score_as_each_frame_alone."""
    scenes = [{"preset": "bump", "image": {"width": 800, "height": 300}}, {"preset": "slope"}]
    jitter = {"curve_delta": [0.0, 0.0005, 0.02, 0.5], "amplitude_delta": 0.05, "grade_delta": 0.01}
    spec = write_json(tmp_path / "spec.json", {"scenes": scenes, "jitter": jitter})
    generated = str(tmp_path / "generated.jsonl")
    assert main(["generate", "--spec", spec, "--frames", "3", "--out", generated]) == 0
    by_height = {300: [], 320: []}
    for frame in read_dataset(generated):
        by_height[frame.image.height].append(frame)
    return [frame for pair in zip(by_height[300], by_height[320]) for frame in pair]


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def flat_dataset(tmp_path):
    spec = write_json(tmp_path / "spec.json", FLAT_SPEC)
    out = str(tmp_path / "dataset.jsonl")
    assert main(["generate", "--spec", spec, "--frames", "2", "--out", out]) == 0
    return out


class TestGenerate:
    def test_single_scene(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", FLAT_SPEC)
        out = str(tmp_path / "d.jsonl")
        assert main(["generate", "--spec", spec, "--frames", "3", "--out", out]) == 0
        assert "wrote 3 frames (1 scenes)" in capsys.readouterr().out
        frames = read_dataset(out)
        assert len(frames) == 3
        assert all(f.tag == "flat" for f in frames)

    def test_multi_scene_frames_is_per_scene(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", MIXED_SPEC)
        out = str(tmp_path / "d.jsonl")
        assert main(["generate", "--spec", spec, "--frames", "4", "--out", out]) == 0
        frames = read_dataset(out)
        assert len(frames) == 8
        assert [f.tag for f in frames] == ["flat"] * 4 + ["bump"] * 4

    def test_scene_overrides(self, tmp_path):
        spec = write_json(
            tmp_path / "spec.json",
            {"preset": "flat", "lateral_offsets": [-2.0, 2.0], "z_range": [5.0, 40.0]},
        )
        out = str(tmp_path / "d.jsonl")
        assert main(["generate", "--spec", spec, "--out", out]) == 0
        frame = read_dataset(out)[0]
        assert len(frame.lanes3d) == 2
        assert frame.lanes3d[0][:, 2].min() == 5.0

    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", {"preset": "moon"})
        code = main(["generate", "--spec", spec, "--out", str(tmp_path / "d.jsonl")])
        assert code == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_missing_spec_exits_2(self, tmp_path):
        assert main(["generate", "--out", str(tmp_path / "d.jsonl")]) == 2

    def test_nested_object_overrides_preset_fields(self, tmp_path):
        spec = write_json(
            tmp_path / "spec.json",
            {"preset": "bump", "ground": {"amplitude": 0.5}, "intrinsics": {"fx": 900}},
        )
        out = str(tmp_path / "d.jsonl")
        assert main(["generate", "--spec", spec, "--out", out]) == 0
        frame = read_dataset(out)[0]
        assert (frame.intrinsics.fx, frame.intrinsics.fy) == (900.0, 1000.0)
        want = generate_frame(bump_scene(amplitude=0.5))
        for got, expected in zip(frame.lanes3d, want.lanes3d, strict=True):
            np.testing.assert_array_equal(got, expected)

    def test_byte_identical_reruns(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", MIXED_SPEC)
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        assert main(["generate", "--spec", spec, "--frames", "2", "--out", a]) == 0
        assert main(["generate", "--spec", spec, "--frames", "2", "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()


class TestFit:
    def test_baseline_writes_2d_lanes(self, flat_dataset, tmp_path, capsys):
        out = str(tmp_path / "preds.jsonl")
        code = main(["fit", "--dataset", flat_dataset, "--mode", "baseline", "--out", out])
        assert code == 0
        assert "mode baseline" in capsys.readouterr().out
        preds = read_predictions(out)
        assert all(p.lanes2d and not p.lanes3d for p in preds)

    def test_3d_mode_writes_lane_models(self, flat_dataset, tmp_path):
        out = str(tmp_path / "preds.jsonl")
        assert main(["fit", "--dataset", flat_dataset, "--mode", "3d", "--out", out]) == 0
        preds = read_predictions(out)
        assert len(preds) == 2
        for p in preds:
            assert len(p.lanes3d) == 4 and not p.lanes2d

    @pytest.mark.parametrize("flag", ["--alpha", "--e-bev"])
    def test_removed_3d_weights_exit_2(self, flat_dataset, tmp_path, capsys, flag):
        out = str(tmp_path / "preds.jsonl")
        assert main(["fit", "--dataset", flat_dataset, "--out", out, flag, "7"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_bad_mode_exits_2(self, flat_dataset, tmp_path):
        out = str(tmp_path / "preds.jsonl")
        code = main(["fit", "--dataset", flat_dataset, "--mode", "psychic", "--out", out])
        assert code == 2

    def test_bezier_baseline_rejected(self, flat_dataset, tmp_path):
        # --order takes a polynomial degree only, in every mode
        out = str(tmp_path / "preds.jsonl")
        for mode in ("3d", "2d", "baseline"):
            argv = ["fit", "--dataset", flat_dataset, "--mode", mode, "--out", out]
            code, err = _run(argv + ["--order", "bezier"])
            assert code == 2, mode
            assert "--order: invalid int value: 'bezier'" in err and "Traceback" not in err

    def test_2d_fit_is_the_same_in_any_block(self, tmp_path, monkeypatch):
        # two row grids in one dataset: the 300-row frames fit in their own window
        spec = write_json(tmp_path / "spec.json", {"scenes": [
            {"preset": "bump"}, {"preset": "slope", "image": {"width": 800, "height": 300}},
        ]})
        dataset = str(tmp_path / "d.jsonl")
        assert main(["generate", "--spec", spec, "--frames", "2", "--out", dataset]) == 0
        outputs = []
        for size in (1, 3, fitting.ACTIVE_LANES):
            monkeypatch.setattr(fitting, "ACTIVE_LANES", size)
            out = tmp_path / f"preds-{size}.jsonl"
            assert main(["fit", "--dataset", dataset, "--mode", "2d", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        frames = read_dataset(dataset)
        assert {f.image.height for f in frames} == {300, 320}
        for frame, pred in zip(frames, read_predictions(str(out)), strict=True):
            want = _fit_frame_2d(frame, range(len(frame.lanes2d)))
            for got, lane in zip(pred.lanes3d, want, strict=True):
                assert np.array_equal(lane_to_vector(got), lane_to_vector(lane))

    def test_3d_fit_is_the_same_in_any_block(self, tmp_path, monkeypatch):
        # two row grids in one dataset: the 300-row frames fit in their own window
        spec = write_json(tmp_path / "spec.json", {"scenes": [
            {"preset": "bump"}, {"preset": "slope", "image": {"width": 800, "height": 300}},
        ]})
        dataset = str(tmp_path / "d.jsonl")
        assert main(["generate", "--spec", spec, "--frames", "2", "--out", dataset]) == 0
        outputs = []
        for size in (1, 3, fitting.ACTIVE_LANES):
            monkeypatch.setattr(fitting, "ACTIVE_LANES", size)
            out = tmp_path / f"preds-{size}.jsonl"
            assert main(["fit", "--dataset", dataset, "--mode", "3d", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        frames = read_dataset(dataset)
        assert {f.image.height for f in frames} == {300, 320}
        for frame, pred in zip(frames, read_predictions(str(out)), strict=True):
            lanes = zip(frame.lanes2d, frame.lanes3d, pred.lanes3d, strict=True)
            for lane2d, gt3, got in lanes:
                gt = resample_lane(lane2d, frame.image)
                want = fit_lane_3d(gt3, gt, frame.intrinsics).lane
                assert np.array_equal(lane_to_vector(got), lane_to_vector(want))

    def test_nan_objective_in_a_block_exits_3(self, flat_dataset, tmp_path, monkeypatch):
        real = fitting.lane_losses

        def nan_in_second_lane(theta, *args):
            loss, grad, terms, overlap = real(theta, *args)
            if theta.shape[0] > 1:
                loss[1] = np.nan
            return loss, grad, terms, overlap

        monkeypatch.setattr(fitting, "lane_losses", nan_in_second_lane)
        out = str(tmp_path / "preds.jsonl")
        code, err = _run(["fit", "--dataset", flat_dataset, "--mode", "2d", "--out", out])
        assert code == 3
        assert "non-finite at the lane's start" in err and "Traceback" not in err

    def test_nan_in_a_lane_that_joined_late_names_it_and_exits_3(self, tmp_path, monkeypatch):
        # with a window of 2, the last lane of the last frame is scored in
        # the last of 8 blocks, after the others, and its objective is NaN
        spec = write_json(tmp_path / "spec.json", MIXED_SPEC)
        dataset = str(tmp_path / "d.jsonl")
        assert main(["generate", "--spec", spec, "--frames", "2", "--out", dataset]) == 0
        frames = read_dataset(dataset)
        last = frames[-1]
        victim = resample_lane(last.lanes2d[-1], last.image).u_values
        real = fitting.lane_losses
        calls, seen = [], []

        def nan_in_last_lane(theta, targets):
            loss, grad, terms, overlap = real(theta, targets)
            calls.append(theta.shape[0])
            for i, u in enumerate(targets.u_values):
                if np.array_equal(u, victim, equal_nan=True):
                    seen.append(len(calls))
                    loss[i] = np.nan
            return loss, grad, terms, overlap

        monkeypatch.setattr(fitting, "ACTIVE_LANES", 2)
        monkeypatch.setattr(fitting, "lane_losses", nan_in_last_lane)
        out = str(tmp_path / "preds.jsonl")
        code, err = _run(["fit", "--dataset", dataset, "--mode", "2d", "--out", out])
        assert code == 3
        want = f"frame {last.frame_id}, lane {len(last.lanes2d) - 1}: objective became"
        assert f"{want} non-finite at the lane's start" in err and "Traceback" not in err
        assert seen == [8] and calls == [2] * 8
        assert not os.path.exists(out)

    @pytest.mark.parametrize("mode", ["3d", "2d"])
    def test_a_lane_above_the_image_is_skipped(self, flat_dataset, tmp_path, capsys, mode):
        # lane 1 of the first frame lies wholly above row 0, so it covers no
        # image row: it is counted, left out of the predictions, and the
        # other lanes fit as they do alone
        def above(record):
            for point in record["lanes2d"][1]:
                point[1] -= 1000.0

        dataset = _edit_first_record(flat_dataset, tmp_path / "d.jsonl", above)
        out = str(tmp_path / "preds.jsonl")
        capsys.readouterr()
        assert main(["fit", "--dataset", dataset, "--mode", mode, "--out", out]) == 0
        assert "fit 7 lanes in mode " + mode + " (skipped 1);" in capsys.readouterr().out
        frames = read_dataset(dataset)
        assert max(frames[0].lanes2d[1].v) < 0.0
        preds = read_predictions(out)
        assert [len(p.lanes3d) for p in preds] == [3, 4]
        for frame, pred in zip(frames, preds, strict=True):
            kept = [i for i in range(4) if (frame.frame_id, i) != (frames[0].frame_id, 1)]
            if mode == "2d":
                # the kept lanes share their ground without the skipped one
                wants = _fit_frame_2d(frame, kept)
            else:
                wants = [
                    fit_lane_3d(frame.lanes3d[i], resample_lane(frame.lanes2d[i], frame.image),
                                frame.intrinsics).lane
                    for i in kept
                ]
            for got, want in zip(pred.lanes3d, wants, strict=True):
                assert np.array_equal(lane_to_vector(got), lane_to_vector(want))

    def test_deterministic_predictions(self, flat_dataset, tmp_path):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        for out in (a, b):
            assert main(["fit", "--dataset", flat_dataset, "--mode", "3d", "--out", out]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()


class TestEval:
    def test_fit_then_eval_is_perfect(self, flat_dataset, tmp_path, capsys):
        preds = str(tmp_path / "preds.jsonl")
        report_path = str(tmp_path / "report.json")
        assert main(["fit", "--dataset", flat_dataset, "--mode", "3d", "--out", preds]) == 0
        assert main([
            "eval", "--dataset", flat_dataset, "--pred", preds, "--out", report_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "mF1" in out and "cd error" in out
        report = read_report(report_path)
        assert report["frames"] == 2
        assert report["pred_lanes"] == report["gt_lanes"] == 8
        assert set(report["f1"]) == {f"{t:.2f}" for t in np.arange(0.50, 1.0, 0.05)}
        assert all(c["f1"] == 1.0 for c in report["f1"].values())
        assert report["mf1"] == 1.0
        assert report["tusimple"]["accuracy"] > 0.99
        assert report["cd_error"] < 1e-3

    def test_unknown_frame_id_exits_2(self, flat_dataset, tmp_path):
        preds = str(tmp_path / "preds.jsonl")
        header = json.dumps({"kind": "predictions", "schema_version": "1"})
        record = json.dumps({"frame_id": 777, "lanes2d": [[[1.0, 2.0], [3.0, 4.0]]]})
        open(preds, "w").write(header + "\n" + record + "\n")
        code = main([
            "eval", "--dataset", flat_dataset, "--pred", preds,
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2

    def test_missing_args_exit_2(self, flat_dataset, tmp_path):
        assert main(["eval", "--dataset", flat_dataset]) == 2

    @pytest.mark.parametrize("mode", ["3d", "2d", "baseline"])
    def test_two_image_heights_fit_and_score_as_each_frame_alone(self, tmp_path, mode):
        # frames alternate between 300 and 320 rows, so each height's lanes
        # are resampled in one stack that the other height's frames
        # interleave; jitter makes every frame's lanes differ
        scenes = [{"preset": "bump", "image": {"width": 800, "height": 300}}, {"preset": "slope"}]
        jitter = {
            "curve_delta": [0.0, 0.0005, 0.02, 0.5],
            "amplitude_delta": 0.05,
            "grade_delta": 0.01,
        }
        spec = write_json(tmp_path / "spec.json", {"scenes": scenes, "jitter": jitter})
        generated = str(tmp_path / "generated.jsonl")
        assert main(["generate", "--spec", spec, "--frames", "3", "--out", generated]) == 0
        by_height = {300: [], 320: []}
        for frame in read_dataset(generated):
            by_height[frame.image.height].append(frame)
        frames = [frame for pair in zip(by_height[300], by_height[320]) for frame in pair]
        assert [frame.image.height for frame in frames] == [300, 320] * 3
        # the 300-row frames' lanes reach rows that only the 320-row grid has
        assert all(lane.v.max() > 320 for frame in frames for lane in frame.lanes2d)
        dataset, preds = str(tmp_path / "d.jsonl"), str(tmp_path / "p.jsonl")
        write_dataset(frames, dataset)
        assert main(["fit", "--dataset", dataset, "--mode", mode, "--out", preds]) == 0

        def report(dataset, preds):
            out = str(tmp_path / "r.json")
            assert _run(["eval", "--dataset", dataset, "--pred", preds, "--out", out])[0] == 0
            return read_report(out)

        whole = report(dataset, preds)
        alone, pairs = [], []
        for frame, pred in zip(frames, read_predictions(preds), strict=True):
            one_dataset, one_preds = str(tmp_path / "d1.jsonl"), str(tmp_path / "p1.jsonl")
            write_dataset([frame], one_dataset)
            # fit resamples each height's lanes in one stack too
            argv = ["fit", "--dataset", one_dataset, "--mode", mode, "--out", one_preds]
            assert _run(argv)[0] == 0
            assert read_predictions(one_preds) == [pred]
            write_predictions([pred], one_preds)
            alone.append(report(one_dataset, one_preds))
            lanes = list(pred.lanes2d) or [project_lane(frame.intrinsics, l) for l in pred.lanes3d]
            pairs.append(len(match_lanes(lanes, list(frame.lanes2d), frame.image).pairs))
        for key, counts in whole["f1"].items():
            for name in ("tp", "fp", "fn"):
                assert counts[name] == sum(r["f1"][key][name] for r in alone)
        for name in ("correct_points", "gt_points"):
            assert whole["tusimple"][name] == sum(r["tusimple"][name] for r in alone)
        if mode == "baseline":
            assert whole["cd_error"] is None
        else:
            # the mean over every matched pair, from each frame's mean over its own
            assert [r["cd_error"] is None for r in alone] == [n == 0 for n in pairs]
            want = sum(r["cd_error"] * n for r, n in zip(alone, pairs) if n) / sum(pairs)
            assert whole["cd_error"] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("mode", ["3d", "2d", "baseline"])
    def test_padded_stacks_score_as_each_frame_alone(self, tmp_path, mode):
        # eval scores each image height's frames as (frames, lanes, rows)
        # stacks, NaN past a frame's own lanes; frames with fewer or more
        # predicted than GT lanes, one with no lanes and one with no
        # record must count as each frame evaluated alone
        frames = _two_height_frames(tmp_path)
        dataset, path = str(tmp_path / "d.jsonl"), str(tmp_path / "p.jsonl")
        write_dataset(frames, dataset)
        assert main(["fit", "--dataset", dataset, "--mode", mode, "--out", path]) == 0
        # frame 4 loses a GT lane after the fit, so its stack slots past
        # both sides' lanes pair a padded prediction with a padded GT lane
        frames[4] = replace(frames[4], lanes2d=frames[4].lanes2d[:-1], lanes3d=frames[4].lanes3d[:-1])
        side = "lanes2d" if mode == "baseline" else "lanes3d"
        edits = {
            0: lambda lanes: lanes[:1],
            1: lambda lanes: lanes[1:],
            2: lambda lanes: (*lanes, lanes[0]),
            5: lambda lanes: (),
        }
        preds = [
            replace(pred, **{side: edits.get(n, tuple)(getattr(pred, side))})
            for n, pred in enumerate(read_predictions(path))
            if n != 3
        ]
        lane_counts = [len(getattr(pred, side)) for pred in preds]
        gt_counts = [len(frames[n].lanes2d) for n in (0, 1, 2, 4, 5)]
        assert lane_counts[0] < gt_counts[0] and lane_counts[2] > gt_counts[2] > 0
        assert lane_counts[3] > gt_counts[3] and max(lane_counts[::2]) > lane_counts[3]
        assert lane_counts[4] == 0 and len(set(lane_counts)) >= 4

        whole = metrics.evaluate(frames, preds)
        alone = [
            metrics.evaluate([frame], [p for p in preds if p.frame_id == frame.frame_id])
            for frame in frames
        ]
        for key, counts in whole["f1"].items():
            for name in ("tp", "fp", "fn"):
                assert counts[name] == sum(r["f1"][key][name] for r in alone)
        for name in ("pred_lanes", "gt_lanes"):
            assert whole[name] == sum(r[name] for r in alone)
        for name in ("correct_points", "gt_points"):
            assert whole["tusimple"][name] == sum(r["tusimple"][name] for r in alone)
        matched = sum(round(r["gt_lanes"] * (1.0 - r["tusimple"]["fn_rate"])) for r in alone)
        assert whole["tusimple"]["fn_rate"] == (whole["gt_lanes"] - matched) / whole["gt_lanes"]
        assert whole["tusimple"]["fp_rate"] == (whole["pred_lanes"] - matched) / whole["pred_lanes"]
        if mode == "baseline":
            assert whole["cd_error"] is None
            return
        pairs = []
        for frame in frames:
            pred = next((p for p in preds if p.frame_id == frame.frame_id), None)
            lanes = [project_lane(frame.intrinsics, lane) for lane in (pred.lanes3d if pred else ())]
            pairs.append(len(match_lanes(lanes, list(frame.lanes2d), frame.image).pairs))
        assert [r["cd_error"] is None for r in alone] == [n == 0 for n in pairs]
        want = sum(r["cd_error"] * n for r, n in zip(alone, pairs) if n) / sum(pairs)
        assert whole["cd_error"] == pytest.approx(want, rel=1e-12)

    def test_an_overflowing_lane_in_a_later_frame_is_refused_first(self, flat_dataset, tmp_path):
        # every predicted lane is sampled and projected before any frame is
        # scored, so a lane that overflows in frame 1 exits 2 before frame
        # 0's curve distance can overflow (exit 3)
        preds = str(tmp_path / "preds.jsonl")
        assert _run(["fit", "--dataset", flat_dataset, "--mode", "3d", "--out", preds])[0] == 0
        far = _edit_first_record(preds, tmp_path / "far.jsonl", _far_straight_lane)
        lines = open(far).read().splitlines()
        assert len(lines) == 3
        record = json.loads(lines[2])
        record["lanes3d"][0]["curve"]["a"] = 1e306
        edited = tmp_path / "p.jsonl"
        edited.write_text("\n".join([*lines[:2], json.dumps(record)]) + "\n")

        def run(pred):
            out = str(tmp_path / "r.json")
            return _run(["eval", "--dataset", flat_dataset, "--pred", pred, "--out", out])

        assert run(str(edited)) == (2, "error: lane points must be finite\n")
        assert run(far)[0] == 3  # frame 0's curve distance alone

    @pytest.mark.parametrize("command", ["eval", "render"])
    @pytest.mark.parametrize("n2d", [4, 3])
    def test_record_with_lanes3d_and_lanes2d_exits_2(self, flat_dataset, tmp_path, command, n2d):
        # a record holds 3D or 2D lanes: one with both is refused, whether
        # or not its counts agree
        preds = str(tmp_path / "preds.jsonl")
        assert main(["fit", "--dataset", flat_dataset, "--mode", "3d", "--out", preds]) == 0
        lanes2d = [lane.points.tolist() for lane in read_dataset(flat_dataset)[0].lanes2d]

        def add_lanes2d(record):
            record["lanes2d"] = lanes2d[:n2d]

        edited = _edit_first_record(preds, tmp_path / "edited.jsonl", add_lanes2d)
        argv = [command, "--dataset", flat_dataset, "--pred", edited, "--out", str(tmp_path / "r")]
        code, err = _run(argv)
        assert code == 2
        assert err == f"error: {edited}:2: a record holds lanes3d or lanes2d, not both\n"


class TestInputContract:
    """Bad lanes3d records are rejected when the dataset is read, before any fit."""

    def _corrupt(self, dataset, tmp_path, edit):
        lines = open(dataset).read().splitlines()
        record = json.loads(lines[1])
        edit(record["lanes3d"])
        lines[1] = json.dumps(record)
        path = tmp_path / "corrupt.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def _assert_rejected(self, flat_dataset, corrupt, tmp_path, capsys):
        preds = str(tmp_path / "preds.jsonl")
        assert main(["fit", "--dataset", flat_dataset, "--mode", "3d", "--out", preds]) == 0
        commands = [
            ["fit", "--dataset", corrupt, "--mode", mode, "--out", str(tmp_path / "p.jsonl")]
            for mode in ("2d", "3d")
        ]
        commands.append(["eval", "--dataset", corrupt, "--pred", preds, "--out", str(tmp_path / "r.json")])
        for argv in commands:
            capsys.readouterr()
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error:") and "lanes3d" in err
            assert "Traceback" not in err

    def test_nan_in_lanes3d_exits_2(self, flat_dataset, tmp_path, capsys):
        def edit(lanes3d):
            lanes3d[0][5][1] = float("nan")

        corrupt = self._corrupt(flat_dataset, tmp_path, edit)
        assert "NaN" in open(corrupt).read()
        self._assert_rejected(flat_dataset, corrupt, tmp_path, capsys)

    def test_huge_z_in_lanes3d_exits_2(self, flat_dataset, tmp_path, capsys):
        # finite, but past the depth whose cube the kernels can take
        def edit(lanes3d):
            for point in lanes3d[0]:
                point[2] *= 1e110

        corrupt = self._corrupt(flat_dataset, tmp_path, edit)
        self._assert_rejected(flat_dataset, corrupt, tmp_path, capsys)
        capsys.readouterr()
        argv = ["fit", "--dataset", corrupt, "--mode", "3d", "--out", str(tmp_path / "p")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {corrupt}:2: lanes3d lane 0, point 0: |x|, |y| and z must ")

    def test_nonpositive_z_in_lanes3d_exits_2(self, flat_dataset, tmp_path, capsys):
        def edit(lanes3d):
            lanes3d[0][0][2] = -3.0

        corrupt = self._corrupt(flat_dataset, tmp_path, edit)
        self._assert_rejected(flat_dataset, corrupt, tmp_path, capsys)

    def test_lanes3d_count_mismatch_exits_2(self, flat_dataset, tmp_path, capsys):
        def edit(lanes3d):
            del lanes3d[-1]

        corrupt = self._corrupt(flat_dataset, tmp_path, edit)
        self._assert_rejected(flat_dataset, corrupt, tmp_path, capsys)

    def test_2d_only_dataset_fits_in_2d_mode_only(self, flat_dataset, tmp_path, capsys):
        lines = open(flat_dataset).read().splitlines()
        records = [json.loads(line) for line in lines[1:]]
        for record in records:
            record["lanes3d"] = []
        dataset = tmp_path / "2d_only.jsonl"
        dataset.write_text("\n".join(lines[:1] + [json.dumps(r) for r in records]) + "\n")
        preds = str(tmp_path / "preds.jsonl")
        capsys.readouterr()
        assert main(["fit", "--dataset", str(dataset), "--mode", "3d", "--out", preds]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"frame {records[0]['frame_id']}" in err
        assert main(["fit", "--dataset", str(dataset), "--mode", "2d", "--out", preds]) == 0
        report = str(tmp_path / "report.json")
        assert main(["eval", "--dataset", str(dataset), "--pred", preds, "--out", report]) == 0
        assert read_report(report)["cd_error"] is None


class TestAnchorsCommand:
    def test_cluster_and_write(self, flat_dataset, tmp_path, capsys):
        out = str(tmp_path / "anchors.json")
        code = main(["anchors", "--dataset", flat_dataset, "-k", "4", "--out", out])
        assert code == 0
        assert "recall@30px 1.0000" in capsys.readouterr().out
        anchors = read_anchors(out)
        assert anchors.k == 4

    @pytest.mark.parametrize("first", [0, 1])
    def test_mixed_image_sizes_exit_2(self, tmp_path, first):
        # descriptors are read at one image size's rows, so a dataset with
        # two sizes is refused in either frame order
        scenes = [{"preset": "flat", "image": {"width": 800, "height": 300}}, {"preset": "slope"}]
        spec = write_json(tmp_path / "spec.json", {"scenes": scenes[first:] + scenes[:first]})
        dataset = str(tmp_path / "d.jsonl")
        assert main(["generate", "--spec", spec, "--frames", "3", "--out", dataset]) == 0
        out = tmp_path / "a.json"
        code, err = _run(["anchors", "--dataset", dataset, "-k", "4", "--out", str(out)])
        assert code == 2
        sizes = ["800x300", "800x320"][first:] + ["800x300", "800x320"][:first]
        assert err == f"error: anchors need one image size, got {sizes[0]} and {sizes[1]}\n"
        assert not out.exists()

    def test_k_beyond_lanes_exits_2(self, flat_dataset, tmp_path):
        code = main([
            "anchors", "--dataset", flat_dataset, "-k", "40",
            "--out", str(tmp_path / "a.json"),
        ])
        assert code == 2


class TestRender:
    def test_render_views(self, flat_dataset, tmp_path):
        for view in ("perspective", "bev", "profile"):
            out = str(tmp_path / f"{view}.svg")
            assert main(["render", "--dataset", flat_dataset, "--view", view, "--out", out]) == 0
            text = open(out).read()
            assert text.startswith("<svg ") and text.rstrip().endswith("</svg>")

    def test_render_with_predictions(self, flat_dataset, tmp_path):
        preds = str(tmp_path / "preds.jsonl")
        out = str(tmp_path / "frame.svg")
        assert main(["fit", "--dataset", flat_dataset, "--mode", "3d", "--out", preds]) == 0
        code = main([
            "render", "--dataset", flat_dataset, "--pred", preds,
            "--frame", "1", "--out", out,
        ])
        assert code == 0
        text = open(out).read()
        assert "<desc>frame 1 flat (perspective)</desc>" in text
        assert "stroke-dasharray" in text

    def test_missing_frame_exits_2(self, flat_dataset, tmp_path):
        code = main([
            "render", "--dataset", flat_dataset, "--frame", "99",
            "--out", str(tmp_path / "f.svg"),
        ])
        assert code == 2


class TestConfigFile:
    def test_config_supplies_defaults_cli_wins(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", FLAT_SPEC)
        config = write_json(tmp_path / "config.json", {"generate": {"frames": 2, "spec": spec}})
        out = str(tmp_path / "d.jsonl")
        assert main(["generate", "--config", config, "--out", out]) == 0
        assert len(read_dataset(out)) == 2
        # An explicit flag overrides the config section.
        assert main(["generate", "--config", config, "--frames", "5", "--out", out]) == 0
        assert len(read_dataset(out)) == 5

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", FLAT_SPEC)
        config = write_json(tmp_path / "config.json", {"generate": {"bogus": 1}})
        code = main([
            "generate", "--config", config, "--spec", spec,
            "--out", str(tmp_path / "d.jsonl"),
        ])
        assert code == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_config_with_every_flag_matches_flags(self, flat_dataset, tmp_path):
        spec = write_json(tmp_path / "spec.json", FLAT_SPEC)
        preds = str(tmp_path / "preds.jsonl")
        assert main(["fit", "--dataset", flat_dataset, "--out", preds]) == 0
        sections = {
            "generate": {"spec": spec, "frames": 2, "seed": 5},
            "fit": {
                "dataset": flat_dataset, "mode": "2d", "order": 2, "keypoints": 40,
            },
            "eval": {
                "dataset": flat_dataset, "pred": preds, "lane_width": 25.0,
                "match_threshold": 20.0, "sample_count": 50, "tusimple_tol": 15.0,
                "tusimple_row_step": 8,
            },
            "anchors": {
                "dataset": flat_dataset, "k": 3, "rows": 20, "seed": 4, "match_threshold": 25.0,
            },
            "render": {
                "dataset": flat_dataset, "pred": preds, "frame": 1, "view": "bev",
                "sample_count": 40,
            },
        }
        for command, section in sections.items():
            by_flags, by_config = str(tmp_path / "flags.out"), str(tmp_path / "config.out")
            argv = [command, "--out", by_flags]
            for key, value in section.items():
                argv += ["-" + key if len(key) == 1 else "--" + key.replace("_", "-"), str(value)]
            config = write_json(tmp_path / "config.json", {command: {**section, "out": by_config}})
            assert main(argv) == 0, argv
            assert main([command, "--config", config]) == 0, command
            with open(by_flags, "rb") as a, open(by_config, "rb") as b:
                assert a.read() == b.read(), command


def _run(argv):
    """main(argv) with its output captured: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


SCENE = {"preset": "bump", "lateral_offsets": [-1.75, 1.75], "samples_per_lane": 40}


BAD_INPUTS = {
    "spec-seed-1e400": ({**SCENE, "seed": 1e400}, {}),
    "spec-seed-negative": ({**SCENE, "seed": -1}, {}),
    "config-seed-1e400": (SCENE, {"generate": {"seed": 1e400}}),
    "config-seed-negative": (SCENE, {"generate": {"seed": -1}}),
    "config-frames-text": (SCENE, {"generate": {"frames": "x"}}),
    "config-frames-list": (SCENE, {"generate": {"frames": [1]}}),
    "centerline-list": ({**SCENE, "centerline": [1]}, {}),
    "ground-text": ({**SCENE, "ground": "flat"}, {}),
    "ground-unknown-key": ({**SCENE, "ground": {"amp": 0.5}}, {}),
    "ground-seed-negative": ({**SCENE, "ground": {"seed": -2}}, {}),
    "z-range-short": ({**SCENE, "z_range": [3.0]}, {}),
    "samples-float": ({**SCENE, "samples_per_lane": 40.5}, {}),
    "tag-number": ({**SCENE, "tag": 7}, {}),
    "preset-list": ({**SCENE, "preset": ["flat"]}, {}),
    "curve-delta-short": ({"scenes": [SCENE], "jitter": {"curve_delta": [0.1]}}, {}),
    "grade-delta-text": ({"scenes": [SCENE], "jitter": {"grade_delta": "x"}}, {}),
    "scenes-object": ({"scenes": SCENE}, {}),
    "spec-unknown-key": ({"scenes": [SCENE], "extra": 1}, {}),
    "samples-over-limit": ({**SCENE, "samples_per_lane": MAX_SAMPLE_COUNT + 1}, {}),
    "config-frames-over-limit": (SCENE, {"generate": {"frames": MAX_FRAMES_PER_SPEC + 1}}),
    "config-frames-huge": (SCENE, {"generate": {"frames": 10**30}}),
    # finite, but the lane points overflow, or the jitter draw's range does
    "centerline-huge": ({**SCENE, "centerline": {"a": 1e300}}, {}),
    "grade-delta-huge": ({"scenes": [SCENE], "jitter": {"grade_delta": 1.7e308}}, {}),
}


COUNT_FLAGS = [
    ("generate", "--frames", MAX_FRAMES_PER_SPEC),
    ("fit", "--keypoints", MAX_KEYPOINTS),
    ("eval", "--sample-count", MAX_SAMPLE_COUNT),
    ("render", "--sample-count", MAX_SAMPLE_COUNT),
    ("anchors", "--rows", MAX_SAMPLE_COUNT),
    ("anchors", "-k", MAX_ANCHORS),
]
# The least value each count flag takes: a lane needs two samples, two
# height keypoints and two descriptor rows.
COUNT_FLOORS = {"--frames": 1, "--keypoints": 2, "--sample-count": 2, "--rows": 2, "-k": 1}


def _count_flag_argv(tmp_path, command):
    """command with its required path flags, none of which name an existing file."""
    paths = {f: str(tmp_path / f) for f in ("--spec", "--dataset", "--pred", "--out")}
    required = {
        "generate": ["--spec", "--out"],
        "fit": ["--dataset", "--out"],
        "eval": ["--dataset", "--pred", "--out"],
        "render": ["--dataset", "--out"],
        "anchors": ["--dataset", "--out"],
    }[command]
    return [command] + [token for f in required for token in (f, paths[f])]


@pytest.mark.parametrize("command, flag, limit", COUNT_FLAGS)
def test_count_flags_are_bounded(tmp_path, command, flag, limit):
    argv = _count_flag_argv(tmp_path, command)
    parser = build_parser()
    opts = parser.parse_args(argv + [flag, str(limit)])
    assert getattr(opts, flag.lstrip("-").replace("-", "_")) == limit
    # past the limit the parser refuses, before any file is read
    for value in (limit + 1, 10**30):
        code, err = _run(argv + [flag, str(value)])
        assert code == 2
        assert f"in [{COUNT_FLOORS[flag]}, {limit}]" in err and "Traceback" not in err


@pytest.mark.parametrize("command, flag, limit", COUNT_FLAGS)
def test_count_flags_refuse_values_below_their_floor(tmp_path, command, flag, limit):
    # one range per flag: the parser refuses what the library would, with
    # the same "[floor, limit]" message, before any file is read (none
    # exists, so a later refusal would name a missing file instead)
    floor = COUNT_FLOORS[flag]
    argv = _count_flag_argv(tmp_path, command)
    opts = build_parser().parse_args(argv + [flag, str(floor)])
    assert getattr(opts, flag.lstrip("-").replace("-", "_")) == floor
    for value in {floor - 1, 0, -1}:
        code, err = _run(argv + [flag, str(value)])
        assert code == 2
        assert f"must be in [{floor}, {limit}], got {value}" in err and "Traceback" not in err


@pytest.mark.parametrize("spec, config", list(BAD_INPUTS.values()), ids=list(BAD_INPUTS))
def test_bad_spec_or_config_exits_2(tmp_path, spec, config):
    argv = ["generate", "--spec", write_json(tmp_path / "spec.json", spec)]
    if config:
        argv += ["--config", write_json(tmp_path / "config.json", config)]
    code, err = _run(argv + ["--out", str(tmp_path / "d.jsonl")])
    assert code == 2
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command, section",
    [
        ("eval", {"lane_width": "wide"}),
        ("eval", {"tusimple_row_step": 0}),
        ("eval", {"sample_count": None}),
        ("fit", {"mode": "psychic"}),
        ("fit", {"config": "other.json"}),
        ("anchors", {"k": 2, "seed": -1}),
    ],
)
def test_bad_config_section_exits_2(flat_dataset, tmp_path, command, section):
    preds = str(tmp_path / "preds.jsonl")
    assert main(["fit", "--dataset", flat_dataset, "--out", preds]) == 0
    config = write_json(tmp_path / "config.json", {command: section})
    argv = [command, "--config", config, "--dataset", flat_dataset, "--out", str(tmp_path / "o")]
    code, err = _run(argv + (["--pred", preds] if command == "eval" else []))
    assert code == 2
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command, flags",
    [
        ("fit", ["--mode", "2d", "--keypoints", "1"]),
        ("eval", ["--tusimple-tol", "-1"]),
        ("eval", ["--match-threshold", "-1"]),
        ("anchors", ["-k", "2", "--match-threshold", "-1"]),
        ("eval", ["--lane-width", "nan"]),
        ("eval", ["--lane-width", "inf"]),
        ("anchors", ["-k", "2", "--seed", "-1"]),
        ("fit", ["--mode", "3d", "--keypoints", "1"]),
        ("eval", ["--sample-count", "1"]),
        ("render", ["--sample-count", "1"]),
        ("anchors", ["-k", "2", "--rows", "1"]),
    ],
)
def test_out_of_range_weight_or_width_exits_2(flat_dataset, tmp_path, command, flags):
    preds = str(tmp_path / "preds.jsonl")
    assert main(["fit", "--dataset", flat_dataset, "--out", preds]) == 0
    argv = [command, "--dataset", flat_dataset, "--out", str(tmp_path / "o"), *flags]
    code, err = _run(argv + (["--pred", preds] if command == "eval" else []))
    assert code == 2
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize(
    "command, key, value",
    [
        ("fit", "max_iters", 5),
        ("fit", "step_size", 1e300),
        ("fit", "plateau", 3),
        ("fit", "beta", 0.5),
        ("fit", "e_per", 5.0),
        ("fit", "ipm_height", 3.0),
        ("eval", "raster_scale", 0.5),
        ("anchors", "restarts", 2),
    ],
)
def test_removed_descent_and_restart_options_exit_2(flat_dataset, tmp_path, command, key, value, via):
    # the 2D fit runs no descent, the loss settings, the raster resolution
    # and the k-means restart count are constants, and the 2D start reads
    # the frame's camera height, so these are refused like any unknown
    # option, before anything runs
    argv = [command, "--dataset", flat_dataset, "--out", str(tmp_path / "o")]
    argv += {"fit": ["--mode", "2d"], "eval": ["--pred", str(tmp_path / "p")]}.get(
        command, ["-k", "2"]
    )
    if via == "flag":
        argv += ["--" + key.replace("_", "-"), str(value)]
        message = "unrecognized arguments"
    else:
        argv += ["--config", write_json(tmp_path / "config.json", {command: {key: value}})]
        message = "unknown config keys"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = _run(argv)
    assert code == 2
    assert message in err and "Traceback" not in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--beta", "inf"], "beta"),
        (["--beta", "nan"], "beta"),
    ],
)
def test_non_finite_fit_setting_exits_2(flat_dataset, tmp_path, flags, field):
    # fit takes no loss weights: a non-finite --beta is refused as an unknown
    # option, naming it, before any value is parsed
    argv = ["fit", "--dataset", flat_dataset, "--mode", "2d", "--out", str(tmp_path / "p")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = _run(argv + flags)
    assert code == 2
    assert "unrecognized arguments" in err and field in err and "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize(
    "value, message",
    [
        (0.0, "camera_height must be > 0"),
        # the back-projected depths are finite, but their cubes are not
        (1e300, "too large"),
    ],
)
def test_unusable_camera_height_exits_2(flat_dataset, tmp_path, value, message):
    # the 2d fit's IPM start reads each frame's camera height
    lines = open(flat_dataset).read().splitlines()
    record = json.loads(lines[1])
    record["camera_height"] = value
    dataset = tmp_path / "d.jsonl"
    dataset.write_text("\n".join([lines[0], json.dumps(record), *lines[2:]]) + "\n")
    argv = ["fit", "--dataset", str(dataset), "--mode", "2d", "--out", str(tmp_path / "p")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = _run(argv)
    assert code == 2
    assert message in err and "Traceback" not in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _edit_first_record(path, out, edit):
    """A copy of a JSON Lines file at out with edit applied to its first record."""
    lines = open(path).read().splitlines()
    record = json.loads(lines[1])
    edit(record)
    out.write_text("\n".join([lines[0], json.dumps(record), *lines[2:]]) + "\n")
    return str(out)


def _overflowing_label_segment(record):
    record["lanes3d"][0][0][0], record["lanes3d"][0][1][0] = -1e308, 1e308


def _far_label_point(record):
    record["lanes3d"][0][0][0] = 1e200


@pytest.mark.parametrize("edit", [_overflowing_label_segment, _far_label_point])
def test_non_finite_curve_distance_exits_3(flat_dataset, tmp_path, monkeypatch, edit):
    # the reader refuses these labels (MAX_METERS); past that bound, eval's
    # own guard still turns the overflowing distance of the matched pair
    # into exit 3
    monkeypatch.setattr(io_formats, "MAX_METERS", np.inf)
    preds = str(tmp_path / "preds.jsonl")
    assert _run(["fit", "--dataset", flat_dataset, "--mode", "3d", "--out", preds])[0] == 0
    dataset = _edit_first_record(flat_dataset, tmp_path / "d.jsonl", edit)
    argv = ["eval", "--dataset", dataset, "--pred", preds, "--out", str(tmp_path / "r.json")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = _run(argv)
    assert code == 3
    assert err.startswith("error:") and "curve distance of pair (pred 0, gt 0)" in err
    assert err.startswith("error: frame 0: curve distance of pair (pred 0, gt 0) is not finite")
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "r.json").exists()


def _far_straight_lane(record):
    lane = record["lanes3d"][0]
    lane["curve"].update(a=0.0, b=0.0, c=0.0)
    lane["z_max"] = 1e200


def test_far_predicted_span_exits_3(flat_dataset, tmp_path):
    # the dataset's labels are bounded, but a predicted span is not: a
    # straight lane out to 1e200 m has finite samples, and it matches its
    # label, but their distance overflows
    preds = str(tmp_path / "preds.jsonl")
    assert _run(["fit", "--dataset", flat_dataset, "--mode", "3d", "--out", preds])[0] == 0
    preds = _edit_first_record(preds, tmp_path / "far.jsonl", _far_straight_lane)
    argv = ["eval", "--dataset", flat_dataset, "--pred", preds, "--out", str(tmp_path / "r.json")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = _run(argv)
    assert code == 3
    assert err.startswith("error:") and "curve distance of pair (pred 0, gt 0)" in err
    assert err.startswith("error: frame 0: curve distance of pair (pred 0, gt 0) is not finite")
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "r.json").exists()


def test_near_predicted_span_exits_2(flat_dataset, tmp_path):
    # a lane starting 1e-12 m ahead projects to |u| of about 1e15 px:
    # finite, but past what the readers accept of a 2D lane, so eval
    # refuses it, naming the frame and the lane, before it is rasterized
    preds = str(tmp_path / "preds.jsonl")
    assert _run(["fit", "--dataset", flat_dataset, "--mode", "3d", "--out", preds])[0] == 0
    lines = open(preds).read().splitlines()
    record = json.loads(lines[2])
    record["lanes3d"][1]["z_min"] = 1e-12
    near = tmp_path / "near.jsonl"
    near.write_text("\n".join([*lines[:2], json.dumps(record)]) + "\n")
    argv = ["eval", "--dataset", flat_dataset, "--pred", str(near), "--out", str(tmp_path / "r.json")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = _run(argv)
    assert code == 2
    assert err == "error: frame 1: predicted lane 1 projects past |u| or |v| = 1e+09 px\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "r.json").exists()


def test_overflowing_predicted_curve_exits_2(flat_dataset, tmp_path):
    # the lane's samples overflow, and eval refuses them as its 2D lane
    preds = tmp_path / "preds.jsonl"
    assert _run(["fit", "--dataset", flat_dataset, "--mode", "3d", "--out", str(preds)])[0] == 0

    def huge_curve(record):
        record["lanes3d"][0]["curve"]["a"] = 1e306

    pred = _edit_first_record(preds, tmp_path / "p.jsonl", huge_curve)
    argv = ["eval", "--dataset", flat_dataset, "--pred", pred, "--out", str(tmp_path / "r.json")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = _run(argv)
    assert code == 2
    assert err == "error: lane points must be finite\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.fixture(scope="module")
def preset_dataset(tmp_path_factory):
    """One frame of each ground preset, and its 3d fit."""
    root = tmp_path_factory.mktemp("presets")
    spec = {"scenes": [{"preset": p} for p in ("flat", "slope", "bump", "rough")]}
    dataset, preds = str(root / "d.jsonl"), str(root / "p.jsonl")
    argv = ["generate", "--spec", write_json(root / "spec.json", spec), "--frames", "1"]
    assert main([*argv, "--out", dataset]) == 0
    assert main(["fit", "--dataset", dataset, "--mode", "3d", "--out", preds]) == 0
    return dataset, preds


@pytest.mark.parametrize(
    "stage",
    [["fit", "--mode", "3d"], ["fit", "--mode", "2d"], ["fit", "--mode", "baseline"],
     ["eval"], ["anchors", "-k", "2"]],
    ids=["fit-3d", "fit-2d", "fit-baseline", "eval", "anchors"],
)
@pytest.mark.parametrize("u", [1e308, -1e308])
def test_far_2d_label_point_exits_2(preset_dataset, tmp_path, stage, u):
    # a finite u whose powers and squares overflow in the kernels is
    # refused where the dataset is read, before any stage runs
    dataset, preds = preset_dataset

    def far_point(record):
        record["lanes2d"][1][20][0] = u

    edited = _edit_first_record(dataset, tmp_path / "d.jsonl", far_point)
    argv = [stage[0], "--dataset", edited, *stage[1:], "--out", str(tmp_path / "out")]
    if stage[0] == "eval":
        argv += ["--pred", preds]
    code, err = _run(argv)
    assert code == 2
    assert err == (
        f"error: {edited}:2: lanes2d lane 1, point 20: |u| and |v| must be at most 1e+09, "
        f"got [{u!r}, {float(read_dataset(dataset)[0].lanes2d[1].v[20])!r}]\n"
    )


@pytest.mark.parametrize(
    "stage",
    [["fit", "--mode", "3d"], ["fit", "--mode", "2d"], ["fit", "--mode", "baseline"],
     ["eval"], ["anchors", "-k", "2"], ["render"]],
    ids=["fit-3d", "fit-2d", "fit-baseline", "eval", "anchors", "render"],
)
@pytest.mark.parametrize(
    "axis, value",
    [(0, 1e308), (0, -1e308), (0, 1e200), (0, -1e200), (1, -1e200), (2, 1e200)],
)
def test_far_3d_label_point_exits_2(preset_dataset, tmp_path, stage, axis, value):
    # a finite label whose cubes and squared distances overflow in the
    # kernels is refused where the dataset is read, before any stage runs
    dataset, preds = preset_dataset

    def far_point(record):
        record["lanes3d"][1][20][axis] = value

    edited = _edit_first_record(dataset, tmp_path / "d.jsonl", far_point)
    argv = [stage[0], "--dataset", edited, *stage[1:], "--out", str(tmp_path / "out")]
    if stage[0] in ("eval", "render"):
        argv += ["--pred", preds]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = _run(argv)
    point = read_dataset(dataset)[0].lanes3d[1][20].tolist()
    point[axis] = value
    assert code == 2
    assert err == (
        f"error: {edited}:2: lanes3d lane 1, point 20: |x|, |y| and z must be at most 1e+09, "
        f"got {point!r}\n"
    )
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.fixture(scope="module")
def jittered_dataset(tmp_path_factory):
    """MIXED_SPEC at 2 frames per scene, with each mode's default fit."""
    root = tmp_path_factory.mktemp("jittered")
    dataset = str(root / "d.jsonl")
    spec = write_json(root / "spec.json", MIXED_SPEC)
    assert main(["generate", "--spec", spec, "--frames", "2", "--out", dataset]) == 0
    defaults = {}
    for mode in ("3d", "2d", "baseline"):
        out = root / f"{mode}.jsonl"
        assert main(["fit", "--dataset", dataset, "--mode", mode, "--out", str(out)]) == 0
        defaults[mode] = out.read_bytes()
    return dataset, defaults


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("key, value", [("order", 2), ("keypoints", 40)])
@pytest.mark.parametrize("mode", ["3d", "2d", "baseline"])
def test_fit_setting_changes_predictions_or_exits_2(
    jittered_dataset, tmp_path, mode, key, value, via
):
    # a setting that a mode does not read is refused rather than ignored
    dataset, defaults = jittered_dataset
    out = tmp_path / "p.jsonl"
    argv = ["fit", "--dataset", dataset, "--mode", mode, "--out", str(out)]
    if via == "flag":
        argv += [f"--{key}", str(value)]
    else:
        argv += ["--config", write_json(tmp_path / "config.json", {"fit": {key: value}})]
    code, err = _run(argv)
    if (mode, key) == ("baseline", "keypoints"):
        assert code == 2
        assert "--keypoints" in err and "Traceback" not in err
    else:
        assert code == 0, err
        assert out.read_bytes() != defaults[mode]


def test_point_cache_changes_no_output(tmp_path):
    # fit and eval write the same files and stdout with the dataset's
    # point cache present and deleted
    spec = write_json(tmp_path / "spec.json", MIXED_SPEC)
    dataset = str(tmp_path / "d.jsonl")
    assert main(["generate", "--spec", spec, "--frames", "2", "--out", dataset]) == 0

    def outputs():
        got = {}
        for mode in ("3d", "2d", "baseline"):
            pred, report = tmp_path / f"{mode}.jsonl", tmp_path / f"{mode}.json"
            for argv in (
                ["fit", "--dataset", dataset, "--mode", mode, "--out", str(pred)],
                ["eval", "--dataset", dataset, "--pred", str(pred), "--out", str(report)],
            ):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert main(argv) == 0
                got[argv[0], mode] = out.getvalue()
            got[mode] = pred.read_bytes(), report.read_bytes()
        return got

    cached = outputs()
    os.remove(dataset + ".pts")
    assert outputs() == cached


def test_cli_import_loads_no_scipy():
    # the package's runtime is numpy only: no stage pays for importing scipy
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import bevlane.cli, sys; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


# What fitting.fit_dataset and metrics.evaluate own: the stacks, row
# grids, starts, matching and sampling of the fit and eval passes.
PIPELINE_NAMES = {
    "LaneTargets", "resample_lanes", "row_grid", "cost_matrix", "hungarian_assign",
    "sample_lanes", "project_stack", "lane_starts", "lane_gap_points", "fit_lanes", "by_depth",
}


def test_cli_only_reads_calls_and_writes():
    # fit and eval are one library call each, so the CLI names none of
    # the pipeline's pieces, not even to import them
    source = Path(__file__).resolve().parents[1] / "src" / "bevlane" / "cli.py"
    names = set()
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update({node.name, node.asname})
    assert sorted(names & PIPELINE_NAMES) == []


def test_fit_loads_no_numpy_ma(flat_dataset, tmp_path):
    """No fit mode imports numpy.ma, which costs a fresh process 12-18 ms
    (2-vCPU x86 host, numpy 2.4). numpy 2.4's np.unique calls
    np.ma.is_masked and so imports it: fitting counts distinct depths and
    rows from sorted differences instead."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = str(tmp_path / "p.jsonl")
    code = (
        "import sys\n"
        "from bevlane import cli\n"
        f"fit = ['fit', '--dataset', {flat_dataset!r}, '--out', {out!r}, '--mode']\n"
        "codes = [cli.main(fit + [mode]) for mode in ('3d', '2d', 'baseline')]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.splitlines()[-1] == "[0, 0, 0] False"


def _one_depth_label(lane):
    for point in lane:
        point[2] = 20.0


@pytest.mark.parametrize(
    "edit, message",
    [(_one_depth_label, "1 distinct z values cannot determine 4 coefficients")],
)
def test_start_error_names_a_later_frame_and_its_lane(flat_dataset, tmp_path, edit, message):
    # the starts of every lane of one image height are fitted in one stack
    lines = open(flat_dataset).read().splitlines()
    record = json.loads(lines[-1])
    edit(record["lanes3d"][2])
    lines[-1] = json.dumps(record)
    dataset = tmp_path / "d.jsonl"
    dataset.write_text("\n".join(lines) + "\n")
    out = tmp_path / "p.jsonl"
    code, err = _run(["fit", "--dataset", str(dataset), "--mode", "3d", "--out", str(out)])
    assert code == 2
    assert err == f"error: frame {record['frame_id']}, lane 2: {message}\n"
    assert record["frame_id"] == 1 and not out.exists()


@pytest.mark.parametrize("which", ["spec", "config", "dataset"])
def test_non_utf8_input_exits_2(flat_dataset, tmp_path, which):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(FLAT_SPEC))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"generate": {"frames": 1}}))
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_bytes(Path(flat_dataset).read_bytes())
    target = {"spec": spec, "config": config, "dataset": dataset}[which]
    target.write_bytes(target.read_text().encode("utf-16"))
    argvs = [
        ["generate", "--spec", str(spec), "--config", str(config), "--out", str(tmp_path / "d")],
        ["fit", "--dataset", str(dataset), "--out", str(tmp_path / "p")],
    ]
    code, err = _run(argvs[which == "dataset"])
    assert code == 2
    assert "not UTF-8" in err and "Traceback" not in err


def _edited_inputs(flat_dataset, tmp_path, which, edit):
    """The eval argv, after edit(line) replaced the last line of the dataset or its predictions."""
    preds = str(tmp_path / "p.jsonl")
    assert _run(["fit", "--dataset", flat_dataset, "--out", preds])[0] == 0
    target = Path({"dataset": flat_dataset, "predictions": preds}[which])
    *lines, last = target.read_text().splitlines()
    target.write_text("\n".join([*lines, edit(last)]) + "\n")
    return ["eval", "--dataset", flat_dataset, "--pred", preds, "--out", str(tmp_path / "r")]


@pytest.mark.parametrize("which", ["dataset", "predictions"])
def test_line_nested_past_the_recursion_limit_exits_2(flat_dataset, tmp_path, which):
    argv = _edited_inputs(flat_dataset, tmp_path, which, lambda line: "[" * 200_000)
    code, err = _run(argv)
    assert code == 2
    path = argv[2] if which == "dataset" else argv[4]
    assert f"{path}:3: invalid JSON" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "which, old, new, message",
    [
        ("dataset", '"frame_id":1', '"frame_id":"1"', "frame_id must be int, got str"),
        ("dataset", '"width":800', '"width":800.5', "width must be int, got float"),
        ("predictions", '"z_max":80.0', '"z_max":true', "z_max must be int or float, got bool"),
    ],
    ids=["dataset-id-str", "dataset-width-float", "pred-zmax-bool"],
)
def test_value_of_another_json_type_exits_2(flat_dataset, tmp_path, which, old, new, message):
    argv = _edited_inputs(flat_dataset, tmp_path, which, lambda line: line.replace(old, new, 1))
    code, err = _run(argv)
    assert code == 2
    assert message in err and "Traceback" not in err


def test_lane_score_of_older_predictions_is_ignored(flat_dataset, tmp_path):
    """Predictions written when each 3D lane still carried "score" read and
    evaluate exactly as the same lanes without it."""
    preds = tmp_path / "p.jsonl"
    assert _run(["fit", "--dataset", flat_dataset, "--out", str(preds)])[0] == 0
    scored = tmp_path / "scored.jsonl"
    scored.write_text(re.sub(r'("z_max":[^,}]+)', r'\1,"score":1.0', preds.read_text()))
    assert scored.read_text().count('"score":1.0') == 8
    assert read_predictions(str(scored)) == read_predictions(str(preds))
    reports = []
    for path in (preds, scored):
        out = tmp_path / f"{path.stem}-report.json"
        argv = ["eval", "--dataset", flat_dataset, "--pred", str(path), "--out", str(out)]
        assert _run(argv)[0] == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


if HAVE_HYPOTHESIS:
    _JSON = st.recursive(
        st.none()
        | st.booleans()
        # Small counts, or counts past every limit: those exit 2 before
        # anything is allocated. The overflowing and non-finite literals
        # come below.
        | st.integers(-5, 50)
        | st.integers(min_value=10**6)
        | st.floats(-64.0, 64.0)
        | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=8), inner, max_size=4),
        max_leaves=12,
    )
    # Huge but finite magnitudes too: they pass every finiteness check
    # and overflow later, in powers and squares.
    _HUGE = st.floats(1e100, 1e308) | st.floats(-1e308, -1e100)
    _FRAGMENTS = (
        _JSON.map(json.dumps)
        | _HUGE.map(json.dumps)
        | st.sampled_from(["NaN", "-Infinity", "1e400", "-1e400"])
    )
    FUZZ_SPEC = {
        "scenes": [
            {
                "preset": "rough",
                "centerline": {"a": 0.0, "b": 1e-4, "c": 0.01, "d": 0.5},
                "lateral_offsets": [-1.75, 1.75],
                "ground": {"kind": "sine", "amplitude": 0.3, "wavelength": 20.0, "grade": 0.0,
                           "seed": 1},
                "z_range": [3.0, 60.0],
                "samples_per_lane": 40,
                "camera_height": 1.5,
                "intrinsics": {"fx": 1000.0, "fy": 1000.0, "ox": 400.0, "oy": 160.0},
                "image": {"width": 800, "height": 320},
                "seed": 2,
                "tag": "fuzz",
            }
        ],
        "jitter": {"curve_delta": [0.0, 1e-4, 0.01, 0.2], "amplitude_delta": 0.05,
                   "grade_delta": 0.01, "wavelength_delta": 2.0},
    }
    # Every count field of fit and anchors is bounded (the 2D fit runs no
    # descent and the k-means restarts are a constant), so none is left out
    # for fear of a drawn 10**6 running for minutes.
    FUZZ_CONFIG = {
        "generate": {"frames": 1, "seed": 3},
        "eval": {"lane_width": 30.0, "match_threshold": 30.0, "tusimple_row_step": 10},
        "fit": {"mode": "2d", "keypoints": 72},
        "anchors": {"k": 2, "seed": 0, "rows": 36},
    }

    def _leaf_paths(obj, prefix=()):
        """Every key or index path into obj, parents before children."""
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        for key, value in items:
            yield prefix + (key,)
            if isinstance(value, (dict, list)):
                yield from _leaf_paths(value, prefix + (key,))

    FUZZ_TARGETS = [("spec", p) for p in _leaf_paths(FUZZ_SPEC)] + [
        ("config", p) for p in _leaf_paths(FUZZ_CONFIG)
    ]

    def _substitute(document, path, fragment):
        """The document as JSON text with the value at path replaced by a raw fragment."""
        doc = json.loads(json.dumps(document))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = "@VALUE@"
        return json.dumps(doc).replace('"@VALUE@"', fragment)

    @pytest.fixture(scope="module")
    def fuzz_dir(tmp_path_factory):
        """A 1-frame dataset and its 3D fit, for the eval runs."""
        root = tmp_path_factory.mktemp("cli-fuzz")
        spec = write_json(root / "base-spec.json", FUZZ_SPEC)
        assert main(["generate", "--spec", spec, "--out", str(root / "d.jsonl")]) == 0
        assert main(["fit", "--dataset", str(root / "d.jsonl"), "--out", str(root / "p.jsonl")]) == 0
        return root

    @given(data=st.data())
    def test_cli_exits_cleanly_on_any_field(fuzz_dir, data):
        which, path = data.draw(st.sampled_from(FUZZ_TARGETS), label="field")
        fragment = data.draw(_FRAGMENTS, label="value")
        documents = {"spec": FUZZ_SPEC, "config": FUZZ_CONFIG}
        for name, document in documents.items():
            text = _substitute(document, path, fragment) if name == which else json.dumps(document)
            (fuzz_dir / f"{name}.json").write_text(text)
        config = str(fuzz_dir / "config.json")
        dataset = str(fuzz_dir / "d.jsonl")
        argv = {
            "eval": ["eval", "--dataset", dataset, "--pred", str(fuzz_dir / "p.jsonl")],
            "fit": ["fit", "--dataset", dataset],
            "anchors": ["anchors", "--dataset", dataset],
        }.get(path[0], ["generate", "--spec", str(fuzz_dir / "spec.json")])
        argv += ["--config", config, "--out", str(fuzz_dir / "out")]
        code, err = _run(argv)
        assert code in (0, 2, 3)
        assert "Traceback" not in err


class TestParser:
    def test_unknown_command_exits_2(self, capsys):
        assert main(["launch-rockets"]) == 2
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "generate" in capsys.readouterr().out

    def test_five_subcommands(self, capsys):
        # eval and render project 3D lanes themselves: no project command
        assert main(["--help"]) == 0
        assert "{generate,fit,eval,anchors,render}" in capsys.readouterr().out
        code, err = _run(["project", "--dataset", "d", "--pred", "p", "--out", "o"])
        assert code == 2
        assert "invalid choice: 'project'" in err and "Traceback" not in err
