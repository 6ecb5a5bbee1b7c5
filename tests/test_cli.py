"""End-to-end tests for the command-line pipeline, run in process."""

import contextlib
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from bevlane import cli, fitting
from bevlane.assignment import resample_lane
from bevlane.camera import project_lane
from bevlane.cli import build_parser, main
from bevlane.datagen import MAX_FRAMES_PER_SPEC, bump_scene, generate_frame
from bevlane.fitting import MAX_KEYPOINTS, fit_lane_2d, fit_lane_3d, ipm_init
from bevlane.geometry import MAX_SAMPLE_COUNT, lane_to_vector
from bevlane.io_formats import (
    read_anchors,
    read_dataset,
    read_predictions,
    read_report,
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
            for lane in p.lanes3d:
                assert lane.score == 1.0

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
        out = str(tmp_path / "preds.jsonl")
        code = main([
            "fit", "--dataset", flat_dataset, "--mode", "baseline",
            "--order", "bezier", "--out", out,
        ])
        assert code == 2

    def test_2d_fit_is_the_same_in_any_block(self, tmp_path, monkeypatch):
        # two row grids in one dataset: the 300-row frames fit in their own blocks
        spec = write_json(tmp_path / "spec.json", {"scenes": [
            {"preset": "bump"}, {"preset": "slope", "image": {"width": 800, "height": 300}},
        ]})
        dataset = str(tmp_path / "d.jsonl")
        assert main(["generate", "--spec", spec, "--frames", "2", "--out", dataset]) == 0
        outputs = []
        for size in (1, 3, cli.FIT_BLOCK_LANES):
            monkeypatch.setattr(cli, "FIT_BLOCK_LANES", size)
            out = tmp_path / f"preds-{size}.jsonl"
            assert main(["fit", "--dataset", dataset, "--mode", "2d", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        frames = read_dataset(dataset)
        assert {f.image.height for f in frames} == {300, 320}
        for frame, pred in zip(frames, read_predictions(str(out)), strict=True):
            for lane2d, got in zip(frame.lanes2d, pred.lanes3d, strict=True):
                gt = resample_lane(lane2d, frame.image)
                init = ipm_init(lane2d, frame.intrinsics)
                want = fit_lane_2d(gt, frame.intrinsics, init).lane
                assert np.array_equal(lane_to_vector(got), lane_to_vector(want))

    def test_3d_fit_is_the_same_in_any_block(self, tmp_path, monkeypatch):
        # two row grids in one dataset: the 300-row frames fit in their own blocks
        spec = write_json(tmp_path / "spec.json", {"scenes": [
            {"preset": "bump"}, {"preset": "slope", "image": {"width": 800, "height": 300}},
        ]})
        dataset = str(tmp_path / "d.jsonl")
        assert main(["generate", "--spec", spec, "--frames", "2", "--out", dataset]) == 0
        outputs = []
        for size in (1, 3, cli.FIT_BLOCK_LANES):
            monkeypatch.setattr(cli, "FIT_BLOCK_LANES", size)
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
        assert "non-finite at iteration 0" in err and "Traceback" not in err

    @pytest.mark.parametrize("plateau", ["0", "-5"])
    def test_plateau_below_one_exits_2(self, flat_dataset, tmp_path, plateau):
        out = str(tmp_path / "preds.jsonl")
        argv = ["fit", "--dataset", flat_dataset, "--mode", "2d", "--out", out]
        code, err = _run(argv + ["--plateau", plateau])
        assert code == 2
        assert "bad fit configuration" in err and "Traceback" not in err

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

    def test_k_beyond_lanes_exits_2(self, flat_dataset, tmp_path):
        code = main([
            "anchors", "--dataset", flat_dataset, "-k", "40",
            "--out", str(tmp_path / "a.json"),
        ])
        assert code == 2


class TestProject:
    def test_projection_matches_library(self, flat_dataset, tmp_path):
        preds = str(tmp_path / "preds.jsonl")
        projected = str(tmp_path / "projected.jsonl")
        assert main(["fit", "--dataset", flat_dataset, "--mode", "3d", "--out", preds]) == 0
        assert main([
            "project", "--dataset", flat_dataset, "--pred", preds,
            "--out", projected, "--sample-count", "48",
        ]) == 0
        frames = read_dataset(flat_dataset)
        out = read_predictions(projected)
        for frame, pred in zip(frames, out):
            assert len(pred.lanes2d) == len(pred.lanes3d) == 4
            for lane3d, lane2d in zip(pred.lanes3d, pred.lanes2d):
                want = project_lane(frame.intrinsics, lane3d, 48)
                np.testing.assert_allclose(lane2d.points, want.points, atol=1e-12)

    def test_requires_pred(self, flat_dataset, tmp_path):
        assert main(["project", "--dataset", flat_dataset, "--out", "x.jsonl"]) == 2


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
                "dataset": flat_dataset, "mode": "2d", "order": 2, "beta": 0.5, "e_per": 10.0,
                "max_iters": 5, "step_size": 0.02, "plateau": 3, "keypoints": 40,
                "ipm_height": 1.4,
            },
            "eval": {
                "dataset": flat_dataset, "pred": preds, "lane_width": 25.0, "raster_scale": 0.5,
                "match_threshold": 20.0, "sample_count": 50, "tusimple_tol": 15.0,
                "tusimple_row_step": 8,
            },
            "anchors": {
                "dataset": flat_dataset, "k": 3, "rows": 20, "restarts": 2, "seed": 4,
                "match_threshold": 25.0,
            },
            "project": {"dataset": flat_dataset, "pred": preds, "sample_count": 48},
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
}


COUNT_FLAGS = [
    ("generate", "--frames", MAX_FRAMES_PER_SPEC),
    ("fit", "--keypoints", MAX_KEYPOINTS),
    ("eval", "--sample-count", MAX_SAMPLE_COUNT),
    ("project", "--sample-count", MAX_SAMPLE_COUNT),
    ("render", "--sample-count", MAX_SAMPLE_COUNT),
    ("anchors", "--rows", MAX_SAMPLE_COUNT),
]


@pytest.mark.parametrize("command, flag, limit", COUNT_FLAGS)
def test_count_flags_are_bounded(tmp_path, command, flag, limit):
    paths = {f: str(tmp_path / f) for f in ("--spec", "--dataset", "--pred", "--out")}
    required = {
        "generate": ["--spec", "--out"],
        "fit": ["--dataset", "--out"],
        "eval": ["--dataset", "--pred", "--out"],
        "project": ["--dataset", "--pred", "--out"],
        "render": ["--dataset", "--out"],
        "anchors": ["--dataset", "--out"],
    }[command]
    argv = [command] + [token for f in required for token in (f, paths[f])]
    parser = build_parser()
    opts = parser.parse_args(argv + [flag, str(limit)])
    assert getattr(opts, flag[2:].replace("-", "_")) == limit
    # past the limit the parser refuses, before any file is read
    for value in (limit + 1, 10**30):
        code, err = _run(argv + [flag, str(value)])
        assert code == 2
        assert f"in [1, {limit}]" in err and "Traceback" not in err


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
        ("fit", ["--mode", "2d", "--beta", "-1"]),
        ("eval", ["--tusimple-tol", "-1"]),
        ("eval", ["--match-threshold", "-1"]),
        ("anchors", ["-k", "2", "--match-threshold", "-1"]),
        ("eval", ["--lane-width", "nan"]),
        ("eval", ["--lane-width", "inf"]),
    ],
)
def test_out_of_range_weight_or_width_exits_2(flat_dataset, tmp_path, command, flags):
    preds = str(tmp_path / "preds.jsonl")
    assert main(["fit", "--dataset", flat_dataset, "--out", preds]) == 0
    argv = [command, "--dataset", flat_dataset, "--out", str(tmp_path / "o"), *flags]
    code, err = _run(argv + (["--pred", preds] if command == "eval" else []))
    assert code == 2
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--step-size", "nan"], "step_size"),
        (["--step-size", "inf"], "step_size"),
        (["--beta", "inf"], "beta"),
        (["--beta", "nan"], "beta"),
    ],
)
def test_non_finite_fit_setting_exits_2(flat_dataset, tmp_path, flags, field):
    # fit has no --alpha flag; LossWeights' alpha check is tested in test_losses.
    argv = ["fit", "--dataset", flat_dataset, "--mode", "2d", "--out", str(tmp_path / "p")]
    code, err = _run(argv + flags)
    assert code == 2
    assert field in err and "Traceback" not in err


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--e-per", "inf"], "half-width e"),
        (["--e-per", "1e308"], "half-width e"),
        (["--ipm-height", "nan"], "ipm_camera_height"),
        (["--ipm-height", "inf"], "ipm_camera_height"),
    ],
)
def test_unusable_loss_or_ipm_setting_exits_2(flat_dataset, tmp_path, flags, field):
    # refused where the config is built, before any array arithmetic warns
    argv = ["fit", "--dataset", flat_dataset, "--mode", "2d", "--out", str(tmp_path / "p")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = _run(argv + flags)
    assert code == 2
    assert field in err and "Traceback" not in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


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
    _FRAGMENTS = _JSON.map(json.dumps) | st.sampled_from(["NaN", "-Infinity", "1e400", "-1e400"])
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
    FUZZ_CONFIG = {
        "generate": {"frames": 1, "seed": 3},
        "eval": {"lane_width": 30.0, "match_threshold": 30.0, "tusimple_row_step": 10},
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
        if path[0] == "eval":
            argv = ["eval", "--config", config, "--dataset", str(fuzz_dir / "d.jsonl"),
                    "--pred", str(fuzz_dir / "p.jsonl"), "--out", str(fuzz_dir / "r.json")]
        else:
            argv = ["generate", "--config", config, "--spec", str(fuzz_dir / "spec.json"),
                    "--out", str(fuzz_dir / "out.jsonl")]
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
