"""End-to-end tests for the command-line pipeline, run in process."""

import json

import numpy as np
import pytest

from bevlane.camera import project_lane
from bevlane.cli import main
from bevlane.io_formats import (
    read_anchors,
    read_dataset,
    read_predictions,
    read_report,
)

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


class TestParser:
    def test_unknown_command_exits_2(self, capsys):
        assert main(["launch-rockets"]) == 2
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "generate" in capsys.readouterr().out
