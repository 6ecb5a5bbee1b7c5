"""Eval's kernels on real mixed-ground frames, against independent routes.

The other exactness tests use canvases of at most 40 px and polylines of
at most 80 points. Here the frames are what the pipeline scores: 800 x 320
images, 200-point GT lanes and 72-point projected predictions, on slope
ground and on bumps whose projections fold (v not monotone).
"""

import json

import numpy as np
import pytest

from bevlane.assignment import cost_matrix, hungarian_assign, match_lanes, resample_lanes, row_grid
from bevlane.camera import project_lane, project_points, project_stack
from bevlane.cli import main
from bevlane.geometry import (
    MAX_SAMPLE_COUNT,
    BevCurve,
    HeightProfile,
    Lane3D,
    sample_lane,
    sample_lanes,
)
from bevlane.io_formats import read_dataset, read_predictions, read_report
from bevlane.metrics import (
    EvalConfig,
    cd_error_per_pair,
    lane_iou_matrix,
    rasterize_lane,
    tusimple_accuracy,
)
from oracles import dense_raster_oracle

# Acceptance criterion 2's mixed-ground recipe.
MIXED_SPEC = {
    "scenes": [
        {"preset": "flat"},
        {"preset": "slope"},
        {"preset": "bump"},
        {"preset": "rough", "seed": 3},
    ],
    "jitter": {
        "curve_delta": [0.0, 0.0005, 0.02, 0.5],
        "amplitude_delta": 0.05,
        "grade_delta": 0.01,
        "wavelength_delta": 3.0,
    },
}


@pytest.fixture(scope="module")
def mixed_set(tmp_path_factory):
    """MIXED_SPEC at 2 frames per scene, its default 3d, 2d and baseline fits and the files.

    Returns (paths, frames, {mode: predictions in frame order}).
    """
    root = tmp_path_factory.mktemp("mixed")
    spec = root / "spec.json"
    spec.write_text(json.dumps(MIXED_SPEC))
    paths = {"dataset": str(root / "d.jsonl")}
    assert main(["generate", "--spec", str(spec), "--frames", "2", "--out", paths["dataset"]]) == 0
    frames = read_dataset(paths["dataset"])
    preds = {}
    for mode in ("3d", "2d", "baseline"):
        paths[mode] = str(root / f"{mode}.jsonl")
        argv = ["fit", "--dataset", paths["dataset"], "--mode", mode, "--out", paths[mode]]
        assert main(argv) == 0
        by_id = {p.frame_id: p for p in read_predictions(paths[mode])}
        preds[mode] = [by_id[f.frame_id] for f in frames]
    return paths, frames, preds


def folded(lane) -> bool:
    """Whether the lane's rows turn back somewhere along it."""
    steps = np.sign(np.diff(lane.v))
    steps = steps[steps != 0]
    return bool((steps[1:] != steps[:-1]).any())


@pytest.mark.parametrize("tag", ["bump", "slope"])
def test_rasterize_and_iou_match_dense_oracle_on_real_frames(mixed_set, tag):
    _paths, frames, preds = mixed_set
    frame, pred = next((f, p) for f, p in zip(frames, preds["3d"]) if f.tag == tag)
    image = frame.image
    gts = list(frame.lanes2d)
    pred2d = [project_lane(frame.intrinsics, lane, 72) for lane in pred.lanes3d]
    assert (image.width, image.height) == (800, 320)
    assert {len(g) for g in gts} == {200} and {len(p) for p in pred2d} == {72}
    assert any(folded(g) for g in gts) == (tag == "bump")

    masks = {}
    for side, lanes in (("pred", pred2d), ("gt", gts)):
        masks[side] = [
            dense_raster_oracle(lane.points, image.height, image.width, 30.0) for lane in lanes
        ]
        for lane, want in zip(lanes, masks[side]):
            assert want.any()
            np.testing.assert_array_equal(rasterize_lane(lane, image, 30.0), want)

    want = np.array([
        [np.count_nonzero(a & b) / np.count_nonzero(a | b) for b in masks["gt"]]
        for a in masks["pred"]
    ])
    np.testing.assert_array_equal(lane_iou_matrix(pred2d, gts, image, EvalConfig()), want)


@pytest.mark.parametrize("step", [1, 7, 10, 400])
@pytest.mark.parametrize("mode", ["3d", "2d", "baseline"])
def test_shared_row_resample_equals_per_call_resampling(mixed_set, tmp_path, mode, step):
    # eval resamples each side's lanes once per image height, on every
    # image row, and reads the row anchors from there, with or without
    # matching to follow (baseline predictions hold no lanes3d); matching,
    # row-anchor accuracy and so the report must equal what resampling
    # per call, at each call's own rows, gives
    paths, frames, preds = mixed_set
    preds = preds[mode]
    assert any(folded(g) for f in frames for g in f.lanes2d)
    assert all(bool(p.lanes3d) == (mode != "baseline") for p in preds)
    cfg = EvalConfig()
    ts_totals = np.zeros(5, dtype=np.int64)
    cd_values = []
    for frame, pred in zip(frames, preds):
        image = frame.image
        gts = list(frame.lanes2d)
        pred2d = list(pred.lanes2d) or [project_lane(frame.intrinsics, l, 72) for l in pred.lanes3d]

        grid = row_grid(image)
        pred_u, gt_u = resample_lanes(pred2d, grid), resample_lanes(gts, grid)
        rows = np.arange(image.height // 2, image.height, step, dtype=float)
        anchors = slice(image.height // 2, None, step)
        np.testing.assert_array_equal(grid[anchors], rows)
        ts = tusimple_accuracy(resample_lanes(pred2d, rows), resample_lanes(gts, rows), rows, cfg)
        assert tusimple_accuracy(pred_u[:, anchors], gt_u[:, anchors], grid[anchors], cfg) == ts
        ts_totals += [ts.correct_points, ts.gt_points, ts.matched_pairs, ts.pred_lanes, ts.gt_lanes]

        match = match_lanes(pred2d, gts, image)
        assert hungarian_assign(cost_matrix(pred_u, gt_u, grid)).pairs == match.pairs
        if pred.lanes3d:
            pairs = [(i, j) for i, j, _ in match.pairs]
            samples = [sample_lane(lane, 72) for lane in pred.lanes3d]
            cd_values.extend(cd_error_per_pair(samples, frame.lanes3d, pairs))

    out = str(tmp_path / "report.json")
    argv = ["eval", "--dataset", paths["dataset"], "--pred", paths[mode], "--out", out]
    assert main(argv + ["--tusimple-row-step", str(step)]) == 0
    report = read_report(out)
    assert bool(cd_values) == (mode != "baseline")
    correct, points, matched, n_pred, n_gt = (int(x) for x in ts_totals)
    assert report["tusimple"] == {
        "accuracy": correct / points,
        "fp_rate": (n_pred - matched) / n_pred,
        "fn_rate": (n_gt - matched) / n_gt,
        "correct_points": correct,
        "gt_points": points,
    }
    assert report["cd_error"] == (float(np.mean(cd_values)) if cd_values else None)


def _sampled_alone(lane, count):
    """One lane's samples through BevCurve.x_at and HeightProfile.y_at."""
    z = np.linspace(lane.z_min, lane.z_max, count)
    return np.column_stack([lane.curve.x_at(z), lane.profile.y_at(z), z])


@pytest.mark.parametrize("count", [2, MAX_SAMPLE_COUNT])
def test_sample_lanes_and_their_projection_equal_each_lane_alone(mixed_set, tmp_path, count):
    # eval samples and projects every predicted lane of the dataset in one
    # stack; each lane must read exactly as it does alone
    paths, frames, preds = mixed_set
    order2 = str(tmp_path / "order2.jsonl")
    argv = ["fit", "--dataset", paths["dataset"], "--mode", "3d", "--order", "2", "--out", order2]
    assert main(argv) == 0
    by_id = {p.frame_id: p for p in read_predictions(order2)}
    lanes, cameras = [], []
    for frame_preds in (preds["3d"], preds["2d"], [by_id[f.frame_id] for f in frames]):
        for frame, pred in zip(frames, frame_preds):
            lanes += pred.lanes3d
            cameras += [frame.intrinsics] * len(pred.lanes3d)
    assert sum(lane.curve.a == 0.0 for lane in lanes) >= len(frames) * 4  # the order-2 fits
    # a lane spanning kilometres, every curve coefficient nonzero
    profile = HeightProfile((1.5, 0.9, -4.0, 12.0), z_min=3.0, z_max=4500.0)
    lanes.append(Lane3D(BevCurve(2e-9, -3e-6, 0.02, 1.75), profile))
    cameras.append(frames[0].intrinsics)

    got = sample_lanes(lanes, count)
    assert got.shape == (len(lanes), count, 3)
    projected = project_stack([[k.fx, k.fy, k.ox, k.oy] for k in cameras], got)
    assert projected.shape == (len(lanes), count, 2)
    for lane, k, points, uv in zip(lanes, cameras, got, projected):
        want = _sampled_alone(lane, count)
        assert np.array_equal(points, want)
        assert np.array_equal(sample_lane(lane, count), want)
        x, y, z = want.T
        assert np.array_equal(uv, np.column_stack([k.fx * x / z + k.ox, k.fy * y / z + k.oy]))
        assert np.array_equal(project_points(k, want), uv)
