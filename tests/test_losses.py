import math

import numpy as np
import pytest

from bevlane.assignment import MatchResult, match_lanes, resample_lane
from bevlane.camera import CameraIntrinsics, ImageSpec, Lane2D, project_lane, project_points
from bevlane.errors import DimensionMismatchError, ValidationError
from bevlane.geometry import BevCurve, HeightProfile, Lane3D, lane_to_vector, sample_lane
from bevlane.losses import (
    IoUConfig,
    LaneTargets,
    LossWeights,
    bev_iou_loss,
    classification_loss,
    endpoint_z_loss,
    height_loss,
    height_variance_reg,
    lane_iou,
    lane_loss,
    lane_losses,
    perspective_losses,
    total_loss,
)
from oracles import bce_oracle, lane_iou_oracle


def make_lane(a=0.0, b=0.0, c=0.0, d=0.0, heights=None, z_min=4.0, z_max=60.0, score=1.0, n=72):
    h = np.full(n, 1.5) if heights is None else np.asarray(heights, dtype=float)
    return Lane3D(BevCurve(a, b, c, d), HeightProfile(h, z_min, z_max), score)


def test_lane_iou_identical():
    xs = np.linspace(-2, 2, 20)
    assert lane_iou(xs, xs, e=0.5) == 1.0


def test_lane_iou_separation_2e():
    xs = np.zeros(10)
    assert lane_iou(xs, xs + 1.0, e=0.5) == pytest.approx(0.0)


def test_lane_iou_separation_e():
    xs = np.zeros(10)
    assert lane_iou(xs, xs + 0.5, e=0.5) == pytest.approx(1.0 / 3.0)


def test_lane_iou_matches_oracle(rng):
    for _ in range(20):
        xa = rng.normal(size=15)
        xb = rng.normal(size=15)
        e = rng.uniform(0.1, 2.0)
        assert lane_iou(xa, xb, e) == pytest.approx(lane_iou_oracle(xa, xb, e), rel=1e-12)


def test_lane_iou_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        lane_iou(np.zeros(3), np.zeros(4), 0.5)


def test_bev_iou_loss_zero_at_identical():
    lane = make_lane(a=1e-5, b=-1e-3, c=0.02, d=1.0)
    gt_xs = sample_lane(lane, 72)[:, 0]
    loss, grad = bev_iou_loss(lane, gt_xs)
    assert loss == 0.0
    assert np.allclose(grad, 0.0)


def test_bev_iou_loss_one_at_2e_shift():
    cfg = IoUConfig(e=0.5, sample_count=72)
    lane = make_lane(d=1.0)
    gt_xs = sample_lane(make_lane(d=1.0 + 2 * cfg.e), 72)[:, 0]
    loss, _ = bev_iou_loss(lane, gt_xs, cfg)
    assert loss == pytest.approx(1.0)


def test_height_loss_cases():
    lane = make_lane(heights=[1.0, 1.0], n=2)
    assert height_loss(lane, np.array([1.0, 1.0]))[0] == 0.0
    loss, grad = height_loss(make_lane(heights=[1.1, 1.1], n=2), np.array([1.0, 1.0]))
    assert loss == pytest.approx(0.1)
    assert np.allclose(grad, 0.5)  # +1/n each
    loss, _ = height_loss(make_lane(heights=[0.0, 2.0], n=2), np.array([1.0, 1.0]))
    assert loss == pytest.approx(1.0)


def test_endpoint_z_loss_cases():
    assert endpoint_z_loss(make_lane(z_min=5, z_max=50), 5.0, 50.0)[0] == 0.0
    assert endpoint_z_loss(make_lane(z_min=5, z_max=50), 6.0, 48.0)[0] == pytest.approx(3.0)
    assert endpoint_z_loss(make_lane(z_min=5, z_max=50), 5.0, 50.5)[0] == pytest.approx(0.5)


def test_classification_loss_cases():
    loss, _ = classification_loss(np.array([0.5]), np.array([1.0]))
    assert loss == pytest.approx(math.log(2.0))
    loss, _ = classification_loss(np.array([0.9, 0.1]), np.array([1.0, 0.0]))
    assert loss == pytest.approx(-math.log(0.9), rel=1e-9)
    assert loss == pytest.approx(0.10536, abs=1e-5)
    loss, _ = classification_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert loss == pytest.approx(0.0, abs=1e-6)


def test_classification_loss_matches_oracle(rng):
    scores = rng.uniform(0.0, 1.0, 9)
    labels = (rng.uniform(size=9) > 0.5).astype(float)
    loss, _ = classification_loss(scores, labels)
    assert loss == pytest.approx(bce_oracle(scores, labels), rel=1e-12)


def test_height_variance_reg_cases():
    assert height_variance_reg(make_lane(heights=[1.5, 1.5, 1.5], n=3))[0] == 0.0
    assert height_variance_reg(make_lane(heights=[0.0, 2.0], n=2))[0] == pytest.approx(1.0)
    assert height_variance_reg(make_lane(heights=[0.0, 0.0, 3.0, 3.0], n=4))[0] == pytest.approx(1.5)


def test_perspective_losses_zero_on_exact_backprojection(k, image):
    lane = make_lane(d=2.0, heights=1.5 + 0.2 * np.sin(np.linspace(0, 6, 72)))
    gt = resample_lane(project_lane(k, lane, 72), image)
    out = perspective_losses(lane, k, gt)
    assert out.overlap
    assert out.l_per == pytest.approx(0.0, abs=1e-12)
    assert out.l_v == 0.0


def test_perspective_losses_shift_closed_form(k, image):
    """A BEV translation moves each row's u by fx*delta/z; the loss must
    equal the interval IoU of that shift profile, interpolated exactly the
    way the row grid samples the projected polyline."""
    delta = 0.2
    cfg = IoUConfig(e=15.0, sample_count=72)
    gt_lane = make_lane(d=2.0, z_min=4.0, z_max=60.0)
    pred = make_lane(d=2.0 + delta, z_min=4.0, z_max=60.0)
    gt = resample_lane(project_lane(k, gt_lane, 72), image)
    out = perspective_losses(pred, k, gt, cfg)

    pts = project_points(k, sample_lane(gt_lane, 72))  # (u, v) near-to-far, v decreasing
    z = sample_lane(gt_lane, 72)[:, 2]
    vs = pts[:, 1][::-1]
    zs = z[::-1]
    ious = []
    lo = math.ceil(vs[0])
    hi = min(math.floor(vs[-1] * -1 + 0) * 0 + math.floor(max(vs)), image.height - 1)
    for r in range(lo, hi + 1):
        i = np.searchsorted(vs, r) - 1
        i = min(max(i, 0), len(vs) - 2)
        t = (r - vs[i]) / (vs[i + 1] - vs[i])
        du = (1 - t) * k.fx * delta / zs[i] + t * k.fx * delta / zs[i + 1]
        ious.append((2 * cfg.e - du) / (2 * cfg.e + du))
    assert out.l_per == pytest.approx(1.0 - np.mean(ious), rel=1e-12)
    assert out.l_v == pytest.approx(0.0, abs=1e-12)


def test_total_loss_identical_sets_both_modes(k, image):
    lanes = [make_lane(d=-1.75, score=1.0), make_lane(d=1.75, score=1.0)]
    lanes2d = [project_lane(k, l, 72) for l in lanes]
    gts = [resample_lane(l, image) for l in lanes2d]
    matches = match_lanes(lanes2d, lanes2d, image)
    gts3 = [sample_lane(l, 200) for l in lanes]

    for g3 in (None, gts3):
        out = total_loss(lanes, gts, matches, k, gts_3d=g3)
        floor, _ = classification_loss(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        assert out.total == pytest.approx(floor, abs=1e-9)
        assert out.l_bev == pytest.approx(0.0, abs=1e-12)
        assert out.l_per == pytest.approx(0.0, abs=1e-12)
        assert out.l_v == 0.0


def test_total_loss_2d_decomposition(k, image):
    # bumpy heights, pred projects exactly onto its own projection: the
    # only residuals are the score term and the height-spread regularizer
    heights = 1.5 + 0.25 * np.sin(np.linspace(0, 9, 72))
    lane = make_lane(d=1.0, heights=heights, score=0.8)
    lane2d = project_lane(k, lane, 72)
    gts = [resample_lane(lane2d, image)]
    matches = match_lanes([lane2d], [lane2d], image)
    out = total_loss([lane], gts, matches, k, gts_3d=None)
    l_cls, _ = classification_loss(np.array([0.8]), np.array([1.0]))
    sigma, _ = height_variance_reg(lane)
    assert out.total == pytest.approx(l_cls + sigma, abs=1e-10)
    assert out.l_reg == pytest.approx(sigma, rel=1e-12)


def test_total_loss_recombination_oracle(k, image, rng):
    """Mode totals must recombine the standalone terms bit-exactly."""
    gt_lanes = [make_lane(d=-2.0, heights=1.5 + 0.1 * np.sin(np.linspace(0, 5, 72))), make_lane(d=2.0)]
    preds = [
        make_lane(c=0.004, d=-1.9, heights=1.45 + 0.1 * np.sin(np.linspace(0.2, 5, 72)), score=0.9),
        make_lane(d=2.15, heights=np.full(72, 1.55), score=0.7),
        make_lane(d=6.5, score=0.2),
    ]
    gt2d = [project_lane(k, l, 72) for l in gt_lanes]
    pred2d = [project_lane(k, l, 72) for l in preds]
    gts = [resample_lane(l, image) for l in gt2d]
    matches = match_lanes(pred2d, gt2d, image)
    assert len(matches.pairs) == 2
    gts3 = [sample_lane(l, 200) for l in gt_lanes]

    alpha, beta = 1.0, 1.0
    labels = np.zeros(len(preds))
    for i, _, _ in matches.pairs:
        labels[i] = 1.0
    scores = np.array([p.score for p in preds])
    l_cls = classification_loss(scores, labels)[0]

    per_pair = {"bev": [], "h": [], "z": [], "per": [], "v": []}
    for i, j, _ in matches.pairs:
        g3 = gts3[j]
        zs = sample_lane(preds[i], 72)[:, 2]
        gt_xs = np.interp(zs, g3[:, 2], g3[:, 0])
        per_pair["bev"].append(bev_iou_loss(preds[i], gt_xs)[0])
        gt_h = np.interp(preds[i].profile.keypoint_z(), g3[:, 2], g3[:, 1])
        per_pair["h"].append(height_loss(preds[i], gt_h)[0])
        per_pair["z"].append(endpoint_z_loss(preds[i], g3[0, 2], g3[-1, 2])[0])
        out = perspective_losses(preds[i], k, gts[j])
        per_pair["per"].append(out.l_per)
        per_pair["v"].append(out.l_v)

    got3 = total_loss(preds, gts, matches, k, gts_3d=gts3)
    manual3 = l_cls + alpha * (
        np.mean(per_pair["bev"]) + np.mean(per_pair["h"]) + np.mean(per_pair["z"])
    ) + beta * (np.mean(per_pair["per"]) + np.mean(per_pair["v"]))
    assert got3.total == manual3

    got2 = total_loss(preds, gts, matches, k, gts_3d=None)
    sigmas = [height_variance_reg(preds[i])[0] for i, _, _ in matches.pairs]
    manual2 = l_cls + beta * (np.mean(per_pair["per"]) + np.mean(per_pair["v"])) + np.mean(sigmas)
    assert got2.total == manual2


def test_total_loss_alpha_beta_zero_is_classification(k, image):
    lane = make_lane(d=1.0, score=0.6)
    lane2d = project_lane(k, lane, 72)
    gts = [resample_lane(lane2d, image)]
    matches = match_lanes([lane2d], [lane2d], image)
    out = total_loss([lane], gts, matches, k, gts_3d=[sample_lane(lane, 100)],
                     weights=LossWeights(alpha=0.0, beta=0.0))
    assert out.total == classification_loss(np.array([0.6]), np.array([1.0]))[0]


@pytest.mark.parametrize("name", ["alpha", "beta"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_loss_weights_reject_non_finite_or_negative(name, value):
    with pytest.raises(ValidationError, match=name):
        LossWeights(**{name: value})


def test_total_loss_unmatched_prediction_label_zero(k, image):
    lane = make_lane(d=1.0, score=0.3)
    lane2d = project_lane(k, lane, 72)
    gts: list = []
    matches = MatchResult(pairs=(), unmatched_predictions=(0,), unmatched_ground_truths=())
    out = total_loss([lane], gts, matches, k)
    assert out.total == classification_loss(np.array([0.3]), np.array([0.0]))[0]
    assert out.matched == ()


def test_total_loss_no_overlap_pair_demoted(k, image):
    # a fabricated pair whose spans never share a row falls back to an
    # unmatched classification target
    near = make_lane(d=1.0, z_min=4.0, z_max=7.0, score=0.9)
    far = make_lane(d=1.0, z_min=40.0, z_max=70.0)
    far2d = project_lane(k, far, 72)
    gts = [resample_lane(far2d, image)]
    matches = MatchResult(pairs=((0, 0, 1.0),), unmatched_predictions=(), unmatched_ground_truths=())
    out = total_loss([near], gts, matches, k)
    assert out.matched == ()
    assert lane_loss(lane_to_vector(near)[:-1], k, gts[0]) is None
    assert out.total == classification_loss(np.array([0.9]), np.array([0.0]))[0]


def test_lane_losses_2d_zero_gradient_without_overlap(k, image):
    # the near lane misses its target, so neither its image terms nor its
    # height spread may push it; the far lane is scored as usual
    wavy = 1.5 + 0.2 * np.sin(np.linspace(0, 7, 72))
    near = make_lane(d=1.0, heights=wavy, z_min=4.0, z_max=7.0)
    far = make_lane(d=1.0, heights=wavy, z_min=40.0, z_max=70.0)
    gt = resample_lane(project_lane(k, far, 72), image)
    theta = np.stack([lane_to_vector(near)[:-1], lane_to_vector(far)[:-1]])
    loss, grad, terms, overlap = lane_losses(theta, LaneTargets.stack([gt, gt], [k, k]))
    assert overlap.tolist() == [False, True]
    assert loss[0] == np.inf and not grad[0].any()
    assert terms[1, 2] > 0.0 and grad[1, 4:-2].any()


def test_lane_loss_reads_labels_in_any_order(k, image, rng):
    # np.interp needs increasing z, so the labels are sorted once, whatever
    # order they come in
    gt_lane = make_lane(c=0.01, d=1.0, heights=1.5 + 0.2 * np.sin(np.linspace(0, 5, 72)))
    pred = make_lane(c=0.012, d=1.2, heights=np.full(72, 1.45), z_min=5.0, z_max=55.0)
    gt = resample_lane(project_lane(k, gt_lane, 72), image)
    labels = sample_lane(gt_lane, 200)
    theta = lane_to_vector(pred)[:-1]
    want = lane_loss(theta, k, gt, labels)
    assert want[2]["l_bev"] > 0.0 and want[2]["l_h"] > 0.0 and want[2]["l_z"] > 0.0
    for shuffled in (labels[::-1], labels[rng.permutation(200)]):
        got = lane_loss(theta, k, gt, shuffled)
        assert got[0] == want[0] and np.array_equal(got[1], want[1]) and got[2] == want[2]


def test_scale_ambiguity_regularizer_pins_scale(k, image):
    """Scaling (d, heights, z-span) jointly leaves the projection fixed, so
    only the height-spread term can see the scale."""
    heights = 1.5 + 0.2 * np.sin(np.linspace(0, 7, 72))
    base = make_lane(d=2.0, heights=heights, z_min=4.0, z_max=60.0)
    gt = resample_lane(project_lane(k, base, 72), image)
    s = 1.7
    scaled = make_lane(d=2.0 * s, heights=s * heights, z_min=4.0 * s, z_max=60.0 * s)
    out_base = perspective_losses(base, k, gt)
    out_scaled = perspective_losses(scaled, k, gt)
    assert out_scaled.l_per == pytest.approx(out_base.l_per, abs=1e-9)
    assert out_scaled.l_v == pytest.approx(out_base.l_v, abs=1e-9)
    assert height_variance_reg(scaled)[0] == pytest.approx(s * height_variance_reg(base)[0], rel=1e-12)
