import math
import warnings

import numpy as np
import pytest

from bevlane import losses
from bevlane.assignment import resample_lane
from bevlane.camera import CameraIntrinsics, ImageSpec, Lane2D, project_lane, project_points
from bevlane.errors import DimensionMismatchError
from bevlane.geometry import BevCurve, HeightProfile, Lane3D, lane_to_vector, sample_lane
from bevlane.losses import (
    BEV_E,
    PERSPECTIVE_E,
    LaneTargets,
    bev_iou_loss,
    endpoint_z_loss,
    height_loss,
    height_variance_reg,
    lane_losses,
    perspective_losses,
)
from bevlane.losses import _iou_loss_rows
from oracles import lane_iou_oracle


def make_lane(a=0.0, b=0.0, c=0.0, d=0.0, heights=None, z_min=4.0, z_max=60.0, n=72):
    h = np.full(n, 1.5) if heights is None else np.asarray(heights, dtype=float)
    return Lane3D(BevCurve(a, b, c, d), HeightProfile(h, z_min, z_max))


def lane_iou(xs_pred, xs_gt, e):
    """Mean widened-lane IoU of one lane's samples, through the row kernel of every IoU term."""
    diff = np.asarray(xs_pred, dtype=float) - np.asarray(xs_gt, dtype=float)
    loss, _ = _iou_loss_rows(diff, np.zeros(diff.size, dtype=int), np.array([diff.size]), e)
    return float(1.0 - loss[0])


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
    # the IoU term compares the lane's own samples with as many targets
    with pytest.raises(DimensionMismatchError):
        bev_iou_loss(make_lane(), np.zeros(71))


def test_bev_iou_loss_zero_at_identical():
    lane = make_lane(a=1e-5, b=-1e-3, c=0.02, d=1.0)
    gt_xs = sample_lane(lane, 72)[:, 0]
    loss, grad = bev_iou_loss(lane, gt_xs)
    assert loss == 0.0
    assert np.allclose(grad, 0.0)


def test_bev_iou_loss_one_at_2e_shift():
    lane = make_lane(d=1.0)
    gt_xs = sample_lane(make_lane(d=1.0 + 2 * BEV_E), 72)[:, 0]
    loss, _ = bev_iou_loss(lane, gt_xs)
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


def test_perspective_losses_segment_on_a_grid_row_has_finite_gradient(image):
    # heights 0 put every projected sample on row oy = 180, a grid row, so
    # each segment lies on it: its crossing has t = 0 and dt/dv is taken as 0
    cam = CameraIntrinsics(fx=1000.0, fy=1000.0, ox=400.0, oy=180.0)
    gt = resample_lane(Lane2D(np.array([[600.0, 100.0], [600.0, 300.0]])), image)
    out = perspective_losses(make_lane(d=1.0, heights=(0.0, 0.0, 0.0)), cam, gt)
    assert out.overlap and 0.0 < out.l_per < math.inf
    assert np.isfinite(out.grad_per).all() and np.isfinite(out.grad_v).all()
    assert np.all(out.grad_per[4:7] == 0.0)  # the row placement moves no u
    assert np.any(out.grad_per[:4] != 0.0)


def test_perspective_losses_shift_closed_form(k, image):
    """A BEV translation moves each row's u by fx*delta/z; the loss must
    equal the interval IoU of that shift profile, interpolated exactly the
    way the row grid samples the projected polyline."""
    delta = 0.2
    gt_lane = make_lane(d=2.0, z_min=4.0, z_max=60.0)
    pred = make_lane(d=2.0 + delta, z_min=4.0, z_max=60.0)
    gt = resample_lane(project_lane(k, gt_lane, 72), image)
    out = perspective_losses(pred, k, gt)

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
        ious.append((2 * PERSPECTIVE_E - du) / (2 * PERSPECTIVE_E + du))
    assert out.l_per == pytest.approx(1.0 - np.mean(ious), rel=1e-12)
    assert out.l_v == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("branch", ["2d", "3d"])
def test_tiny_iou_half_width_keeps_lane_losses_finite(k, image, branch, monkeypatch):
    # (2e)^2 is still a positive double at e = 1e-150 and 1e-162; one lane
    # lies on its target, the other is shifted off it
    heights = 1.5 + 0.2 * np.sin(np.linspace(0, 5, 72))
    on = make_lane(c=0.01, d=1.0, heights=heights)
    off = make_lane(c=0.01, d=1.3, heights=heights - 0.05, z_min=5.0, z_max=55.0)
    gt = resample_lane(project_lane(k, on, 72), image)
    labels = None if branch == "2d" else [sample_lane(on, 200)] * 2
    targets = LaneTargets.stack([gt, gt], [k, k], labels)
    theta = np.stack([lane_to_vector(on), lane_to_vector(off)])
    for e in (1e-150, 1e-162):
        monkeypatch.setattr(losses, "PERSPECTIVE_E", e)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            loss, grad, terms, overlap = lane_losses(theta, targets)
        assert overlap.all()
        assert np.isfinite(loss).all() and np.isfinite(grad).all() and np.isfinite(terms).all()


def test_lane_losses_2d_zero_gradient_without_overlap(k, image):
    # the near lane misses its target, so neither its image terms nor its
    # height spread may push it; the far lane is scored as usual
    wavy = 1.5 + 0.2 * np.sin(np.linspace(0, 7, 72))
    near = make_lane(d=1.0, heights=wavy, z_min=4.0, z_max=7.0)
    far = make_lane(d=1.0, heights=wavy, z_min=40.0, z_max=70.0)
    gt = resample_lane(project_lane(k, far, 72), image)
    theta = np.stack([lane_to_vector(near), lane_to_vector(far)])
    loss, grad, terms, overlap = lane_losses(theta, LaneTargets.stack([gt, gt], [k, k]))
    assert overlap.tolist() == [False, True]
    assert loss[0] == np.inf and not grad[0].any()
    assert terms[1, 2] > 0.0 and grad[1, 4:-2].any()


def test_lane_losses_stack_of_one_without_overlap(k, image):
    # a lane whose span never shares a row with its target reads +inf with
    # a zero gradient, with or without 3D labels
    near = make_lane(d=1.0, z_min=4.0, z_max=7.0)
    far = make_lane(d=1.0, z_min=40.0, z_max=70.0)
    gt = resample_lane(project_lane(k, far, 72), image)
    theta = lane_to_vector(near)[None]
    for labels in (None, [sample_lane(far, 200)]):
        loss, grad, _terms, overlap = lane_losses(theta, LaneTargets.stack([gt], [k], labels))
        assert not overlap[0] and loss[0] == np.inf and not grad.any()


def test_lane_loss_reads_labels_in_any_order(k, image, rng):
    # np.interp needs increasing z, so the labels are sorted once, whatever
    # order they come in
    gt_lane = make_lane(c=0.01, d=1.0, heights=1.5 + 0.2 * np.sin(np.linspace(0, 5, 72)))
    pred = make_lane(c=0.012, d=1.2, heights=np.full(72, 1.45), z_min=5.0, z_max=55.0)
    gt = resample_lane(project_lane(k, gt_lane, 72), image)
    labels = sample_lane(gt_lane, 200)
    theta = lane_to_vector(pred)[None]
    want = lane_losses(theta, LaneTargets.stack([gt], [k], [labels]))
    assert (want[2][0, 2:] > 0.0).all()  # l_bev, l_h and l_z
    for shuffled in (labels[::-1], labels[rng.permutation(200)]):
        got = lane_losses(theta, LaneTargets.stack([gt], [k], [shuffled]))
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


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
