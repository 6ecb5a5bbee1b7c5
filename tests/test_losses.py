import math
import warnings

import numpy as np
import pytest

from numpy.polynomial.polynomial import polyval

from bevlane import datagen, losses
from bevlane.assignment import first_segments_batch, resample_lane
from bevlane.camera import CameraIntrinsics, ImageSpec, Lane2D, project_lane, project_points
from bevlane.errors import DimensionMismatchError
from bevlane.geometry import BevCurve, HeightProfile, Lane3D, lane_to_vector, sample_lane
from bevlane.losses import (
    BEV_E,
    PERSPECTIVE_E,
    LaneTargets,
    bev_iou_loss,
    by_depth,
    height_loss,
    lane_losses,
    perspective_losses,
)
from bevlane.fitting import FitConfig, lane_starts
from bevlane.losses import (
    _contract, _height_spread, _iou_loss_rows, _powers, _project, _Projection, _span_term
)
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
    # l_z, lane_losses' span term, of the span [5, 50] against three targets
    targets = np.array([[5.0, 50.0], [6.0, 48.0], [5.0, 50.5]])
    loss, _ = _span_term(np.full((3, 2), [5.0, 50.0]), targets)
    assert loss[0] == 0.0
    assert loss[1] == pytest.approx(3.0)
    assert loss[2] == pytest.approx(0.5)


def test_height_variance_reg_cases():
    # l_reg, lane_losses' height spread without labels
    assert _height_spread(np.array([1.5, 1.5, 1.5]))[0] == 0.0
    assert _height_spread(np.array([0.0, 2.0]))[0] == pytest.approx(1.0)
    assert _height_spread(np.array([0.0, 0.0, 3.0, 3.0]))[0] == pytest.approx(1.5)


def test_perspective_losses_zero_on_exact_backprojection(k, image):
    lane = make_lane(d=2.0, heights=1.5 + 0.2 * np.sin(np.linspace(0, 6, 72)))
    gt = resample_lane(project_lane(k, lane, 72), image)
    out = perspective_losses(lane, k, gt)
    assert out.overlap
    assert out.l_per == pytest.approx(0.0, abs=1e-12)
    assert out.l_v == 0.0


def test_l_v_reads_only_the_rows_the_image_shows(k, image):
    # a synthetic label starts at z = 3 m, 340 rows below this 320-row
    # image. A start whose near end is the bottom row, or lies below it,
    # pays nothing for the end the image cannot show; one that stops
    # short of the bottom row pays the rows between.
    gt = resample_lane(project_lane(k, make_lane(d=1.0, z_min=3.0), 72), image)
    assert gt.v_first == 660.0
    near = [1500.0 / 159.0, 2.0, 1500.0 / 140.0]  # near ends at rows 319, 910 and 300
    theta = np.stack([lane_to_vector(make_lane(d=1.0, z_min=z)) for z in near])
    targets = LaneTargets.stack([gt] * 3, [k] * 3)
    _, l_v, _, grad_v, overlap = losses._perspective_batch(theta, targets)
    assert overlap.all()
    assert l_v[0] == pytest.approx(0.0, abs=1e-9)
    assert l_v[1] == 0.0 and not grad_v[1].any()
    assert l_v[2] == pytest.approx(19.0)
    assert grad_v[2, [4, -2]].all()  # its near end still moves with z_min and height 0


def test_lane_losses_of_an_empty_stack_is_empty():
    loss, grad, terms, overlap = lane_losses(np.zeros((0, 78)), LaneTargets.stack([], []))
    assert (loss.shape, grad.shape, terms.shape, overlap.shape) == ((0,), (0, 78), (0, 3), (0,))


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
    sigma_base, sigma_scaled = _height_spread(np.array([heights, s * heights]))[0]
    assert sigma_scaled == pytest.approx(s * sigma_base, rel=1e-12)


def _dense_project(theta, camera, sample_count):
    """_project as it was written first: every table rebuilt per call and
    the Jacobian factors assembled with np.stack."""
    fx, fy, ox, oy = camera.T[:, :, None]
    n = theta.shape[1] - 6
    z_min, z_max = theta[:, -2:-1], theta[:, -1:]
    s = np.linspace(0.0, 1.0, sample_count)
    z = z_min + s * (z_max - z_min)
    c0, c1, c2 = (theta[:, i : i + 1] for i in range(3))
    x = polyval(z, theta[:, 3::-1].T[..., None], tensor=False)
    slope = (3.0 * c0 * z + 2.0 * c1) * z + c2
    dx_dspan = np.stack([slope * (1.0 - s), slope * s], axis=1)
    pos = s * (n - 1)
    left = np.clip(np.floor(pos).astype(int), 0, n - 2)
    w = pos - left
    y = (1.0 - w) * theta[:, 4 + left] + w * theta[:, 5 + left]
    inv_z = 1.0 / z
    inv_z2 = (inv_z**2)[:, None, :]
    dz_dspan = np.stack([1.0 - s, s])
    return _Projection(
        u=fx * x / z + ox,
        v=fy * y / z + oy,
        du_dcurve=fx[:, :, None] * _powers(z) * inv_z[:, None, :],
        du_dspan=fx[:, :, None] * (dx_dspan * z[:, None, :] - x[:, None, :] * dz_dspan) * inv_z2,
        dv_dy=fy * inv_z,
        dv_dspan=-fy[:, :, None] * y[:, None, :] * dz_dspan * inv_z2,
        left=left,
        w=w,
    )


def _dense_perspective_batch(theta, targets):
    """_perspective_batch as it was written first: the crossing fraction on
    the full (lanes, rows) grid, and l_v's gradient by a dense _contract."""
    n_lanes, dg = theta.shape
    m = losses.SAMPLE_COUNT
    proj = _dense_project(theta, targets.camera, m)
    u, v = proj.u, proj.v
    found, seg = first_segments_batch(v, targets.rows)
    at = (np.arange(n_lanes) * m)[:, None] + seg
    va_s = v.ravel()[at]
    dv_s = v.ravel()[at + 1] - va_s
    t_grid = np.where(dv_s == 0.0, 0.0, (targets.rows - va_s) / np.where(dv_s == 0.0, 1.0, dv_s))
    t_grid = np.clip(t_grid, 0.0, 1.0)

    lane, row = np.nonzero(found & targets.present)
    count = np.bincount(lane, minlength=n_lanes)
    overlap = count > 0
    a = lane * m + seg[lane, row]
    t = t_grid[lane, row]
    ua, ub = u.ravel()[a], u.ravel()[a + 1]
    va, vb = v.ravel()[a], v.ravel()[a + 1]
    diff = (1.0 - t) * ua + t * ub - targets.u_values[lane, row]
    l_per, g_rows = _iou_loss_rows(diff, lane, count, PERSPECTIVE_E)
    dv = vb - va
    flat = dv == 0.0
    g_t = np.where(flat, 0.0, g_rows * (ub - ua) / np.where(flat, 1.0, dv))
    size = n_lanes * m
    w_u = np.bincount(a, g_rows * (1.0 - t), size) + np.bincount(a + 1, g_rows * t, size)
    w_v = np.bincount(a, g_t * (t - 1.0), size) + np.bincount(a + 1, -g_t * t, size)
    grad_per = _contract(proj, dg - 6, w_u.reshape(n_lanes, m), w_v.reshape(n_lanes, m))
    lo, hi = targets.rows.min(), targets.rows.max()
    d_ends = np.clip(v[:, [0, -1]], lo, hi) - np.clip(targets.v_ends, lo, hi)
    l_v = np.abs(d_ends[:, 0]) + np.abs(d_ends[:, 1])
    w_end = np.zeros((n_lanes, m))
    inside = (lo <= v[:, [0, -1]]) & (v[:, [0, -1]] <= hi)
    w_end[:, [0, -1]] = np.where(inside, np.sign(d_ends), 0.0)
    grad_v = _contract(proj, dg - 6, np.zeros((n_lanes, m)), w_end)
    l_per[~overlap] = np.inf
    l_v[~overlap] = np.inf
    grad_per[~overlap] = 0.0
    grad_v[~overlap] = 0.0
    return l_per, l_v, grad_per, grad_v, overlap


def _kernel_stack(keypoints):
    """Lanes of every ground preset at their label starts, each preset with
    its own camera, some folding back in v; one of them at order 2 (a = 0);
    a lane whose near part lies at camera height, so its first samples sit
    on the grid row oy = 160, first crossed there by a flat segment (dv ==
    0); and a lane above
    the horizon that misses its target."""
    cfg = FitConfig(keypoints=keypoints)
    gts, cams, thetas = [], [], []
    for i, make in enumerate(datagen.SCENE_PRESETS.values()):
        camera = CameraIntrinsics(fx=1000.0 - 40 * i, fy=1000.0 + 30 * i, ox=400.0, oy=160.0 - i)
        frame = datagen.generate_frame(make(intrinsics=camera), seed=11)
        for lane2d, gt3 in zip(frame.lanes2d, frame.lanes3d):
            gts.append(resample_lane(lane2d, frame.image))
            cams.append(frame.intrinsics)
            thetas.append(lane_starts([by_depth(gt3)], cfg)[0])
    thetas[1][0] = 0.0
    k = CameraIntrinsics(fx=1000.0, fy=1000.0, ox=400.0, oy=160.0)
    image = ImageSpec(width=800, height=320)
    heights = np.where(np.arange(keypoints) <= keypoints // 2, 0.0, 1.5)
    gts.append(resample_lane(Lane2D(np.array([[600.0, 300.0], [600.0, 150.0]])), image))
    cams.append(k)
    thetas.append(lane_to_vector(make_lane(d=1.0, heights=heights, z_min=4.0, z_max=30.0, n=keypoints)))
    gts.append(gts[0])
    cams.append(cams[0])
    thetas.append(lane_to_vector(make_lane(d=1.0, heights=np.full(keypoints, -1.5), n=keypoints)))
    return np.stack(thetas), LaneTargets.stack(gts, cams)


@pytest.mark.parametrize("keypoints", [72, 2])
def test_perspective_batch_equals_its_dense_form(keypoints):
    theta, targets = _kernel_stack(keypoints)
    proj = _project(theta, targets.camera, losses.SAMPLE_COUNT)
    dense = _dense_project(theta, targets.camera, losses.SAMPLE_COUNT)
    for name in _Projection.__dataclass_fields__:
        assert np.array_equal(getattr(proj, name), getattr(dense, name)), name

    got = losses._perspective_batch(theta, targets)
    want = _dense_perspective_batch(theta, targets)
    for name, g, w in zip(("l_per", "l_v", "grad_per", "grad_v", "overlap"), got, want):
        assert np.array_equal(g, w), name
    # the stack holds what it claims: folds, flat crossings, order 2, a miss
    overlap = got[4]
    assert overlap[:-1].all() and not overlap[-1]
    folds = [(np.diff(v) > 0).any() and (np.diff(v) < 0).any() for v in proj.v[:-2]]
    assert any(folds) == (keypoints > 2)  # two keypoints make heights linear in z
    found, seg = first_segments_batch(proj.v, targets.rows)
    flat_lane = theta.shape[0] - 2
    cells = found[flat_lane] & targets.present[flat_lane]
    rows_v = proj.v[flat_lane]
    assert (rows_v[seg[flat_lane][cells]] == rows_v[seg[flat_lane][cells] + 1]).any()
    assert theta[1, 0] == 0.0 and np.isfinite(got[2][1]).all()
