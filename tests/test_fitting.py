import json

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from bevlane import datagen, fitting
from bevlane.assignment import resample_lane, resample_lanes, row_grid
from bevlane.camera import (
    CameraIntrinsics,
    ImageSpec,
    Lane2D,
    invert_to_ground,
    project_lane,
    project_points,
)
from bevlane.errors import (
    DegenerateInputError,
    DimensionMismatchError,
    GridMismatchError,
    NonFiniteError,
    RankDeficientError,
    ValidationError,
)
from bevlane.fitting import (
    FitConfig,
    fit_bev_polynomial,
    fit_heights_direct,
    fit_lane_2d,
    fit_lane_3d,
    fit_lanes,
    fit_perspective_baseline,
    ipm_init,
    label_init,
    lane_gap_points,
    reprojection_residuals,
)
from bevlane.geometry import (
    BevCurve,
    HeightProfile,
    Lane3D,
    lane_from_vector,
    lane_to_vector,
    sample_lane,
)
from bevlane.io_formats import read_scene_spec
from bevlane.losses import LaneTargets, lane_losses
from bevlane.metrics import cd_error_per_pair
from oracles import normal_equations_fit
from test_acceptance import MIXED_SPEC


def bump_frame(seed=0):
    return datagen.generate_frame(datagen.bump_scene(seed=seed))


def test_fit_bev_polynomial_matches_normal_equations(rng):
    for order in (2, 3):
        for _ in range(10):
            m = rng.integers(order + 6, 40)
            z = np.sort(rng.uniform(1.0, 60.0, m))
            x = rng.normal(size=m)
            pts = np.column_stack([x, np.ones(m), z])
            got = fit_bev_polynomial(pts, order).coefficients
            want = normal_equations_fit(z, x, order)
            assert np.allclose(got, want, rtol=1e-9, atol=1e-9)


def test_fit_bev_polynomial_order4_matches_oracle_predictions(rng):
    # the quartic Vandermonde on z up to 60 is ill-conditioned enough that
    # coefficients from lstsq and normal equations differ in the 7th digit;
    # the fitted values are the well-posed quantity
    for _ in range(10):
        m = rng.integers(10, 40)
        z = np.sort(rng.uniform(1.0, 60.0, m))
        x = rng.normal(size=m)
        pts = np.column_stack([x, np.ones(m), z])
        fit = fit_bev_polynomial(pts, 4)
        want = normal_equations_fit(z, x, 4)
        pred_want = np.vander(z, 5, increasing=True) @ want
        assert np.abs(polyval(z, fit.coefficients) - pred_want).max() < 1e-7


def test_fit_bev_polynomial_exact_line():
    z = np.linspace(2.0, 40.0, 12)
    pts = np.column_stack([2.0 * z + 1.0, np.full(12, 1.5), z])
    fit = fit_bev_polynomial(pts, 3)
    assert np.allclose(fit.coefficients, [1.0, 2.0, 0.0, 0.0], atol=1e-9)
    assert fit.rms_residual < 1e-10
    curve = fit.to_curve()
    assert (curve.a, curve.b, curve.c, curve.d) == pytest.approx((0.0, 0.0, 2.0, 1.0), abs=1e-9)


def test_fit_bev_polynomial_rank_deficient():
    z = np.array([5.0, 5.0, 9.0, 9.0, 12.0])
    pts = np.column_stack([z, np.ones(5), z])
    with pytest.raises(RankDeficientError):
        fit_bev_polynomial(pts, 3)
    fit_bev_polynomial(pts, 2)  # three distinct depths determine a quadratic


def test_fit_bev_polynomial_validation():
    with pytest.raises(ValidationError):
        fit_bev_polynomial(np.zeros((5, 2)), 3)
    with pytest.raises(ValidationError):
        fit_bev_polynomial(np.zeros((5, 3)), 5)


def test_degree4_fit_cannot_collapse_to_curve(rng):
    z = np.sort(rng.uniform(1.0, 50.0, 30))
    x = 1e-6 * z**4 + 0.01 * z
    fit = fit_bev_polynomial(np.column_stack([x, np.ones(30), z]), 4)
    assert abs(fit.coefficients[4]) > 1e-9
    with pytest.raises(ValidationError):
        fit.to_curve()


def test_fit_heights_direct_linear():
    pts = np.array([[0.0, 1.0, 0.5], [0.0, 3.0, 10.5]])
    profile = fit_heights_direct(pts, keypoints=3)
    assert np.allclose(profile.heights, [1.0, 2.0, 3.0])
    assert (profile.z_min, profile.z_max) == (0.5, 10.5)


def test_fit_heights_direct_sine_fidelity():
    z = np.linspace(3.0, 60.0, 500)
    y = 1.5 + 0.3 * np.sin(2.0 * np.pi * z / 40.0)
    profile = fit_heights_direct(np.column_stack([np.zeros_like(z), y, z]), 72)
    err = np.abs(profile.y_at(z) - y)
    assert err.max() < 1e-3


def test_fit_heights_direct_degenerate():
    with pytest.raises(DegenerateInputError):
        fit_heights_direct(np.array([[0.0, 1.0, 5.0]]), 72)
    with pytest.raises(DegenerateInputError):
        fit_heights_direct(np.array([[0.0, 1.0, 5.0], [0.0, 2.0, 5.0]]), 72)


def test_perspective_baseline_exact_on_flat_straight(k):
    lane = Lane3D(BevCurve(0, 0, 0, 2.0), HeightProfile(np.full(2, 1.5), 4.0, 60.0))
    fit = fit_perspective_baseline(project_lane(k, lane, 50), order=3)
    # exact in exact arithmetic; the cubic Vandermonde over v ~ 500 leaves
    # lstsq rounding at the 1e-8 px level
    assert fit.max_residual < 1e-6


def test_perspective_baseline_cannot_follow_folds(k):
    frame = bump_frame()
    fit = fit_perspective_baseline(frame.lanes2d[0], order=3)
    assert fit.max_residual > 1.0


def test_perspective_baseline_rank_deficient():
    lane = Lane2D(np.array([[10.0, 50.0], [20.0, 50.0], [30.0, 50.0], [40.0, 50.0]]))
    with pytest.raises(RankDeficientError):
        fit_perspective_baseline(lane, order=3)


def test_least_squares_fits_refuse_overflowing_powers():
    # finite abscissae whose cubes overflow: refused before lstsq sees inf
    lane = Lane2D(np.column_stack([np.arange(5.0), 1e110 * np.arange(1.0, 6.0)]))
    with pytest.raises(DegenerateInputError, match="rows too large"):
        fit_perspective_baseline(lane, order=3)
    pts = np.column_stack([np.zeros(5), np.ones(5), 1e110 * np.arange(1.0, 6.0)])
    with pytest.raises(DegenerateInputError, match="z values too large"):
        fit_bev_polynomial(pts, 3)
    assert fit_bev_polynomial(pts, 2).rms_residual == 0.0  # squares still fit


def test_fit_lane_2d_recovers_offset(k, image):
    # the lane at 2 m between neighbours 3.5 m away: their column gaps
    # give each row's depth, and the lane's start sits on it
    scene = datagen.flat_scene(lateral_offsets=(-1.5, 2.0, 5.5), intrinsics=k, image=image)
    frame = datagen.generate_frame(scene)
    lanes, rows = list(frame.lanes2d), row_grid(image)
    points = lane_gap_points(lanes, resample_lanes(lanes, rows), rows, k, frame.camera_height)
    start = lane_from_vector(fitting.lane_starts(points)[1])
    report = fit_lane_2d(resample_lane(lanes[1], image), k, start)
    assert report.terms["l_per"] < 1e-3
    assert report.terms["l_reg"] < 1e-3
    assert report.lane.curve.d == pytest.approx(2.0, abs=5e-3)


def _mixed_block():
    """Two lanes from each ground preset, each preset with its own camera,
    with their IPM starts; plus a lane whose start projects above the
    horizon and so misses its target."""
    gts, cams, inits = [], [], []
    for i, make in enumerate(datagen.SCENE_PRESETS.values()):
        camera = CameraIntrinsics(fx=1000.0 - 40 * i, fy=1000.0 + 30 * i, ox=400.0, oy=160.0 - i)
        frame = datagen.generate_frame(make(intrinsics=camera), seed=11)
        for lane2d in frame.lanes2d[1:3]:
            gts.append(resample_lane(lane2d, frame.image))
            cams.append(frame.intrinsics)
            inits.append(ipm_init(lane2d, frame.intrinsics, frame.camera_height))
    wavy = -1.5 + 0.1 * np.sin(np.linspace(0.0, 6.0, 72))
    above = Lane3D(BevCurve(0, 0, 0, 1.0), HeightProfile(wavy, 3.0, 80.0))
    return gts + [gts[0]], cams + [cams[0]], inits + [above]


def _tapered_frame(taper, merge):
    """Four lanes on level ground whose lateral offsets grow by a factor
    1 + taper * z; with merge the rightmost one meets its neighbour at
    60 m and runs on it from there."""
    k, z = datagen.DEFAULT_INTRINSICS, np.linspace(3.0, 80.0, 200)
    x = [o * (1.0 + taper * z) for o in (-5.25, -1.75, 1.75, 5.25)]
    if merge:
        w = np.clip((z - 10.0) / 50.0, 0.0, 1.0)
        x[3] = (1.0 - w) * x[3] + w * x[2]
    lanes3d = [np.column_stack([xs, np.full(z.size, 1.5), z]) for xs in x]
    return lanes3d, [Lane2D(project_points(k, points)) for points in lanes3d]


@pytest.mark.parametrize("merge", [False, True])
def test_lane_gap_start_degrades_smoothly_with_taper(merge):
    # the lane-gap depth assumes one lane width at every depth: a width
    # that grows with depth bends it steadily, never in a jump, and rows
    # where the merging lanes meet (|du| -> 0) give no depth and no error
    k, image = datagen.DEFAULT_INTRINSICS, datagen.DEFAULT_IMAGE
    rows = row_grid(image)
    distances = []
    for taper in np.linspace(0.0, 0.01, 11):
        lanes3d, lanes2d = _tapered_frame(taper, merge)
        u = resample_lanes(lanes2d, rows)
        if merge:
            assert (np.abs(u[3] - u[2]) < fitting.MIN_GAP_PX).sum() >= 5
        points = lane_gap_points(lanes2d, u, rows, k, 1.5)
        targets = LaneTargets(
            rows, u, ~np.isnan(u), np.array([[lane.v[0], lane.v[-1]] for lane in lanes2d]),
            np.tile([k.fx, k.fy, k.ox, k.oy], (4, 1)),
        )
        fits = fit_lanes(targets, fitting.lane_starts(points))
        samples = [sample_lane(report.lane, 72) for report in fits]
        distances.append(cd_error_per_pair(samples, lanes3d, [(i, i) for i in range(4)]).mean())
    steps = np.diff(distances)
    assert distances[0] < 0.2
    assert (steps > 0.0).all() and steps.max() < 1.5 * steps.mean()
    assert 3.0 < distances[-1] < 5.0


@pytest.mark.parametrize("order", [3, 2])
def test_fit_lanes_2d_block_equals_each_lane_alone(order):
    gts, cams, inits = _mixed_block()
    cfg = FitConfig(order=order)
    starts = np.stack([lane_to_vector(i) for i in inits])
    block = fit_lanes(LaneTargets.stack(gts, cams), starts, cfg)
    for gt, cam, init, got in zip(gts, cams, inits, block):
        alone = fit_lane_2d(gt, cam, init, cfg)
        assert np.array_equal(lane_to_vector(got.lane), lane_to_vector(alone.lane))
        assert (got.iterations, got.converged, got.terms) == (
            alone.iterations, alone.converged, alone.terms
        )
    # every lane is returned at its start (order 2 zeroes its cubic), and
    # the missing lane scores +inf
    for init, got in zip(inits, block):
        want = lane_to_vector(init)
        want[0] = 0.0 if order == 2 else want[0]
        assert np.array_equal(lane_to_vector(got.lane), want)
        assert (got.iterations, got.converged) == (0, False)
    assert block[-1].terms == {"total": float("inf")}
    assert all(np.isfinite(r.terms["total"]) for r in block[:-1])


def test_fit_lanes_2d_is_the_same_in_any_window(monkeypatch):
    # at windows 1 and 3 the lanes are scored over several blocks, and the
    # last one misses its target
    gts, cams, inits = _mixed_block()
    alone = [fit_lane_2d(gt, cam, init) for gt, cam, init in zip(gts, cams, inits)]
    for window in (1, 3, 64, len(gts) + 1):
        monkeypatch.setattr(fitting, "ACTIVE_LANES", window)
        starts = np.stack([lane_to_vector(i) for i in inits])
        got_lanes = fit_lanes(LaneTargets.stack(gts, cams), starts)
        for got, want in zip(got_lanes, alone, strict=True):
            assert np.array_equal(lane_to_vector(got.lane), lane_to_vector(want.lane))
            assert (got.iterations, got.terms) == (want.iterations, want.terms)


def test_fit_lanes_nan_names_the_lane(monkeypatch):
    # with a window of 3, lane 5 is scored in the second block, where its
    # objective turns NaN
    gts, cams, inits = _mixed_block()
    victim = gts[5].u_values
    assert sum(np.array_equal(g.u_values, victim, equal_nan=True) for g in gts) == 1
    seen = []

    def nan_in_lane_5(theta, targets):
        loss, grad, terms, overlap = lane_losses(theta, targets)
        for i, u in enumerate(targets.u_values):
            if np.array_equal(u, victim, equal_nan=True):
                seen.append(theta.shape[0])
                loss[i] = np.nan
        return loss, grad, terms, overlap

    monkeypatch.setattr(fitting, "ACTIVE_LANES", 3)
    monkeypatch.setattr(fitting, "lane_losses", nan_in_lane_5)
    with pytest.raises(NonFiniteError, match="non-finite at the lane's start$") as info:
        fit_lanes(LaneTargets.stack(gts, cams), np.stack([lane_to_vector(i) for i in inits]))
    assert info.value.lane == 5
    assert seen == [3]


def test_fit_lanes_2d_shuffled_block_gives_the_same_lanes():
    gts, cams, inits = _mixed_block()
    order = np.random.default_rng(3).permutation(len(gts))
    starts = np.stack([lane_to_vector(i) for i in inits])
    block = fit_lanes(LaneTargets.stack(gts, cams), starts)
    shuffled = fit_lanes(
        LaneTargets.stack([gts[i] for i in order], [cams[i] for i in order]), starts[order]
    )
    for j, i in enumerate(order):
        assert np.array_equal(lane_to_vector(shuffled[j].lane), lane_to_vector(block[i].lane))
        assert shuffled[j].terms == block[i].terms


def _labelled_block():
    """Two lanes from each ground preset, each preset with its own camera,
    with their 3D labels in decreasing z and their least-squares starts;
    plus a lane whose start projects above the horizon."""
    gts, cams, inits = _mixed_block()
    labels = []
    for i, make in enumerate(datagen.SCENE_PRESETS.values()):
        camera = CameraIntrinsics(fx=1000.0 - 40 * i, fy=1000.0 + 30 * i, ox=400.0, oy=160.0 - i)
        frame = datagen.generate_frame(make(intrinsics=camera), seed=11)
        labels.extend(np.asarray(gt3)[::-1] for gt3 in frame.lanes3d[1:3])
    starts = [label_init(gt3) for gt3 in labels]
    return gts, cams, starts + inits[-1:], labels + labels[:1]


def test_fit_lanes_with_labels_block_equals_each_lane_alone():
    gts, cams, starts, labels = _labelled_block()
    targets = LaneTargets.stack(gts, cams, labels)
    block = fit_lanes(targets, np.stack([lane_to_vector(s) for s in starts]))
    for gt, cam, gt3, got in zip(gts, cams, labels, block[:-1]):
        alone = fit_lane_3d(gt3, gt, cam)
        assert np.array_equal(lane_to_vector(got.lane), lane_to_vector(alone.lane))
        assert (got.iterations, got.converged, got.terms) == (
            alone.iterations, alone.converged, alone.terms
        )
        assert set(got.terms) == {"l_per", "l_v", "l_bev", "l_h", "l_z", "total"}
        assert np.isfinite(got.terms["total"])
    # labelled starts are scored, never moved
    for start, got in zip(starts, block):
        assert got.iterations == 0
        assert np.array_equal(lane_to_vector(got.lane), lane_to_vector(start))
    assert block[-1].terms == {"total": float("inf")}

    order = np.random.default_rng(3).permutation(len(gts))
    shuffled = fit_lanes(
        LaneTargets.stack(
            [gts[i] for i in order], [cams[i] for i in order], [labels[i] for i in order]
        ),
        np.stack([lane_to_vector(starts[i]) for i in order]),
    )
    for j, i in enumerate(order):
        assert np.array_equal(lane_to_vector(shuffled[j].lane), lane_to_vector(block[i].lane))
        assert shuffled[j].terms == block[i].terms


def test_fit_lanes_2d_checks_its_stack(k, image):
    gts, cams, lanes = _mixed_block()
    inits = np.stack([lane_to_vector(i) for i in lanes])
    assert fit_lanes(LaneTargets.stack([], []), []) == []
    with pytest.raises(DimensionMismatchError):
        fit_lanes(LaneTargets.stack(gts, cams), inits[:-1])
    with pytest.raises(DimensionMismatchError):
        fit_lanes(LaneTargets.stack(gts, cams[:-1]), inits)
    with pytest.raises(DimensionMismatchError):
        fit_lanes(LaneTargets.stack(gts[:2], cams[:2]), inits[:2, :7])  # one height keypoint each
    other_grid = resample_lane(project_lane(k, lanes[0], 72), ImageSpec(800, 300))
    with pytest.raises(GridMismatchError):
        fit_lanes(LaneTargets.stack([gts[0], other_grid], [k, k]), inits[:2])
    labels = _labelled_block()[3]
    with pytest.raises(DimensionMismatchError):
        fit_lanes(LaneTargets.stack(gts, cams, labels[:-1]), inits)
    with pytest.raises(DimensionMismatchError):
        fit_lanes(LaneTargets.stack(gts[:1], cams[:1], [labels[0][:, :2]]), inits[:1])


def test_fit_config_rejects_bad_keypoints():
    FitConfig(keypoints=fitting.MAX_KEYPOINTS)
    with pytest.raises(ValidationError):
        FitConfig(keypoints=fitting.MAX_KEYPOINTS + 1)


def test_fit_lane_2d_rejects_degree4(k, image):
    gt_lane = Lane3D(BevCurve(0, 0, 0, 2.0), HeightProfile(np.full(72, 1.5), 4.0, 60.0))
    gt = resample_lane(project_lane(k, gt_lane, 72), image)
    with pytest.raises(ValidationError):
        fit_lane_2d(gt, k, gt_lane, FitConfig(order=4))
    # neither start fits a quartic lane
    frame = datagen.generate_frame(datagen.flat_scene())
    with pytest.raises(ValidationError, match="degree 4"):
        label_init(frame.lanes3d[1], FitConfig(order=4))
    with pytest.raises(ValidationError, match="degree 4"):
        ipm_init(frame.lanes2d[1], frame.intrinsics, 1.5, FitConfig(order=4))


def test_fit_lane_3d_bump_scene(k, image):
    frame = bump_frame()
    gt3 = frame.lanes3d[1]
    gt2d = resample_lane(frame.lanes2d[1], frame.image)
    report = fit_lane_3d(gt3, gt2d, frame.intrinsics)
    residuals = reprojection_residuals(report.lane, frame.intrinsics, gt3)
    # floor ~1.1 px: chords between height keypoints sag below the bump
    # at the nearest (off-image) depths
    assert residuals.max() < 1.5
    assert abs(report.lane.curve.a) < 1e-3
    assert abs(report.lane.curve.b) < 1e-3


def test_fit_lane_3d_at_optimum_stays_put(k, monkeypatch):
    frame = datagen.generate_frame(datagen.flat_scene())
    gt3 = frame.lanes3d[0]
    gt2d = resample_lane(frame.lanes2d[0], frame.image)
    poly = fit_bev_polynomial(gt3, 3)
    profile = fit_heights_direct(gt3, 72)
    least_squares = Lane3D(poly.to_curve(), profile)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return lane_losses(*args, **kwargs)

    monkeypatch.setattr(fitting, "lane_losses", counted)
    report = fit_lane_3d(gt3, gt2d, frame.intrinsics)
    assert len(calls) == 1
    assert np.array_equal(lane_to_vector(report.lane), lane_to_vector(least_squares))
    assert (report.iterations, report.converged) == (0, False)
    assert report.terms["total"] < 1e-9


def test_fit_lane_3d_short_label_pads_span_without_stretching(k, image):
    # 0.3 m of label on a 2 m/m grade: the span is padded to MIN_SPAN, and
    # the heights must stay where the label put them, not be stretched
    # over the padded span
    z = np.array([20.0, 20.1, 20.2, 20.3])
    gt3 = np.column_stack([np.full(4, 1.75), 1.5 - 2.0 * (z - 20.0), z])
    gt2d = resample_lane(Lane2D(project_points(k, gt3)), image)
    lane = fit_lane_3d(gt3, gt2d, k).lane
    assert (lane.z_min, lane.z_max) == (20.0, 20.0 + fitting.MIN_SPAN)
    assert np.abs(lane.profile.y_at(z) - gt3[:, 1]).max() < 0.01
    assert reprojection_residuals(lane, k, gt3).max() < 0.5


def test_fit_lane_3d_non_finite_loss_raises(monkeypatch):
    frame = datagen.generate_frame(datagen.flat_scene())
    gt2d = resample_lane(frame.lanes2d[0], frame.image)

    def nan_loss(theta, *args):
        n = theta.shape[0]
        return np.full(n, np.nan), np.zeros(theta.shape), np.zeros((n, 5)), np.ones(n, dtype=bool)

    monkeypatch.setattr(fitting, "lane_losses", nan_loss)
    with pytest.raises(NonFiniteError, match="at the lane's start"):
        fit_lane_3d(frame.lanes3d[0], gt2d, frame.intrinsics)


def test_fit_lane_3d_noisy_labels_ignore_descent_knobs(k, rng):
    frame = bump_frame(seed=5)
    gt3 = np.array(frame.lanes3d[2])
    noisy = gt3.copy()
    noisy[:, 0] += rng.normal(0.0, 0.05, gt3.shape[0])
    noisy[:, 1] += rng.normal(0.0, 0.05, gt3.shape[0])
    gt2d = resample_lane(frame.lanes2d[2], frame.image)
    # the fit is the noisy labels' least-squares start, scored once
    refined = fit_lane_3d(noisy, gt2d, frame.intrinsics)
    assert np.array_equal(lane_to_vector(refined.lane), lane_to_vector(label_init(noisy)))
    assert refined.iterations == 0
    z = gt3[:, 2]
    # the lane is straight laterally; require the fit not to invent curvature
    assert np.abs(refined.lane.curve.x_at(z) - gt3[:, 0]).max() < 0.25


def test_decoupled_beats_baseline_tenfold(k):
    frame = bump_frame(seed=2)
    worst_ratio = np.inf
    for gt3, lane2d in zip(frame.lanes3d, frame.lanes2d):
        gt2d = resample_lane(lane2d, frame.image)
        report = fit_lane_3d(gt3, gt2d, frame.intrinsics)
        ours = reprojection_residuals(report.lane, frame.intrinsics, gt3).max()
        baseline = fit_perspective_baseline(lane2d, order=3).max_residual
        worst_ratio = min(worst_ratio, baseline / max(ours, 1e-12))
    assert worst_ratio >= 10.0


def test_fit_lane_3d_order2_freezes_cubic(k):
    frame = datagen.generate_frame(datagen.slope_scene())
    gt3 = frame.lanes3d[0]
    gt2d = resample_lane(frame.lanes2d[0], frame.image)
    report = fit_lane_3d(gt3, gt2d, frame.intrinsics, FitConfig(order=2))
    assert report.lane.curve.a == 0.0


def test_fit_lane_3d_rejects_bezier():
    # the curve is the power cubic; no other order name is accepted
    with pytest.raises(ValidationError, match="order"):
        FitConfig(order="bezier")


def test_fit_determinism(k):
    frame = bump_frame(seed=9)
    gt3 = frame.lanes3d[0]
    gt2d = resample_lane(frame.lanes2d[0], frame.image)
    a = fit_lane_3d(gt3, gt2d, frame.intrinsics)
    b = fit_lane_3d(gt3, gt2d, frame.intrinsics)
    assert np.array_equal(lane_to_vector(a.lane), lane_to_vector(b.lane))
    assert a.terms == b.terms


def test_ipm_init_exact_on_flat_ground(k):
    frame = datagen.generate_frame(datagen.flat_scene())
    gt3 = frame.lanes3d[1]
    init = ipm_init(frame.lanes2d[1], frame.intrinsics, frame.camera_height)
    z = np.linspace(init.z_min, init.z_max, 50)
    assert np.abs(init.curve.x_at(z) - gt3[0, 0]).max() < 1e-6
    assert np.abs(np.asarray(init.profile.heights) - 1.5).max() < 1e-9
    assert init.z_min == pytest.approx(3.0, abs=1e-6)
    assert init.z_max == pytest.approx(80.0, abs=1e-6)


def test_ipm_init_needs_points_below_horizon(k):
    above = Lane2D(np.array([[400.0, 100.0], [410.0, 120.0], [420.0, 140.0]]))
    with pytest.raises(DegenerateInputError):
        ipm_init(above, k, 1.5)


def test_reprojection_residuals_zero_for_exact_lane(k):
    lane = Lane3D(BevCurve(0, 0, 0.01, 2.0), HeightProfile(np.full(72, 1.5), 3.0, 70.0))
    gt3 = np.column_stack([
        lane.curve.x_at(np.linspace(3.0, 70.0, 80)),
        np.full(80, 1.5),
        np.linspace(3.0, 70.0, 80),
    ])
    assert reprojection_residuals(lane, k, gt3).max() < 1e-9


def test_order3_never_loses_to_order2(rng):
    # nested least squares: the cubic residual cannot exceed the quadratic
    for _ in range(10):
        z = np.sort(rng.uniform(2.0, 70.0, 50))
        x = 1e-5 * z**3 + 0.02 * z + rng.normal(0.0, 0.05, 50)
        pts = np.column_stack([x, np.ones(50), z])
        r3 = fit_bev_polynomial(pts, 3).rms_residual
        r2 = fit_bev_polynomial(pts, 2).rms_residual
        assert r3 <= r2 + 1e-12


def _per_lane_start(pts, cfg):
    """The start of one lane as fit_lane_3d and ipm_init built it lane by
    lane: fit_bev_polynomial, then fit_heights_direct over the span
    clamped by Z_FLOOR and MIN_SPAN, then lane_to_vector."""
    poly = fit_bev_polynomial(pts, cfg.order)
    z_min = max(float(pts[:, 2].min()), fitting.Z_FLOOR)
    z_max = max(float(pts[:, 2].max()), z_min + fitting.MIN_SPAN)
    profile = fit_heights_direct(pts, cfg.keypoints, z_min, z_max)
    return lane_to_vector(Lane3D(poly.to_curve(), profile))


def _mixed_spec_frames(tmp_path):
    """Two frames of every preset of the acceptance suite's mixed-ground recipe."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(MIXED_SPEC))
    scenes, jitter = read_scene_spec(str(path))
    frames = datagen.generate_dataset(scenes, frames_per_spec=2, jitter=jitter, seed=1)
    assert len(frames) == 8
    return frames


@pytest.mark.parametrize("order", [3, 2])
def test_lane_starts_equal_the_per_lane_path_on_mixed_ground(tmp_path, order):
    cfg = FitConfig(order=order)
    labelled, ground = [], []
    for frame in _mixed_spec_frames(tmp_path):
        labelled += [gt3[np.argsort(gt3[:, 2], kind="stable")] for gt3 in frame.lanes3d]
        for lane in frame.lanes2d:
            below = lane.points[lane.points[:, 1] > frame.intrinsics.oy + 1e-9]
            k, height = frame.intrinsics, frame.camera_height
            ground.append(invert_to_ground(k, below[:, 0], below[:, 1], height))
        stacked = fitting.ipm_points(list(frame.lanes2d), frame.intrinsics, frame.camera_height)
        for got, want in zip(stacked, ground[-len(stacked) :], strict=True):
            assert np.array_equal(got, want)
    # the back-projected lanes come in image order, not in order of z
    assert any(np.any(np.diff(pts[:, 2]) < 0) for pts in ground)
    want = np.stack([_per_lane_start(pts, cfg) for pts in labelled])
    assert np.array_equal(fitting.lane_starts(labelled, cfg), want)
    want = np.stack([_per_lane_start(pts, cfg) for pts in ground])
    assert np.array_equal(fitting.lane_starts(ground, cfg), want)


@pytest.mark.parametrize("order", [3, 2])
def test_lane_starts_equal_the_per_lane_path_at_the_edges(order):
    cfg = FitConfig(order=order, keypoints=5)
    rng = np.random.default_rng(7)

    def lane(z):
        z = np.asarray(z, dtype=float)
        return np.column_stack([rng.normal(1.0, 0.3, z.size), rng.normal(1.5, 0.1, z.size), z])

    points = [
        lane([5.0, 5.0, 9.0, 9.0, 9.0, 14.0, 20.0, 20.0]),  # duplicate depths
        # exactly order + 1 distinct depths, the first at the last one above
        lane(np.arange(order + 1.0) + 20.0),
        lane([-2.0, -1.0, 0.05, 0.07, 3.0]),  # z_min below Z_FLOOR
        lane([0.02, 0.04, 0.06, 0.08]),  # the whole lane below Z_FLOOR
        lane([20.0, 20.1, 20.2, 20.3]),  # a span shorter than MIN_SPAN
        lane([30.0, 12.0, 55.0, 4.0, 18.0, 12.0, 41.0]),  # unsorted, with a tie
    ]
    want = np.stack([_per_lane_start(pts, cfg) for pts in points])
    got = fitting.lane_starts(points, cfg)
    assert np.array_equal(got, want)
    assert got[2, -2] == fitting.Z_FLOOR and got[4, -1] == 20.0 + fitting.MIN_SPAN
    if order == 2:
        assert np.all(got[:, 0] == 0.0)


def test_lane_starts_name_the_first_failing_lane():
    cfg = FitConfig()
    good = np.column_stack([np.ones(6), np.full(6, 1.5), np.arange(6.0) + 3.0])
    few = good[:4].copy()
    few[3, 2] = few[2, 2]  # order distinct depths: one short
    with pytest.raises(RankDeficientError, match="3 distinct z values cannot") as info:
        fitting.lane_starts([good, good, few, few], cfg)
    assert info.value.lane == 2
    with pytest.raises(RankDeficientError):
        fit_bev_polynomial(few, cfg.order)
    far = good * [1.0, 1.0, 1e110]
    with pytest.raises(DegenerateInputError, match="too large") as info:
        fitting.lane_starts([good, far], cfg)
    assert info.value.lane == 1
    huge = good * [1e308, 1.0, 1.0]
    huge[::2, 0] *= -1.0
    with pytest.raises(ValidationError, match="must be finite") as info:
        fitting.lane_starts([good, good, huge], cfg)
    assert info.value.lane == 2
    with pytest.raises(ValidationError, match="degree 4"):
        fitting.lane_starts([good], FitConfig(order=4))
    assert fitting.lane_starts([], cfg).shape == (0, cfg.keypoints + 6)


def test_ipm_points_name_the_lane_without_points_below_the_horizon(k):
    near = Lane2D(np.array([[400.0, 300.0], [410.0, 250.0], [420.0, 200.0]]))
    above = Lane2D(np.array([[400.0, 100.0], [410.0, 120.0], [420.0, 170.0]]))
    with pytest.raises(DegenerateInputError, match="below the horizon") as info:
        fitting.ipm_points([near, near, above], k, 1.5)
    assert info.value.lane == 2
    assert fitting.ipm_points([], k, 1.5) == []


def test_lane_gap_points_fall_back_to_flat_ground_within_z_cap(image):
    # a lone lane on a climbing road has no neighbour to measure a gap to:
    # it takes its flat-ground points, whose depths near the horizon run
    # past Z_CAP and are dropped
    frame = datagen.generate_frame(datagen.slope_scene(grade=0.03, lateral_offsets=(1.75,)))
    k, lanes, rows = frame.intrinsics, list(frame.lanes2d), row_grid(image)
    u = resample_lanes(lanes, rows)
    (got,) = lane_gap_points(lanes, u, rows, k, frame.camera_height)
    (flat,) = fitting.ipm_points(lanes, k, frame.camera_height)
    assert flat[:, 2].max() > fitting.Z_CAP
    assert np.array_equal(got, flat[flat[:, 2] <= fitting.Z_CAP])
    assert lane_gap_points([], np.zeros((0, rows.size)), rows, k, 1.5) == []


def test_lane_gap_points_name_the_fallback_lane_without_points_below_the_horizon(k, image):
    # lanes 0 and 1 lie 1.5 m either side of the camera on level ground
    # 1.5 m below it; lane 2 lies above the horizon with three rows of its
    # own, too few for a depth, and nothing to back-project
    rows = row_grid(image)
    lanes = [
        Lane2D(np.array([[260.0, 300.0], [380.0, 180.0]])),
        Lane2D(np.array([[540.0, 300.0], [420.0, 180.0]])),
        Lane2D(np.array([[400.0, 100.0], [410.0, 102.0]])),
    ]
    u = resample_lanes(lanes, rows)
    with pytest.raises(DegenerateInputError, match="below the horizon") as info:
        lane_gap_points(lanes, u, rows, k, 1.5)
    assert info.value.lane == 2
    # on level ground the gaps give each shared row, nearest first, the
    # depth of the plane at camera height
    near_first = np.arange(300, 179, -1)
    for u_lane, got in zip(u, lane_gap_points(lanes[:2], u[:2], rows, k, 1.5)):
        want = invert_to_ground(k, u_lane[near_first], rows[near_first], 1.5)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
