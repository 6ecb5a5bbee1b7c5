import numpy as np
import pytest

from bevlane import datagen, fitting
from bevlane.assignment import resample_lane
from bevlane.camera import CameraIntrinsics, ImageSpec, Lane2D, project_lane, project_points
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
    bernstein_to_power,
    fit_bev_polynomial,
    fit_heights_direct,
    fit_lane_2d,
    fit_lane_3d,
    fit_lanes,
    fit_perspective_baseline,
    ipm_init,
    label_init,
    power_to_bernstein,
    reprojection_residuals,
)
from bevlane.geometry import BevCurve, HeightProfile, Lane3D, lane_to_vector
from bevlane.losses import lane_losses
from oracles import normal_equations_fit


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
        assert np.abs(fit.x_at(z) - pred_want).max() < 1e-7


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


def test_bernstein_power_round_trip(rng):
    for _ in range(20):
        coeffs = rng.normal(size=4) * np.array([1.0, 0.1, 1e-3, 1e-5])
        z0 = rng.uniform(1.0, 10.0)
        z1 = z0 + rng.uniform(5.0, 60.0)
        control = power_to_bernstein(coeffs, z0, z1)
        back = bernstein_to_power(control, z0, z1)
        assert np.allclose(back, coeffs, rtol=1e-9, atol=1e-12)
        # control values are the curve at the span ends
        poly = np.polynomial.Polynomial(coeffs)
        assert control[0] == pytest.approx(poly(z0), rel=1e-9)
        assert control[3] == pytest.approx(poly(z1), rel=1e-9)


def test_bezier_fit_reproduces_cubic():
    z = np.linspace(3.0, 55.0, 40)
    x = 1e-5 * z**3 - 2e-3 * z**2 + 0.04 * z - 1.0
    pts = np.column_stack([x, np.ones(40), z])
    fit = fit_bev_polynomial(pts, "bezier")
    assert fit.basis == "bernstein"
    assert fit.rms_residual < 1e-9
    assert np.allclose(fit.coefficients, [-1.0, 0.04, -2e-3, 1e-5], rtol=1e-7, atol=1e-10)


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
    lane = Lane3D(BevCurve(0, 0, 0, 2.0), HeightProfile(np.full(2, 1.5), 4.0, 60.0), 1.0)
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


def test_fit_lane_2d_recovers_offset(k, image):
    gt_lane = Lane3D(BevCurve(0, 0, 0, 2.0), HeightProfile(np.full(72, 1.5), 4.0, 60.0), 1.0)
    gt = resample_lane(project_lane(k, gt_lane, 72), image)
    init = Lane3D(BevCurve(0, 0, 0, 2.5), HeightProfile(np.full(72, 1.5), 4.0, 60.0), 1.0)
    # fixed-step momentum rings around the loss crease with amplitude
    # step * slope / 1.9, so settling under 1e-3 needs a small step
    cfg = FitConfig(step_size=5e-5, max_iters=4000, plateau_patience=200)
    report = fit_lane_2d(gt, k, init, cfg)
    assert report.terms["l_per"] < 1e-3
    assert report.terms["l_reg"] < 1e-3
    assert report.lane.curve.d == pytest.approx(2.0, abs=5e-3)


def test_fit_lane_2d_bezier_basis_descends(k, image):
    gt_lane = Lane3D(BevCurve(0, 0, 0.01, 1.5), HeightProfile(np.full(72, 1.5), 4.0, 60.0), 1.0)
    gt = resample_lane(project_lane(k, gt_lane, 72), image)
    init = Lane3D(BevCurve(0, 0, 0.01, 1.9), HeightProfile(np.full(72, 1.5), 4.0, 60.0), 1.0)
    cfg = FitConfig(order="bezier", max_iters=200, plateau_patience=30)
    report = fit_lane_2d(gt, k, init, cfg)
    assert report.terms["l_per"] < 0.05
    assert np.isfinite(lane_to_vector(report.lane)).all()


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
            inits.append(ipm_init(lane2d, frame.intrinsics))
    wavy = -1.5 + 0.1 * np.sin(np.linspace(0.0, 6.0, 72))
    above = Lane3D(BevCurve(0, 0, 0, 1.0), HeightProfile(wavy, 3.0, 80.0), 1.0)
    return gts + [gts[0]], cams + [cams[0]], inits + [above]


@pytest.mark.parametrize("order", [3, 2, "bezier"])
def test_fit_lanes_2d_block_equals_each_lane_alone(order):
    gts, cams, inits = _mixed_block()
    cfg = FitConfig(order=order)
    block = fit_lanes(gts, cams, inits, cfg)
    for gt, cam, init, got in zip(gts, cams, inits, block):
        alone = fit_lane_2d(gt, cam, init, cfg)
        assert np.array_equal(lane_to_vector(got.lane), lane_to_vector(alone.lane))
        assert (got.iterations, got.converged, got.terms) == (
            alone.iterations, alone.converged, alone.terms
        )
    # the missing lane scores +inf, gets no gradient (not even from the
    # height spread), so never moves, and stops on the plateau
    assert block[-1].terms == {"total": float("inf")}
    assert block[-1].iterations == cfg.plateau_patience
    assert np.array_equal(block[-1].lane.profile.heights, inits[-1].profile.heights)
    assert all(np.isfinite(r.terms["total"]) for r in block[:-1])
    assert any(r.iterations > 0 for r in block[:-1])


def test_fit_lanes_2d_shuffled_block_gives_the_same_lanes():
    gts, cams, inits = _mixed_block()
    order = np.random.default_rng(3).permutation(len(gts))
    block = fit_lanes(gts, cams, inits)
    shuffled = fit_lanes(*([items[i] for i in order] for items in (gts, cams, inits)))
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
    cfg = FitConfig(max_iters=80, plateau_patience=20)
    block = fit_lanes(gts, cams, starts, cfg, labels3d=labels)
    for gt, cam, gt3, got in zip(gts, cams, labels, block[:-1]):
        alone = fit_lane_3d(gt3, gt, cam, cfg)
        assert np.array_equal(lane_to_vector(got.lane), lane_to_vector(alone.lane))
        assert (got.iterations, got.converged, got.terms) == (
            alone.iterations, alone.converged, alone.terms
        )
        assert set(got.terms) == {"l_per", "l_v", "l_bev", "l_h", "l_z", "total"}
        assert np.isfinite(got.terms["total"])
    # labelled starts are scored, never moved, whatever the descent knobs
    for start, got in zip(starts, block):
        assert got.iterations == 0
        assert np.array_equal(lane_to_vector(got.lane), lane_to_vector(start))
    assert block[-1].terms == {"total": float("inf")}

    order = np.random.default_rng(3).permutation(len(gts))
    shuffled = fit_lanes(
        *([items[i] for i in order] for items in (gts, cams, starts)),
        labels3d=[labels[i] for i in order],
    )
    for j, i in enumerate(order):
        assert np.array_equal(lane_to_vector(shuffled[j].lane), lane_to_vector(block[i].lane))
        assert shuffled[j].terms == block[i].terms


def test_fit_lanes_2d_checks_its_stack(k, image):
    gts, cams, inits = _mixed_block()
    assert fit_lanes([], [], []) == []
    with pytest.raises(DimensionMismatchError):
        fit_lanes(gts, cams, inits[:-1])
    with pytest.raises(DimensionMismatchError):
        fit_lanes(gts, cams[:-1], inits)
    short = Lane3D(inits[0].curve, HeightProfile(np.full(10, 1.5), 3.0, 80.0), 1.0)
    with pytest.raises(DimensionMismatchError):
        fit_lanes(gts[:2], cams[:2], [inits[0], short])
    other_grid = resample_lane(project_lane(k, inits[0], 72), ImageSpec(800, 300))
    with pytest.raises(GridMismatchError):
        fit_lanes([gts[0], other_grid], [k, k], inits[:2])
    labels = _labelled_block()[3]
    with pytest.raises(DimensionMismatchError):
        fit_lanes(gts, cams, inits, labels3d=labels[:-1])
    with pytest.raises(DimensionMismatchError):
        fit_lanes(gts[:1], cams[:1], inits[:1], labels3d=[labels[0][:, :2]])
    with pytest.raises(ValidationError, match="power"):
        fit_lanes(gts, cams, inits, FitConfig(order="bezier"), labels3d=labels)


def test_fit_config_rejects_bad_patience_and_keypoints():
    for bad in (0, -5):
        with pytest.raises(ValidationError):
            FitConfig(plateau_patience=bad)
    FitConfig(plateau_patience=1, keypoints=fitting.MAX_KEYPOINTS)
    with pytest.raises(ValidationError):
        FitConfig(keypoints=fitting.MAX_KEYPOINTS + 1)


@pytest.mark.parametrize("step", [float("nan"), float("inf"), 0.0, -1e-2])
def test_fit_config_rejects_bad_step_size(step):
    with pytest.raises(ValidationError, match="step_size"):
        FitConfig(step_size=step)


def test_fit_lane_2d_rejects_degree4(k, image):
    gt_lane = Lane3D(BevCurve(0, 0, 0, 2.0), HeightProfile(np.full(72, 1.5), 4.0, 60.0), 1.0)
    gt = resample_lane(project_lane(k, gt_lane, 72), image)
    with pytest.raises(ValidationError):
        fit_lane_2d(gt, k, gt_lane, FitConfig(order=4))


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
    least_squares = Lane3D(poly.to_curve(), profile, 1.0)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return lane_losses(*args, **kwargs)

    monkeypatch.setattr(fitting, "lane_losses", counted)
    # descent knobs do not reach the 3D fit
    for cfg in (FitConfig(), FitConfig(max_iters=0), FitConfig(step_size=1.0, plateau_patience=1)):
        calls.clear()
        report = fit_lane_3d(gt3, gt2d, frame.intrinsics, cfg)
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
    with pytest.raises(NonFiniteError, match="iteration 0"):
        fit_lane_3d(frame.lanes3d[0], gt2d, frame.intrinsics)


def test_fit_lane_3d_noisy_labels_ignore_descent_knobs(k, rng):
    frame = bump_frame(seed=5)
    gt3 = np.array(frame.lanes3d[2])
    noisy = gt3.copy()
    noisy[:, 0] += rng.normal(0.0, 0.05, gt3.shape[0])
    noisy[:, 1] += rng.normal(0.0, 0.05, gt3.shape[0])
    gt2d = resample_lane(frame.lanes2d[2], frame.image)
    at_init = fit_lane_3d(noisy, gt2d, frame.intrinsics, FitConfig(max_iters=0))
    refined = fit_lane_3d(noisy, gt2d, frame.intrinsics, FitConfig(max_iters=80, plateau_patience=20))
    assert np.array_equal(lane_to_vector(refined.lane), lane_to_vector(at_init.lane))
    assert refined.terms == at_init.terms
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
    report = fit_lane_3d(gt3, gt2d, frame.intrinsics, FitConfig(order=2, max_iters=20))
    assert report.lane.curve.a == 0.0


def test_fit_lane_3d_rejects_bezier(k, image):
    frame = datagen.generate_frame(datagen.flat_scene())
    gt2d = resample_lane(frame.lanes2d[0], frame.image)
    with pytest.raises(ValidationError):
        fit_lane_3d(frame.lanes3d[0], gt2d, frame.intrinsics, FitConfig(order="bezier"))


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
    init = ipm_init(frame.lanes2d[1], frame.intrinsics)
    z = np.linspace(init.z_min, init.z_max, 50)
    assert np.abs(init.curve.x_at(z) - gt3[0, 0]).max() < 1e-6
    assert np.abs(np.asarray(init.profile.heights) - 1.5).max() < 1e-9
    assert init.z_min == pytest.approx(3.0, abs=1e-6)
    assert init.z_max == pytest.approx(80.0, abs=1e-6)


def test_ipm_init_needs_points_below_horizon(k):
    above = Lane2D(np.array([[400.0, 100.0], [410.0, 120.0], [420.0, 140.0]]))
    with pytest.raises(DegenerateInputError):
        ipm_init(above, k)


def test_reprojection_residuals_zero_for_exact_lane(k):
    lane = Lane3D(BevCurve(0, 0, 0.01, 2.0), HeightProfile(np.full(72, 1.5), 3.0, 70.0), 1.0)
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
