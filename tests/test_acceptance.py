"""Acceptance suite: one test per top-level claim the package makes.

Each test is an end-to-end check with pinned tolerances; `pytest -v`
shows one pass/fail line per criterion. A PASS line with the measured
numbers is printed for transparency when run with -s.
"""

import json
from time import perf_counter

import numpy as np

from bevlane.anchors import anchor_recall, build_descriptor, cluster_anchors
from bevlane.assignment import hungarian_assign, resample_lane
from bevlane.camera import ImageSpec, Lane2D
from bevlane.cli import main
from bevlane.datagen import (
    JitterSpec,
    bump_scene,
    flat_scene,
    generate_dataset,
    generate_frame,
)
from bevlane.fitting import (
    fit_bev_polynomial,
    fit_lane_3d,
    fit_perspective_baseline,
    reprojection_residuals,
)
from bevlane.geometry import BevCurve, sample_lane
from bevlane.io_formats import read_dataset, read_predictions, read_report
from bevlane.losses import (
    bev_iou_loss,
    endpoint_z_loss,
    height_loss,
    height_variance_reg,
    perspective_losses,
)
from gradcheck import (
    assert_grad_close,
    curve_scales,
    draw_perspective_pair,
    geo_scales,
    geo_to_lane,
    sample_geo,
)
from oracles import assign_brute_force, f1_counts_oracle, fd_gradient

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

FLAT_SPEC = {
    "scenes": [{"preset": "flat"}],
    "jitter": {"curve_delta": [0.0, 0.0005, 0.02, 0.5]},
}


def write_spec(tmp_path, obj):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(obj))
    return str(path)


def run(argv):
    code = main(argv)
    assert code == 0, f"command {argv} exited {code}"


def test_criterion_1_decoupling_beats_row_polynomial():
    """On the undulating-road scene a u(v) cubic folds while the
    BEV-curve-plus-heights model reprojects tightly: max residual ratio
    must be at least 10x per lane, with a near-straight recovered curve."""
    t0 = perf_counter()
    frame = generate_frame(bump_scene())
    ratios = []
    for gt3, lane2d in zip(frame.lanes3d, frame.lanes2d):
        gt2d = resample_lane(lane2d, frame.image)
        report = fit_lane_3d(gt3, gt2d, frame.intrinsics)
        ours = reprojection_residuals(report.lane, frame.intrinsics, gt3).max()
        baseline = fit_perspective_baseline(lane2d, order=3).max_residual
        assert abs(report.lane.curve.a) < 1e-3
        assert abs(report.lane.curve.b) < 1e-3
        ratios.append(baseline / max(ours, 1e-12))
    elapsed = perf_counter() - t0
    assert min(ratios) >= 10.0
    assert elapsed < 5.0
    print(
        f"criterion 1 PASS: residual ratio >= {min(ratios):.1f}x on 4 lanes "
        f"({elapsed:.2f}s)"
    )


def test_criterion_2_mixed_pipeline_round_trip(tmp_path):
    """generate 100 mixed-ground frames -> fit 3d -> eval must score
    F1 = 1.0 at every IoU threshold with curve distance under 1 mm."""
    t0 = perf_counter()
    spec = write_spec(tmp_path, MIXED_SPEC)
    dataset = str(tmp_path / "dataset.jsonl")
    preds = str(tmp_path / "preds.jsonl")
    report_path = str(tmp_path / "report.json")
    run(["generate", "--spec", spec, "--frames", "25", "--out", dataset])
    assert len(read_dataset(dataset)) == 100
    run(["fit", "--dataset", dataset, "--mode", "3d", "--out", preds])
    run(["eval", "--dataset", dataset, "--pred", preds, "--out", report_path])
    elapsed = perf_counter() - t0

    report = read_report(report_path)
    assert len(report["f1"]) == 10
    for key, counts in report["f1"].items():
        assert counts["f1"] == 1.0, f"F1@{key} = {counts['f1']}"
    assert report["mf1"] == 1.0
    assert report["cd_error"] < 1e-3
    assert elapsed < 60.0
    print(
        f"criterion 2 PASS: F1 1.0 at all 10 thresholds, "
        f"cd {report['cd_error']:.2e} m ({elapsed:.1f}s)"
    )


def test_criterion_3_2d_only_pipeline(tmp_path):
    """With only image-plane labels on level ground, fitting still nails
    the 2D loss per lane, keeps the height profile flat, and scores
    F1@0.50 >= 0.95 once reprojected."""
    t0 = perf_counter()
    spec = write_spec(tmp_path, FLAT_SPEC)
    dataset = str(tmp_path / "dataset.jsonl")
    preds_path = str(tmp_path / "preds.jsonl")
    report_path = str(tmp_path / "report.json")
    run(["generate", "--spec", spec, "--frames", "50", "--out", dataset])
    run(["fit", "--dataset", dataset, "--mode", "2d", "--out", preds_path])
    run(["eval", "--dataset", dataset, "--pred", preds_path, "--out", report_path])
    elapsed = perf_counter() - t0

    frames = read_dataset(dataset)
    preds = read_predictions(preds_path)
    worst_per, worst_sigma, lanes = 0.0, 0.0, 0
    for frame, pred in zip(frames, preds):
        assert len(pred.lanes3d) == len(frame.lanes2d)
        for gt2d, lane in zip(frame.lanes2d, pred.lanes3d):
            gt_rl = resample_lane(gt2d, frame.image)
            out = perspective_losses(lane, frame.intrinsics, gt_rl)
            sigma, _ = height_variance_reg(lane)
            assert out.l_per < 1e-3
            assert sigma < 1e-2
            worst_per = max(worst_per, out.l_per)
            worst_sigma = max(worst_sigma, sigma)
            lanes += 1
    report = read_report(report_path)
    assert lanes == 200
    assert report["f1"]["0.50"]["f1"] >= 0.95
    assert elapsed < 120.0
    print(
        f"criterion 3 PASS: worst l_per {worst_per:.2e}, worst sigma_h "
        f"{worst_sigma:.2e} m over {lanes} lanes, F1@0.50 "
        f"{report['f1']['0.50']['f1']:.3f} ({elapsed:.1f}s)"
    )


def test_criterion_4_gradients_match_finite_differences(rng, k, image):
    """Every loss term's analytic gradient agrees with central finite
    differences (h=1e-6) within 1e-5 relative error on 100 kink-free
    configurations per term."""
    n = 100
    checked = {}

    for _ in range(n):
        geo = sample_geo(rng)
        lane = geo_to_lane(geo)
        xs = sample_lane(lane, 72)[:, 0]
        margins = rng.choice([-1.0, 1.0], 72) * rng.uniform(0.01, 0.9, 72)
        gt_xs = xs - margins

        def f_bev(curve, geo=geo, gt_xs=gt_xs):
            return bev_iou_loss(geo_to_lane(np.concatenate([curve, geo[4:]])), gt_xs)[0]

        _, grad = bev_iou_loss(lane, gt_xs)
        assert_grad_close(grad, fd_gradient(f_bev, geo[:4], curve_scales(geo[-1])), label="l_bev")
        checked["l_bev"] = checked.get("l_bev", 0) + 1

        gt_h = geo[4:-2] - rng.choice([-1.0, 1.0], 72) * rng.uniform(0.01, 0.5, 72)

        def f_h(h, geo=geo, gt_h=gt_h):
            return height_loss(geo_to_lane(np.concatenate([geo[:4], h, geo[-2:]])), gt_h)[0]

        _, grad = height_loss(lane, gt_h)
        assert_grad_close(grad, fd_gradient(f_h, geo[4:-2], np.ones(72)), label="l_h")
        checked["l_h"] = checked.get("l_h", 0) + 1

        gt_span = geo[-2:] - rng.choice([-1.0, 1.0], 2) * rng.uniform(0.01, 2.0, 2)

        def f_z(span, geo=geo, gt_span=gt_span):
            lane = geo_to_lane(np.concatenate([geo[:-2], span]))
            return endpoint_z_loss(lane, gt_span[0], gt_span[1])[0]

        _, grad = endpoint_z_loss(lane, gt_span[0], gt_span[1])
        assert_grad_close(np.asarray(grad), fd_gradient(f_z, geo[-2:], np.ones(2)), label="l_z")
        checked["l_z"] = checked.get("l_z", 0) + 1

        def f_sigma(h, geo=geo):
            return height_variance_reg(geo_to_lane(np.concatenate([geo[:4], h, geo[-2:]])))[0]

        sigma, grad = height_variance_reg(lane)
        assert sigma > 1e-3
        assert_grad_close(grad, fd_gradient(f_sigma, geo[4:-2], np.ones(72)), label="sigma_h")
        checked["sigma_h"] = checked.get("sigma_h", 0) + 1

        geo_p, gt = draw_perspective_pair(rng, k, image)
        lane_p = geo_to_lane(geo_p)
        out = perspective_losses(lane_p, k, gt)
        scales = geo_scales(72, geo_p[-1])
        fd_per = fd_gradient(
            lambda g: perspective_losses(lane_p, k, gt, geo_params=g).l_per, geo_p, scales
        )
        assert_grad_close(out.grad_per, fd_per, label="l_per")
        checked["l_per"] = checked.get("l_per", 0) + 1
        fd_v = fd_gradient(
            lambda g: perspective_losses(lane_p, k, gt, geo_params=g).l_v, geo_p, scales
        )
        assert_grad_close(out.grad_v, fd_v, label="l_v")
        checked["l_v"] = checked.get("l_v", 0) + 1

    assert all(count >= 100 for count in checked.values())
    print(
        "criterion 4 PASS: "
        + ", ".join(f"{name} x{count}" for name, count in sorted(checked.items()))
    )


def test_criterion_5_assignment_is_optimal(rng):
    """Assignment total cost equals the brute-force minimum on 1000
    random matrices, exactly. Costs are dyadic rationals so float sums
    are order-independent and equality is meaningful."""
    n_exact = 0
    for _ in range(1000):
        p = int(rng.integers(1, 8))
        g = int(rng.integers(1, 8))
        costs = rng.integers(0, 4096, size=(p, g)) / 256.0
        result = hungarian_assign(costs, match_threshold=float("inf"))
        assert len(result.pairs) == min(p, g)
        total = sum(c for _, _, c in result.pairs)
        assert total == assign_brute_force(costs)
        n_exact += 1
    print(f"criterion 5 PASS: {n_exact} matrices, totals exactly equal")


def test_criterion_6_f1_counts_match_pixel_oracle(rng):
    """f1_suite counts equal a per-pixel rasterization plus exhaustive
    matching oracle on 50 64x64 cases, exactly; mF1 equals the mean of
    the ten per-threshold F1 values to 1e-12."""
    from bevlane.metrics import EvalConfig, f1_suite

    image = ImageSpec(64, 64)
    cfg = EvalConfig(lane_width=12.0)
    cases = 0
    for _ in range(50):
        n_p, n_g = int(rng.integers(0, 4)), int(rng.integers(0, 4))

        def draw():
            u = rng.uniform(2.0, 62.0, size=4)
            v = np.sort(rng.uniform(1.0, 63.0, size=4))[::-1]
            return Lane2D(np.column_stack([u, v]))

        preds = [draw() for _ in range(n_p)]
        gts = [draw() for _ in range(n_g)]
        result = f1_suite(preds, gts, image, cfg)
        got = {t: (c.tp, c.fp, c.fn) for t, c in result.counts.items()}
        want = f1_counts_oracle(
            [p.points for p in preds],
            [g.points for g in gts],
            image.height,
            image.width,
            cfg.lane_width,
            cfg.iou_thresholds,
        )
        assert got == want
        mean_f1 = sum(c.f1 for c in result.counts.values()) / len(result.counts)
        assert abs(result.mf1 - mean_f1) <= 1e-12
        cases += 1
    assert cases == 50
    print(f"criterion 6 PASS: {cases} cases, counts exact and mF1 within 1e-12")


def test_criterion_7_curve_order_saturates(rng):
    """On noisy curved lanes a cubic never fits worse than a quadratic,
    and a quartic's median improvement over the cubic stays under 5%:
    the representation saturates at order 3."""
    scene = flat_scene(centerline=BevCurve(2e-5, -3e-4, 0.05, 0.3))
    jitter = JitterSpec(curve_delta=(1e-5, 2e-4, 0.02, 0.5))
    frames = generate_dataset(scene, 100, jitter=jitter, seed=11)
    improvements = []
    frames_ok = 0
    for frame in frames:
        noise_rng = np.random.default_rng(frame.seed)
        frame_ok = True
        for lane in frame.lanes3d:
            noisy = np.array(lane)
            noisy[:, 0] += noise_rng.normal(scale=0.05, size=noisy.shape[0])
            res2 = fit_bev_polynomial(noisy, order=2).rms_residual
            res3 = fit_bev_polynomial(noisy, order=3).rms_residual
            res4 = fit_bev_polynomial(noisy, order=4).rms_residual
            frame_ok = frame_ok and res3 <= res2 + 1e-12
            assert res4 <= res3 + 1e-12
            improvements.append((res3 - res4) / res3)
        if frame_ok:
            frames_ok += 1
    assert frames_ok == len(frames), f"cubic beat quadratic on only {frames_ok}/100 frames"
    median_gain = float(np.median(improvements))
    assert median_gain < 0.05
    print(
        f"criterion 7 PASS: order 3 <= order 2 on 100/100 frames, "
        f"median order-4 gain {median_gain:.3%}"
    )


def test_criterion_8_anchor_dictionary_covers_shape_families(rng):
    """Three lane-shape families, clustered with k=3, must be fully
    covered at the 30 px matching threshold, and every k-means run's
    inertia history must be non-increasing."""
    scenes = [
        flat_scene(centerline=BevCurve(0.0, 0.0, heading, 0.0), lateral_offsets=(0.0,))
        for heading in (-0.08, 0.0, 0.08)
    ]
    jitter = JitterSpec(curve_delta=(0.0, 0.0, 0.0, 0.15))
    frames = generate_dataset(scenes, 8, jitter=jitter, seed=5)
    image = frames[0].image
    lanes = [frame.lanes2d[0] for frame in frames]
    descriptors = [build_descriptor(lane, image) for lane in lanes]
    anchors = cluster_anchors(descriptors, 3, image, seed=0)

    for history in anchors.inertia_histories:
        assert all(a >= b - 1e-9 for a, b in zip(history, history[1:]))
    recall = anchor_recall(anchors, lanes, match_threshold=30.0)
    assert recall == 1.0
    print(
        f"criterion 8 PASS: recall 1.0 on {len(lanes)} lanes from 3 families, "
        f"{len(anchors.inertia_histories)} monotone k-means runs"
    )


def test_criterion_9_pipeline_is_deterministic(tmp_path):
    """Two generate -> fit -> eval -> render runs with identical inputs
    produce byte-identical artifacts."""
    spec = write_spec(tmp_path, MIXED_SPEC)
    artifacts = []
    for name in ("run_a", "run_b"):
        base = tmp_path / name
        base.mkdir()
        dataset = str(base / "dataset.jsonl")
        preds = str(base / "preds.jsonl")
        report = str(base / "report.json")
        svg = str(base / "frame.svg")
        run(["generate", "--spec", spec, "--frames", "2", "--out", dataset])
        run(["fit", "--dataset", dataset, "--mode", "3d", "--out", preds])
        run(["eval", "--dataset", dataset, "--pred", preds, "--out", report])
        run([
            "render", "--dataset", dataset, "--pred", preds,
            "--frame", "4", "--view", "bev", "--out", svg,
        ])
        artifacts.append([open(p, "rb").read() for p in (dataset, preds, report, svg)])
    names = ("dataset", "predictions", "report", "render")
    for name, a, b in zip(names, artifacts[0], artifacts[1]):
        assert a == b, f"{name} differs between identical runs"
    print("criterion 9 PASS: dataset, predictions, report and render byte-identical")
