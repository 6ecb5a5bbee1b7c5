"""Tests for the rasterized F1 suite, row-anchor accuracy, and curve distance."""

import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from bevlane import datagen
from bevlane.assignment import resample_lanes
from bevlane.camera import ImageSpec, Lane2D
from bevlane.errors import DimensionMismatchError, NonFiniteError, ValidationError
from bevlane.geometry import BevCurve, HeightProfile, Lane3D, sample_lane
from bevlane.metrics import (
    EvalConfig,
    cd_error_per_pair,
    counts_to_f1,
    evaluate,
    f1_counts,
    f1_suite,
    lane_iou_matrix,
    mask_iou,
    point_polyline_distances,
    rasterize_lane,
    tusimple_accuracy,
)
from bevlane.io_formats import PredictionFrame
from oracles import (
    chamfer_oracle,
    dense_raster_oracle,
    f1_counts_oracle,
    lane_iou_matrix_oracle,
    raster_oracle,
)

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

SMALL = ImageSpec(64, 64)


def random_lane2d(rng, image, n_pts=6):
    u = rng.uniform(2.0, image.width - 2.0, size=n_pts)
    v = np.sort(rng.uniform(1.0, image.height - 1.0, size=n_pts))[::-1]
    return Lane2D(np.column_stack([u, v]))


def straight_lane3d(x_offset=0.0, z_min=3.0, z_max=80.0, n=72):
    heights = HeightProfile(np.full(n, 1.5), z_min, z_max)
    return Lane3D(BevCurve(0.0, 0.0, 0.0, x_offset), heights)


class TestRasterize:
    def test_vertical_lane_covers_exact_columns(self):
        # Pixel centers sit at half integers, so a lane on the column
        # boundary u=50 with width 30 reaches centers 35.5 .. 64.5.
        image = ImageSpec(100, 100)
        lane = Lane2D([[50.0, 100.0], [50.0, 0.0]])
        mask = rasterize_lane(lane, image, width=30.0)
        assert mask.shape == (100, 100)
        cols = np.flatnonzero(mask.any(axis=0))
        np.testing.assert_array_equal(cols, np.arange(35, 65))
        assert mask.sum() == 100 * 30

    def test_matches_per_pixel_oracle(self, rng):
        for _ in range(8):
            lane = random_lane2d(rng, SMALL)
            width = rng.uniform(3.0, 24.0)
            mask = rasterize_lane(lane, SMALL, width=width)
            oracle = raster_oracle(lane.points, SMALL.height, SMALL.width, width)
            np.testing.assert_array_equal(mask, oracle)

    def test_off_image_lane_is_empty(self):
        lane = Lane2D([[-200.0, 50.0], [-200.0, 10.0]])
        assert not rasterize_lane(lane, SMALL, width=9.0).any()

    def test_rejects_subpixel_width(self):
        lane = Lane2D([[10.0, 50.0], [10.0, 10.0]])
        with pytest.raises(ValidationError):
            rasterize_lane(lane, SMALL, width=0.5)


if HAVE_HYPOTHESIS:

    @st.composite
    def adversarial_lanes(draw):
        """A small canvas, a width and a polyline built to hit edge cases.

        Coordinates sit on a 1/2, 1/4 or 1/8 pixel grid, so pixel centers
        land exactly on capsule edges; polylines may be all horizontal,
        all vertical, a single repeated point, folded (v not monotone),
        repeat a point (a zero-length segment) or leave the canvas.
        """
        image = ImageSpec(
            width=draw(st.integers(4, 40)), height=draw(st.integers(4, 40))
        )
        step = draw(st.sampled_from([0.5, 0.25, 0.125]))
        n = draw(st.integers(2, 6))

        def coords(limit):
            ticks = st.integers(int(-12 / step), int((limit + 12) / step))
            return [draw(ticks) * step for _ in range(n)]

        u, v = coords(image.width), coords(image.height)
        shape = draw(st.sampled_from(["free", "horizontal", "vertical", "dot"]))
        if shape in ("horizontal", "dot"):
            v = [v[0]] * n
        if shape in ("vertical", "dot"):
            u = [u[0]] * n
        points = list(zip(u, v))
        repeat = draw(st.integers(-1, n - 1))
        if repeat >= 0:
            points.insert(repeat, points[repeat])
        width = draw(st.integers(8, 48).map(lambda k: k / 4) | st.floats(2.0, 12.0))
        return Lane2D(points), image, width

    @given(case=adversarial_lanes())
    # Centers exactly on the capsule's edge: a 3-4-5 direction puts
    # centers at distance exactly 7 from the segment, and a single point
    # on a center has centers exactly 3 away.
    @example(case=(Lane2D([[-5.5, 34.5], [38.5, 1.5]]), ImageSpec(21, 16), 15.0))
    @example(case=(Lane2D([[10.5, 10.5], [10.5, 10.5]]), ImageSpec(21, 16), 7.0))
    def test_rasterize_matches_oracle_on_adversarial_lanes(case):
        lane, image, width = case
        mask = rasterize_lane(lane, image, width=width)
        oracle = raster_oracle(lane.points, image.height, image.width, width)
        np.testing.assert_array_equal(mask, oracle)


if HAVE_HYPOTHESIS:

    @st.composite
    def adversarial_frames(draw):
        """Prediction and GT lanes sharing one small canvas and width.

        Each lane is free (crossing the others at random), a copy of an
        earlier lane, the mirror image of one (so the two cross), off the
        canvas (empty), or vertical on the canvas' left or right border, so
        that one lane's run at a row end and another's at the next row's
        start are adjacent in flat pixel order. Points sit on a 1/2 or 1/4
        pixel grid, and a lane may repeat a point (a zero-length segment).
        """
        image = ImageSpec(width=draw(st.integers(4, 24)), height=draw(st.integers(4, 24)))
        step = draw(st.sampled_from([0.5, 0.25]))

        def coords(n, limit):
            return [draw(st.integers(int(-6 / step), int((limit + 6) / step))) * step for _ in range(n)]

        lanes = []
        for _ in range(draw(st.integers(2, 6))):
            kind = draw(st.sampled_from(["free", "copy", "mirror", "off", "border"]))
            if kind in ("copy", "mirror") and lanes:
                points = draw(st.sampled_from(lanes)).points
                if kind == "mirror":
                    points = np.column_stack([image.width - points[:, 0], points[:, 1]])
                lanes.append(Lane2D(points))
                continue
            n = draw(st.integers(2, 5))
            u, v = coords(n, image.width), coords(n, image.height)
            if kind == "off":
                u = [x - 2 * image.width - 40 for x in u]
            elif kind == "border":
                u = [draw(st.sampled_from([0.0, float(image.width)]))] * n
            points = list(zip(u, v))
            repeat = draw(st.integers(-1, n - 1))
            if repeat >= 0:
                points.insert(repeat, points[repeat])
            lanes.append(Lane2D(points))
        n_pred = draw(st.integers(1, len(lanes) - 1))
        width = draw(st.integers(8, 48).map(lambda k: k / 4))
        return lanes[:n_pred], lanes[n_pred:], image, width

    @given(case=adversarial_frames())
    def test_lane_iou_matrix_matches_oracle_on_adversarial_frames(case):
        preds, gts, image, width = case
        cfg = EvalConfig(lane_width=width)
        got = lane_iou_matrix(preds, gts, image, cfg)
        want = lane_iou_matrix_oracle(
            [p.points for p in preds], [g.points for g in gts],
            image.height, image.width, width,
        )
        assert got.shape == (len(preds), len(gts))
        np.testing.assert_array_equal(got, want)


if HAVE_HYPOTHESIS:

    @st.composite
    def long_lanes(draw, image):
        """A 20-80 point polyline of sub-pixel steps on a 1/8 pixel grid.

        Each step moves by the lane's drift in u and rise in v, give or
        take an eighth or two, so v mostly runs one way and chains of many
        segments form; a step may also turn v back (a fold), keep it (a
        flat run, dv = 0) or stand still (a repeated point). A lane that
        drifts starts beside the canvas and crosses one of its borders, so
        that a row's run there ends on a segment off the canvas.
        """
        n = draw(st.integers(20, 80))
        drift, rise = draw(st.integers(-8, 8)), draw(st.integers(0, 8))
        kinds = st.sampled_from(["rise"] * 6 + ["fold", "flat", "still"])
        steps = [(0, 0)] * (n - 1)
        for k, kind in enumerate(draw(st.lists(kinds, min_size=n - 1, max_size=n - 1))):
            du, dv = drift + draw(st.integers(-2, 2)), max(rise + draw(st.integers(-1, 1)), 0)
            if kind != "still":
                steps[k] = (du, {"rise": dv, "fold": -dv, "flat": 0}[kind])
        if abs(drift) >= 3:
            start_u = -8 * 24 if drift > 0 else 8 * (image.width + 24)
        else:
            start_u = draw(st.integers(-8 * 20, 8 * (image.width + 20)))
        start = (start_u, draw(st.integers(-8 * 10, 8 * (image.height + 10))))
        return Lane2D(np.cumsum([start, *steps], axis=0) / 8.0)

    def long_frames():
        """A canvas, a width from 1 px to 1e300 px and 2-4 long lanes."""
        return st.tuples(st.integers(6, 32), st.integers(6, 32)).map(
            lambda size: ImageSpec(width=size[0], height=size[1])
        ).flatmap(
            lambda image: st.tuples(
                st.lists(long_lanes(image), min_size=2, max_size=4),
                st.just(image),
                st.floats(1.0, 40.0) | st.sampled_from([1.0, 30.0, 1e6, 1e300]),
            )
        )

    # A straight lane from beside the canvas: on some rows its run starts
    # on the first segments, whose intervals there lie wholly off the
    # canvas, and only they bound the run's start.
    CROSSING = Lane2D(np.column_stack([np.linspace(-24.0, 40.0, 65), np.linspace(2.0, 10.0, 65)]))
    MIRRORED = Lane2D(np.column_stack([16.0 - CROSSING.u, CROSSING.v]))

    @given(case=long_frames())
    @example(case=([CROSSING], ImageSpec(16, 12), 12.0))
    def test_rasterize_matches_oracle_on_long_lanes(case):
        lanes, image, width = case
        for lane in lanes:
            want = dense_raster_oracle(lane.points, image.height, image.width, width)
            np.testing.assert_array_equal(rasterize_lane(lane, image, width=width), want)

    @given(case=long_frames())
    @example(case=([CROSSING, MIRRORED, CROSSING], ImageSpec(16, 12), 12.0))
    def test_lane_iou_matrix_matches_oracle_on_long_lanes(case):
        lanes, image, width = case
        masks = [dense_raster_oracle(l.points, image.height, image.width, width) for l in lanes]
        want = np.array([
            [np.count_nonzero(a & b) / np.count_nonzero(a | b) if (a | b).any() else 1.0
             for b in masks[1:]]
            for a in masks[:1]
        ])
        got = lane_iou_matrix(lanes[:1], lanes[1:], image, EvalConfig(lane_width=width))
        np.testing.assert_array_equal(got, want)


class TestMaskIoU:
    def test_identical_masks(self):
        m = np.zeros((8, 8), dtype=bool)
        m[2:5, 2:5] = True
        assert mask_iou(m, m) == 1.0

    def test_disjoint_masks(self):
        a = np.zeros((8, 8), dtype=bool)
        b = np.zeros((8, 8), dtype=bool)
        a[0, 0] = True
        b[7, 7] = True
        assert mask_iou(a, b) == 0.0

    def test_both_empty_count_as_identical(self):
        empty = np.zeros((4, 4), dtype=bool)
        assert mask_iou(empty, empty) == 1.0
        full = np.ones((4, 4), dtype=bool)
        assert mask_iou(empty, full) == 0.0

    def test_half_shift_is_one_third(self):
        # 30-wide bands offset by 15 columns: overlap 15, union 45.
        image = ImageSpec(100, 100)
        a = rasterize_lane(Lane2D([[40.0, 100.0], [40.0, 0.0]]), image, width=30.0)
        b = rasterize_lane(Lane2D([[55.0, 100.0], [55.0, 0.0]]), image, width=30.0)
        assert mask_iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mask_iou(np.zeros((2, 2), dtype=bool), np.zeros((3, 3), dtype=bool))


class TestCountsToF1:
    def test_frozen_counts(self):
        r = counts_to_f1(3, 1, 2)
        assert r.precision == pytest.approx(0.75)
        assert r.recall == pytest.approx(0.6)
        assert r.f1 == pytest.approx(2.0 / 3.0)

    def test_all_zero(self):
        r = counts_to_f1(0, 0, 0)
        assert (r.precision, r.recall, r.f1) == (0.0, 0.0, 0.0)


def brute_force_counts(preds, gts, image, cfg):
    return f1_counts_oracle(
        [p.points for p in preds],
        [g.points for g in gts],
        image.height,
        image.width,
        cfg.lane_width,
        cfg.iou_thresholds,
    )


class TestF1Suite:
    def test_counts_match_exhaustive_oracle(self, rng):
        cfg = EvalConfig(lane_width=12.0, iou_thresholds=(0.3, 0.5, 0.7))
        for _ in range(10):
            n_p, n_g = rng.integers(0, 4), rng.integers(0, 4)
            preds = [random_lane2d(rng, SMALL) for _ in range(n_p)]
            gts = [random_lane2d(rng, SMALL) for _ in range(n_g)]
            got = f1_counts(preds, gts, SMALL, cfg)
            want = brute_force_counts(preds, gts, SMALL, cfg)
            assert got == want

    def test_perfect_detection(self):
        image = ImageSpec(100, 100)
        lanes = [Lane2D([[30.0, 90.0], [35.0, 10.0]]), Lane2D([[70.0, 90.0], [65.0, 10.0]])]
        result = f1_suite(lanes, lanes, image)
        assert all(c.f1 == 1.0 for c in result.counts.values())
        assert result.mf1 == 1.0

    def test_mf1_is_mean_of_threshold_f1(self, rng):
        preds = [random_lane2d(rng, SMALL) for _ in range(3)]
        gts = [random_lane2d(rng, SMALL) for _ in range(2)]
        cfg = EvalConfig(lane_width=12.0)
        result = f1_suite(preds, gts, SMALL, cfg)
        mean = sum(c.f1 for c in result.counts.values()) / len(result.counts)
        assert abs(result.mf1 - mean) <= 1e-12

    def test_tp_monotone_in_threshold(self, rng):
        cfg = EvalConfig(lane_width=12.0)
        for _ in range(5):
            preds = [random_lane2d(rng, SMALL) for _ in range(3)]
            gts = [random_lane2d(rng, SMALL) for _ in range(3)]
            counts = f1_counts(preds, gts, SMALL, cfg)
            tps = [counts[t][0] for t in cfg.iou_thresholds]
            assert all(a >= b for a, b in zip(tps, tps[1:]))

    def test_order_invariance(self, rng):
        cfg = EvalConfig(lane_width=12.0)
        preds = [random_lane2d(rng, SMALL) for _ in range(4)]
        gts = [random_lane2d(rng, SMALL) for _ in range(3)]
        base = f1_counts(preds, gts, SMALL, cfg)
        shuffled = f1_counts(preds[::-1], gts[::-1], SMALL, cfg)
        assert base == shuffled

    def test_no_predictions(self):
        counts = f1_counts([], [Lane2D([[10.0, 50.0], [10.0, 10.0]])], SMALL)
        for tp, fp, fn in counts.values():
            assert (tp, fp, fn) == (0, 0, 1)

    def test_no_lanes_at_all(self):
        result = f1_suite([], [], SMALL)
        assert all(c.f1 == 0.0 for c in result.counts.values())

    def test_evaluate_reports_the_f1_suite_scores(self):
        # the report's F1 section and mF1 are f1_suite's scores, which
        # criterion 6 checks against the pixel oracle; a frame without a
        # prediction record predicts nothing
        frame = datagen.generate_frame(datagen.bump_scene(seed=4), frame_id=7)
        shifted = [Lane2D(lane.points + [6.0 * i, 0.0]) for i, lane in enumerate(frame.lanes2d)]
        cfg = EvalConfig(lane_width=20.0)
        suite = f1_suite(shifted, list(frame.lanes2d), frame.image, cfg)
        assert 0.0 < suite.mf1 < 1.0
        report = evaluate([frame], [PredictionFrame(frame_id=7, lanes2d=tuple(shifted))], cfg)
        assert report["f1"] == {f"{t:.2f}": asdict(c) for t, c in suite.counts.items()}
        assert report["mf1"] == suite.mf1
        report = evaluate([frame], [], cfg)
        assert {(c["tp"], c["fp"], c["fn"]) for c in report["f1"].values()} == {(0, 0, 4)}
        assert report["pred_lanes"] == 0 and report["cd_error"] is None


class TestTuSimple:
    ROWS = np.arange(160.0, 320.0, 10.0)

    def vertical(self, u):
        """A vertical predicted lane, read at the row anchors."""
        return resample_lanes([Lane2D([[u, 319.0], [u, 150.0]])], self.ROWS)[0]

    def gt_at(self, u):
        return np.full(self.ROWS.shape, u)

    def test_exact_prediction(self):
        r = tusimple_accuracy([self.vertical(400.0)], [self.gt_at(400.0)], self.ROWS)
        assert r.accuracy == 1.0
        assert r.fp_rate == 0.0 and r.fn_rate == 0.0
        assert r.correct_points == r.gt_points == len(self.ROWS)

    def test_offset_within_tolerance(self):
        # 10 px is inside the 20 px tolerance: every point still correct.
        r = tusimple_accuracy([self.vertical(410.0)], [self.gt_at(400.0)], self.ROWS)
        assert r.accuracy == 1.0

    def test_offset_beyond_tolerance(self):
        # 25 px misses every row, the lane match fails the 0.85 bar, and
        # the unmatched lanes count as one FP and one FN.
        r = tusimple_accuracy([self.vertical(425.0)], [self.gt_at(400.0)], self.ROWS)
        assert r.accuracy == 0.0
        assert r.fp_rate == 1.0 and r.fn_rate == 1.0
        assert r.matched_pairs == 0

    def test_nan_rows_shrink_gt_points(self):
        gt = self.gt_at(400.0)
        gt[:8] = np.nan
        r = tusimple_accuracy([self.vertical(400.0)], [gt], self.ROWS)
        assert r.gt_points == len(self.ROWS) - 8
        assert r.accuracy == 1.0

    def test_two_lanes_pair_correctly(self):
        preds = [self.vertical(200.0), self.vertical(600.0)]
        gts = [self.gt_at(600.0), self.gt_at(200.0)]
        r = tusimple_accuracy(preds, gts, self.ROWS)
        assert r.accuracy == 1.0 and r.matched_pairs == 2

    def test_gt_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            tusimple_accuracy([self.vertical(400.0)], [np.zeros(3)], self.ROWS)

    def test_no_predictions(self):
        r = tusimple_accuracy([], [self.gt_at(400.0)], self.ROWS)
        assert r.accuracy == 0.0 and r.fn_rate == 1.0 and r.fp_rate == 0.0


class TestCurveDistance:
    def test_parallel_offset_is_exact(self):
        pred = sample_lane(straight_lane3d(x_offset=0.1), 72)
        gt = sample_lane(straight_lane3d(0.0), 100)
        assert cd_error_per_pair([pred], [gt], [(0, 0)]).mean() == pytest.approx(0.1, abs=1e-12)

    def test_zero_for_identical(self):
        pred = sample_lane(straight_lane3d(0.5), 72)
        gt = sample_lane(straight_lane3d(0.5), 72)
        assert cd_error_per_pair([pred], [gt], [(0, 0)]).mean() == pytest.approx(0.0, abs=1e-12)

    def test_matches_chamfer_oracle(self, rng):
        for _ in range(5):
            curve = BevCurve(*rng.normal(scale=[1e-5, 1e-4, 0.02, 1.0]))
            heights = HeightProfile(1.5 + rng.normal(scale=0.1, size=72), 4.0, 70.0)
            pred = sample_lane(Lane3D(curve, heights), 72)
            gt = sample_lane(straight_lane3d(rng.normal()), 37)
            got = cd_error_per_pair([pred], [gt], [(0, 0)]).mean()
            want = chamfer_oracle(pred, gt)
            assert got == pytest.approx(want, abs=1e-12)

    def test_distances_equal_norm_of_offset_to_closest_point(self, rng):
        # Bit for bit the minimum over segments of the norm of each
        # point-to-closest-spot vector, so eval reports do not move.
        for _ in range(20):
            points = rng.normal(scale=30.0, size=(rng.integers(1, 40), 3))
            poly = rng.normal(scale=30.0, size=(rng.integers(3, 40), 3))
            poly[1] = poly[0]
            a, d = poly[:-1], np.diff(poly, axis=0)
            len2 = np.einsum("kd,kd->k", d, d)
            rel = points[:, None, :] - a
            t = np.einsum("pkd,kd->pk", rel, d) / np.where(len2 == 0.0, 1.0, len2)
            closest = a + np.clip(t, 0.0, 1.0)[:, :, None] * d
            want = np.linalg.norm(points[:, None, :] - closest, axis=2).min(axis=1)
            np.testing.assert_array_equal(point_polyline_distances(points, poly), want)

    def test_per_pair_and_mean(self):
        preds = [sample_lane(straight_lane3d(0.1), 72), sample_lane(straight_lane3d(5.3), 72)]
        gts = [sample_lane(straight_lane3d(0.0), 72), sample_lane(straight_lane3d(5.0), 72)]
        per = cd_error_per_pair(preds, gts, [(0, 0), (1, 1)])
        np.testing.assert_allclose(per, [0.1, 0.3], atol=1e-12)
        assert per.mean() == pytest.approx(0.2, abs=1e-12)

    def test_nan_bound_keeps_its_segment(self):
        # The first segment is 2e308 long, so its direction overflows and
        # the distance to it, the point's bound, is NaN; the point's
        # search range must still hold it rather than come out empty.
        poly = np.array([[-1e308, 0.0, 1.0], [1e308, 0.0, 2.0], [0.0, 0.0, 3.0]])
        got = point_polyline_distances(np.array([[0.0, 0.0, 1.5]]), poly)
        assert np.isnan(got).all()

    @pytest.mark.parametrize("x", [[-1e308, 1e308], [1e200, 0.0]])
    def test_overflowing_pair_raises_naming_it(self, x):
        gt = sample_lane(straight_lane3d(0.0), 72)
        gt[:2, 0] = x
        preds = [sample_lane(straight_lane3d(0.1), 72)] * 2
        with pytest.raises(NonFiniteError, match=r"pair \(pred 1, gt 0\)"):
            cd_error_per_pair(preds, [gt], [(1, 0)])

    def test_long_lanes_stay_small(self):
        # 2,000 points against a 2,000-vertex polyline: a dense (points x
        # segments) pass would hold several 32 MB arrays at once.
        pred = sample_lane(Lane3D(BevCurve(1e-5, -1e-3, 0.02, 0.3), HeightProfile(
            tuple(1.5 + 0.1 * np.sin(np.arange(8))), 3.0, 80.0)), 2000)
        gt = sample_lane(straight_lane3d(0.0), 2000)
        tracemalloc.start()
        try:
            got = point_polyline_distances(pred, gt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.shape == (2000,) and np.isfinite(got).all()
        assert peak < 24 * 2**20


def dense_point_polyline_distances(points, poly):
    """Minimum over every segment of the norm of the point-to-closest-spot vector."""
    a, d = poly[:-1], np.diff(poly, axis=0)
    len2 = np.einsum("kd,kd->k", d, d)
    t = np.einsum("pkd,kd->pk", points[:, None, :] - a, d) / np.where(len2 == 0.0, 1.0, len2)
    closest = a + np.clip(t, 0.0, 1.0)[:, :, None] * d
    return np.linalg.norm(points[:, None, :] - closest, axis=2).min(axis=1)


if HAVE_HYPOTHESIS:

    @st.composite
    def pruning_cases(draw):
        """Points and a 3D polyline built against the z-window search.

        Coordinates sit on an integer grid, so several segments often tie
        for the nearest spot (a point on a shared vertex ties two); z is
        not monotone, vertices and points may repeat, and the points may
        be moved far off sideways, where the z-gap bound rules out nothing.
        """
        grid = st.integers(-6, 6).map(float)
        poly = [[draw(grid) for _ in range(3)] for _ in range(draw(st.integers(2, 12)))]
        repeat = draw(st.integers(-1, len(poly) - 1))
        if repeat >= 0:
            poly.insert(repeat, poly[repeat])
        points = [[draw(grid) for _ in range(3)] for _ in range(draw(st.integers(1, 12)))]
        points += draw(st.lists(st.sampled_from(poly), max_size=3))
        points.append(points[0])
        points = np.array(points)
        points[:, 0] += draw(st.sampled_from([0.0, 0.0, 1e3, -1e7]))
        return points, np.array(poly)

    @st.composite
    def window_cases(draw):
        """Points and a 3D polyline in general position against the z-window search.

        Coordinates are arbitrary floats at one of several scales; z may
        fold back, one segment may span the whole z range (the largest
        reach), vertices may repeat (zero-length segments), and points may
        sit before, after or far to the side of the polyline.
        """
        coord = st.floats(-10.0, 10.0, allow_nan=False)
        vertex = st.tuples(coord, coord, coord)
        poly = np.array(draw(st.lists(vertex, min_size=2, max_size=14)))
        if draw(st.booleans()):
            i = draw(st.integers(0, len(poly) - 2))
            poly[i, 2], poly[i + 1, 2] = poly[:, 2].min() - 1.0, poly[:, 2].max() + 1.0
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, len(poly) - 1))
            poly = np.insert(poly, i, poly[i], axis=0)
        points = np.array(draw(st.lists(vertex, min_size=1, max_size=14)))
        z_shift = st.sampled_from([0.0, -30.0, 30.0])
        side = st.sampled_from([0.0, 0.0, 1e3, -1e7])
        points[:, 2] += draw(st.lists(z_shift, min_size=len(points), max_size=len(points)))
        points[:, 0] += draw(st.lists(side, min_size=len(points), max_size=len(points)))
        scale = draw(st.sampled_from([1e-6, 1.0, 1e6]))
        return points * scale, poly * scale

    @given(case=st.one_of(pruning_cases(), window_cases()))
    @settings(max_examples=120)
    # every point's window holds only its bound's segment
    @example(
        case=(
            np.array([[0.1, 0.05, 5.0], [0.8, 0.2, 15.0], [0.3, 0.0, -1.0]]),
            np.array([[0.0, 0.0, 0.0], [0.5, 0.1, 10.0], [1.5, 0.3, 20.0]]),
        )
    )
    def test_pruned_distances_equal_dense(case):
        points, poly = case
        got = point_polyline_distances(points, poly)
        np.testing.assert_array_equal(got, dense_point_polyline_distances(points, poly))


class TestEvalConfig:
    def test_rejects_thin_lane(self):
        with pytest.raises(ValidationError):
            EvalConfig(lane_width=0.5)

    def test_rejects_unsorted_thresholds(self):
        with pytest.raises(ValidationError):
            EvalConfig(iou_thresholds=(0.5, 0.5))
