"""Tests for the rasterized F1 suite, row-anchor accuracy, and curve distance."""

import numpy as np
import pytest

from bevlane.camera import ImageSpec, Lane2D
from bevlane.errors import DimensionMismatchError, ValidationError
from bevlane.geometry import BevCurve, HeightProfile, Lane3D, sample_lane
from bevlane.metrics import (
    EvalConfig,
    cd_error,
    cd_error_per_pair,
    counts_to_f1,
    f1_counts,
    f1_suite,
    lane_iou_matrix,
    mask_iou,
    point_polyline_distances,
    rasterize_lane,
    tusimple_accuracy,
)
from oracles import (
    chamfer_oracle,
    f1_counts_oracle,
    lane_iou_matrix_oracle,
    raster_oracle,
)

try:
    from hypothesis import example, given
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
    return Lane3D(BevCurve(0.0, 0.0, 0.0, x_offset), heights, 1.0)


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

    def test_matches_oracle_at_half_scale(self, rng):
        for _ in range(4):
            lane = random_lane2d(rng, SMALL)
            mask = rasterize_lane(lane, SMALL, width=16.0, scale=0.5)
            oracle = raster_oracle(lane.points, SMALL.height, SMALL.width, 16.0, scale=0.5)
            assert mask.shape == (32, 32)
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
        """A small canvas, a scale, a width and a polyline built to hit edge cases.

        Coordinates sit on a 1/2, 1/4 or 1/8 pixel grid, so pixel centers
        land exactly on capsule edges; polylines may be all horizontal,
        all vertical, a single repeated point, folded (v not monotone),
        repeat a point (a zero-length segment) or leave the canvas.
        """
        scale = draw(st.sampled_from([1.0, 0.5, 0.25]))
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
        scaled_width = draw(st.integers(8, 48).map(lambda k: k / 4) | st.floats(2.0, 12.0))
        return Lane2D(points), image, scaled_width / scale, scale

    @given(case=adversarial_lanes())
    # Centers exactly on the capsule's edge: a 3-4-5 direction puts
    # centers at distance exactly 7 from the segment, and a single point
    # on a center has centers exactly 3 away.
    @example(case=(Lane2D([[-5.5, 34.5], [38.5, 1.5]]), ImageSpec(21, 16), 15.0, 1.0))
    @example(case=(Lane2D([[10.5, 10.5], [10.5, 10.5]]), ImageSpec(21, 16), 7.0, 1.0))
    def test_rasterize_matches_oracle_on_adversarial_lanes(case):
        lane, image, width, scale = case
        mask = rasterize_lane(lane, image, width=width, scale=scale)
        oracle = raster_oracle(lane.points, image.height, image.width, width, scale=scale)
        np.testing.assert_array_equal(mask, oracle)


if HAVE_HYPOTHESIS:

    @st.composite
    def adversarial_frames(draw):
        """Prediction and GT lanes sharing one small canvas, scale and width.

        Each lane is free (crossing the others at random), a copy of an
        earlier lane, the mirror image of one (so the two cross), off the
        canvas (empty), or vertical on the canvas' left or right border, so
        that one lane's run at a row end and another's at the next row's
        start are adjacent in flat pixel order. Points sit on a 1/2 or 1/4
        pixel grid, and a lane may repeat a point (a zero-length segment).
        """
        scale = draw(st.sampled_from([1.0, 0.5, 0.25]))
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
        width = draw(st.integers(8, 48).map(lambda k: k / 4)) / scale
        return lanes[:n_pred], lanes[n_pred:], image, width, scale

    @given(case=adversarial_frames())
    def test_lane_iou_matrix_matches_oracle_on_adversarial_frames(case):
        preds, gts, image, width, scale = case
        cfg = EvalConfig(lane_width=width, raster_scale=scale)
        got = lane_iou_matrix(preds, gts, image, cfg)
        want = lane_iou_matrix_oracle(
            [p.points for p in preds], [g.points for g in gts],
            image.height, image.width, width, scale,
        )
        assert got.shape == (len(preds), len(gts))
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


class TestTuSimple:
    ROWS = np.arange(160.0, 320.0, 10.0)

    def vertical(self, u):
        return Lane2D([[u, 319.0], [u, 150.0]])

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
        pred = straight_lane3d(x_offset=0.1)
        gt = sample_lane(straight_lane3d(0.0), 100)
        assert cd_error([pred], [gt], [(0, 0)]) == pytest.approx(0.1, abs=1e-12)

    def test_zero_for_identical(self):
        pred = straight_lane3d(0.5)
        gt = sample_lane(pred, 72)
        assert cd_error([pred], [gt], [(0, 0)]) == pytest.approx(0.0, abs=1e-12)

    def test_matches_chamfer_oracle(self, rng):
        for _ in range(5):
            curve = BevCurve(*rng.normal(scale=[1e-5, 1e-4, 0.02, 1.0]))
            heights = HeightProfile(1.5 + rng.normal(scale=0.1, size=72), 4.0, 70.0)
            pred = Lane3D(curve, heights, 1.0)
            gt = sample_lane(straight_lane3d(rng.normal()), 37)
            got = cd_error([pred], [gt], [(0, 0)], sample_count=72)
            want = chamfer_oracle(sample_lane(pred, 72), gt)
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
        preds = [straight_lane3d(0.1), straight_lane3d(5.3)]
        gts = [sample_lane(straight_lane3d(0.0), 72), sample_lane(straight_lane3d(5.0), 72)]
        per = cd_error_per_pair(preds, gts, [(0, 0), (1, 1)])
        np.testing.assert_allclose(per, [0.1, 0.3], atol=1e-12)
        assert cd_error(preds, gts, [(0, 0), (1, 1)]) == pytest.approx(0.2, abs=1e-12)

    def test_no_pairs_is_none(self):
        assert cd_error([], [], []) is None


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
        """Points and a 3D polyline built against the z-gap pruning.

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

    @given(case=pruning_cases())
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

    def test_rejects_zero_scale(self):
        with pytest.raises(ValidationError):
            EvalConfig(raster_scale=0.0)
