"""Tests for lane descriptor extraction and anchor clustering."""

import numpy as np
import pytest

from bevlane.anchors import (
    KMEANS_RESTARTS,
    AnchorSet,
    anchor_recall,
    anchor_to_lane,
    build_descriptor,
    build_descriptors,
    cluster_anchors,
    descriptor_from_vector,
    descriptor_rows,
)
from bevlane.camera import ImageSpec, Lane2D
from bevlane.datagen import bump_scene, flat_scene, generate_frame
from bevlane.errors import DegenerateLaneError, ValidationError
from bevlane.geometry import MAX_SAMPLE_COUNT
from oracles import kmeans_reference_best

IMAGE = ImageSpec(800, 320)


def vertical_lane(u, v_near=319.0, v_far=160.0):
    return Lane2D([[u, v_near], [u, v_far]])


class TestDescriptor:
    def test_rows_span_lower_half(self):
        rows = descriptor_rows(IMAGE, 36)
        assert rows.size == 36
        assert rows[0] == pytest.approx(159.5)
        assert rows[-1] == pytest.approx(319.0)
        assert np.all(np.diff(rows) > 0)

    def test_vertical_lane_descriptor(self):
        d = build_descriptor(vertical_lane(300.0), IMAGE)
        assert np.allclose(d.u, 300.0)
        assert d.v_start == 319.0
        assert d.v_end == 160.0

    def test_diagonal_lane_samples_rows(self):
        lane = Lane2D([[319.0, 319.0], [160.0, 160.0]])
        d = build_descriptor(lane, IMAGE)
        rows = descriptor_rows(IMAGE, 36)
        covered = rows >= 160.0
        np.testing.assert_allclose(d.u[covered], rows[covered], atol=1e-9)

    def test_gaps_take_nearest_covered_u(self):
        # Lane lives on rows 200..250 only; rows outside borrow the u of
        # the closest covered row, keeping the vector dense.
        lane = Lane2D([[100.0, 250.0], [140.0, 200.0]])
        d = build_descriptor(lane, IMAGE)
        rows = descriptor_rows(IMAGE, 36)
        below = rows < 200.0
        above = rows > 250.0
        assert np.allclose(d.u[below], d.u[np.flatnonzero(~below & ~above)[0]])
        assert np.allclose(d.u[above], d.u[np.flatnonzero(~below & ~above)[-1]])
        assert d.v_start == 250.0 and d.v_end == 200.0

    def test_flat_lane_is_degenerate(self):
        with pytest.raises(DegenerateLaneError):
            build_descriptor(Lane2D([[10.0, 100.0], [500.0, 100.5]]), IMAGE)

    def test_lane_above_descriptor_rows_is_degenerate(self):
        with pytest.raises(DegenerateLaneError):
            build_descriptor(Lane2D([[400.0, 50.0], [400.0, 10.0]]), IMAGE)

    def test_vector_round_trip(self):
        d = build_descriptor(vertical_lane(123.0), IMAGE)
        again = descriptor_from_vector(d.vector())
        np.testing.assert_array_equal(again.u, d.u)
        assert (again.v_start, again.v_end) == (d.v_start, d.v_end)

    def test_rejects_single_row(self):
        with pytest.raises(ValidationError):
            descriptor_rows(IMAGE, 1)

    def test_rows_bounded_like_sample_counts(self):
        assert descriptor_rows(IMAGE, MAX_SAMPLE_COUNT).size == MAX_SAMPLE_COUNT
        for m in (MAX_SAMPLE_COUNT + 1, 10**9):
            with pytest.raises(ValidationError, match="descriptor rows"):
                descriptor_rows(IMAGE, m)

    @pytest.mark.parametrize("m", [2, 5, 36])
    def test_stack_equals_one_lane_at_a_time(self, m):
        lanes = [
            *generate_frame(bump_scene(seed=4)).lanes2d,
            Lane2D([[100.0, 250.0], [140.0, 200.0]]),  # partial cover, gaps filled
            Lane2D([[10.0, 100.0], [500.0, 100.5]]),  # spans under 2 rows
            Lane2D([[400.0, 50.0], [400.0, 10.0]]),  # above the descriptor rows
            Lane2D([[0.0, 300.0], [50.0, 170.0], [90.0, 290.0]]),  # folds back
        ]
        stacked = build_descriptors(lanes, IMAGE, m)
        assert len(stacked) == len(lanes)
        for lane, got in zip(lanes, stacked):
            try:
                want = build_descriptor(lane, IMAGE, m)
            except DegenerateLaneError:
                assert got is None
                continue
            np.testing.assert_array_equal(got.vector(), want.vector())
        assert None in stacked


class TestClustering:
    def test_k1_is_the_mean(self):
        lanes = [vertical_lane(u) for u in (100.0, 200.0, 600.0)]
        descs = [build_descriptor(l, IMAGE) for l in lanes]
        anchors = cluster_anchors(descs, 1, IMAGE)
        assert anchors.k == 1
        data = np.stack([d.vector() for d in descs])
        np.testing.assert_allclose(anchors.descriptors[0].vector(), data.mean(axis=0), atol=1e-9)
        np.testing.assert_allclose(
            anchors.inertia, np.sum((data - data.mean(axis=0)) ** 2), atol=1e-9
        )

    def test_duplicated_pair_clusters_exactly(self):
        # Two distinct shapes, each duplicated: the distance-weighted init
        # never seeds two centers on copies of the same point, so k=2
        # separates them perfectly.
        descs = [build_descriptor(vertical_lane(u), IMAGE) for u in (150.0, 650.0) * 3]
        anchors = cluster_anchors(descs, 2, IMAGE)
        assert anchors.inertia == pytest.approx(0.0, abs=1e-18)
        got = sorted(d.u[0] for d in anchors.descriptors)
        assert got == [150.0, 650.0]

    def test_two_groups_recover_group_means(self, rng):
        us = np.concatenate([200.0 + rng.normal(scale=3.0, size=8),
                             600.0 + rng.normal(scale=3.0, size=8)])
        descs = [build_descriptor(vertical_lane(float(u)), IMAGE) for u in us]
        anchors = cluster_anchors(descs, 2, IMAGE)
        got = sorted(d.u[0] for d in anchors.descriptors)
        np.testing.assert_allclose(got, [us[:8].mean(), us[8:].mean()], atol=1e-9)

    def test_inertia_histories_never_increase(self, rng):
        us = rng.uniform(50.0, 750.0, size=20)
        descs = [build_descriptor(vertical_lane(float(u)), IMAGE) for u in us]
        anchors = cluster_anchors(descs, 4, IMAGE)
        assert len(anchors.inertia_histories) == KMEANS_RESTARTS
        for history in anchors.inertia_histories:
            assert all(a >= b - 1e-9 for a, b in zip(history, history[1:]))
        finals = [h[-1] for h in anchors.inertia_histories]
        assert anchors.inertia == min(finals)
        assert finals[anchors.chosen_restart] == anchors.inertia

    def test_close_to_reference_kmeans(self, rng):
        us = rng.uniform(50.0, 750.0, size=30)
        descs = [build_descriptor(vertical_lane(float(u)), IMAGE) for u in us]
        anchors = cluster_anchors(descs, 3, IMAGE)
        data = np.stack([d.vector() for d in descs])
        reference = kmeans_reference_best(data, 3, tries=100)
        assert anchors.inertia <= reference * 1.01 + 1e-9

    def test_deterministic(self):
        us = np.linspace(60.0, 740.0, 15)
        descs = [build_descriptor(vertical_lane(float(u)), IMAGE) for u in us]
        a = cluster_anchors(descs, 3, IMAGE, seed=5)
        b = cluster_anchors(descs, 3, IMAGE, seed=5)
        assert a.inertia == b.inertia
        for da, db in zip(a.descriptors, b.descriptors):
            np.testing.assert_array_equal(da.vector(), db.vector())

    def test_validation(self):
        descs = [build_descriptor(vertical_lane(u), IMAGE) for u in (100.0, 200.0)]
        with pytest.raises(ValidationError):
            cluster_anchors(descs, 0, IMAGE)
        with pytest.raises(ValidationError):
            cluster_anchors(descs, 51, IMAGE)
        with pytest.raises(ValidationError):
            cluster_anchors(descs, 3, IMAGE)


class TestAnchorLanes:
    def test_anchor_to_lane_covers_span(self):
        d = build_descriptor(vertical_lane(300.0, v_near=319.0, v_far=200.0), IMAGE)
        rows = descriptor_rows(IMAGE, 36)
        lane = anchor_to_lane(d, rows)
        assert np.all(lane.v >= 200.0 - 1e-9) and np.all(lane.v <= 319.0 + 1e-9)
        assert np.all(np.diff(lane.v) < 0)
        assert np.allclose(lane.u, 300.0)

    def test_narrow_span_uses_two_nearest_rows(self):
        rows = np.array([100.0, 200.0, 300.0])
        d = descriptor_from_vector(np.array([10.0, 20.0, 30.0, 205.0, 202.0]))
        lane = anchor_to_lane(d, rows)
        assert lane.points.shape == (2, 2)
        np.testing.assert_array_equal(sorted(lane.v), [200.0, 300.0])

    def test_recall_on_own_lanes_is_one(self):
        frame = generate_frame(flat_scene())
        descs = [build_descriptor(l, IMAGE) for l in frame.lanes2d]
        anchors = cluster_anchors(descs, 4, IMAGE)
        assert anchor_recall(anchors, list(frame.lanes2d)) == 1.0

    def test_recall_zero_for_far_anchors(self):
        descs = [build_descriptor(vertical_lane(20.0), IMAGE)]
        anchors = cluster_anchors(descs, 1, IMAGE)
        gts = [vertical_lane(700.0)]
        assert anchor_recall(anchors, gts) == 0.0

    def test_recall_vacuous_without_lanes(self):
        descs = [build_descriptor(vertical_lane(20.0), IMAGE)]
        anchors = cluster_anchors(descs, 1, IMAGE)
        assert anchor_recall(anchors, []) == 1.0
