"""Tests for the SVG frame renderer."""

import numpy as np
import pytest

from bevlane.datagen import bump_scene, flat_scene, generate_frame
from bevlane.errors import ValidationError
from bevlane.geometry import BevCurve, HeightProfile, Lane3D
from bevlane.render import render_svg


def pred_lane(d=2.0):
    return Lane3D(BevCurve(0.0, 0.0, 0.0, d), HeightProfile(np.full(72, 1.5), 3.0, 80.0))


class TestPerspectiveView:
    def test_structure(self):
        frame = generate_frame(flat_scene(), frame_id=4)
        svg = render_svg(frame, view="perspective")
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert 'width="800.000"' in svg and 'height="320.000"' in svg
        assert "<desc>frame 4 flat (perspective)</desc>" in svg
        assert svg.count("<polyline") == 4

    def test_gt_solid_green_pred_dashed_red(self):
        frame = generate_frame(flat_scene())
        svg = render_svg(frame, preds=[pred_lane()], view="perspective")
        assert svg.count("#1a9850") == 4
        assert svg.count("#d73027") == 1
        assert svg.count("stroke-dasharray") == 1

    def test_pred_lane2d_passes_through(self):
        frame = generate_frame(flat_scene())
        svg = render_svg(frame, preds=[frame.lanes2d[0]], view="perspective")
        assert svg.count("#d73027") == 1

    def test_bump_path_is_row_folded(self):
        # The undulating road must show up as non monotone v along a
        # rendered ground-truth polyline.
        frame = generate_frame(bump_scene(lateral_offsets=(0.0,)))
        svg = render_svg(frame, view="perspective")
        line = next(l for l in svg.splitlines() if "polyline" in l)
        coords = line.split('points="')[1].split('"')[0].split()
        v = np.array([float(c.split(",")[1]) for c in coords])
        dv = np.diff(v)
        assert np.any(dv > 0) and np.any(dv < 0)

    def test_rejects_unknown_prediction_type(self):
        frame = generate_frame(flat_scene())
        with pytest.raises(ValidationError):
            render_svg(frame, preds=["not a lane"], view="perspective")


class TestPlanarViews:
    def test_bev_view_structure(self):
        frame = generate_frame(flat_scene(), frame_id=1)
        svg = render_svg(frame, preds=[pred_lane()], view="bev")
        assert "<desc>frame 1 flat (bev)</desc>" in svg
        assert svg.count("<polyline") == 5
        assert svg.count("<line") == 2
        assert 'width="400.000"' in svg

    def test_profile_view_structure(self):
        frame = generate_frame(bump_scene(), frame_id=2)
        svg = render_svg(frame, view="profile")
        assert "<desc>frame 2 bump (profile)</desc>" in svg
        assert 'width="600.000"' in svg and 'height="200.000"' in svg

    def test_bev_keeps_far_points_up(self):
        # Vertical canvas axis flips for the top-down view: larger z must
        # land at smaller canvas y.
        frame = generate_frame(flat_scene(lateral_offsets=(0.0,)))
        svg = render_svg(frame, view="bev")
        line = next(l for l in svg.splitlines() if "polyline" in l)
        coords = line.split('points="')[1].split('"')[0].split()
        y = np.array([float(c.split(",")[1]) for c in coords])
        assert np.all(np.diff(y) < 0)

    def test_rejects_unknown_view(self):
        frame = generate_frame(flat_scene())
        with pytest.raises(ValidationError):
            render_svg(frame, view="hologram")


class TestDeterminism:
    def test_identical_bytes(self):
        frame = generate_frame(bump_scene(), frame_id=7)
        for view in ("perspective", "bev", "profile"):
            a = render_svg(frame, preds=[pred_lane()], view=view)
            b = render_svg(frame, preds=[pred_lane()], view=view)
            assert a == b
