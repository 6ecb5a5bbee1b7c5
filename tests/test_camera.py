import numpy as np
import pytest

from bevlane.camera import CameraIntrinsics, ImageSpec, Lane2D, invert_to_ground, project_lane, project_points
from bevlane.errors import DomainError, ValidationError
from bevlane.geometry import BevCurve, HeightProfile, Lane3D

try:
    from hypothesis import given
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False


def test_principal_ray(k):
    assert project_points(k, np.array([[0.0, 0.0, 10.0]])).tolist() == [[400.0, 160.0]]


def test_unit_offset(k):
    assert project_points(k, np.array([[1.0, 0.0, 10.0]])).tolist() == [[500.0, 160.0]]


def test_zero_depth_rejected(k):
    with pytest.raises(DomainError):
        project_points(k, np.array([[0.0, 1.0, 0.0]]))
    with pytest.raises(DomainError):
        project_points(k, np.array([[0.0, 1.0, 5.0], [0.0, 1.0, -2.0]]))


def test_intrinsics_validation():
    with pytest.raises(ValidationError):
        CameraIntrinsics(fx=0.0, fy=1000.0, ox=0.0, oy=0.0)
    with pytest.raises(ValidationError):
        ImageSpec(width=0, height=10)


def test_invert_examples(k):
    x, y, z = invert_to_ground(k, 400.0, 310.0, 1.5)
    assert (x, y, z) == (0.0, 1.5, 10.0)
    x, y, z = invert_to_ground(k, 500.0, 310.0, 1.5)
    assert z == 10.0 and x == pytest.approx(1.0)


def test_invert_horizon_rejected(k):
    with pytest.raises(DomainError):
        invert_to_ground(k, 400.0, 160.0, 1.5)
    with pytest.raises(DomainError):
        invert_to_ground(k, 400.0, 150.0, 1.5)


def test_project_lane_central(k):
    lane = Lane3D(
        curve=BevCurve(0, 0, 0, 0),
        profile=HeightProfile(heights=np.full(4, 1.5), z_min=5.0, z_max=50.0),
    )
    out = project_lane(k, lane, 20)
    assert np.allclose(out.u, 400.0)
    # v decreases toward the principal row as z grows
    assert np.all(np.diff(out.v) < 0)
    assert np.all(out.v > 160.0)


def test_parallel_lane_gap_shrinks(k):
    z = np.array([5.0, 10.0, 20.0])
    left = project_points(k, np.column_stack([np.full(3, -1.75), np.full(3, 1.5), z]))
    right = project_points(k, np.column_stack([np.full(3, 1.75), np.full(3, 1.5), z]))
    gaps = right[:, 0] - left[:, 0]
    assert gaps[0] == pytest.approx(1000.0 * 3.5 / 5.0)
    assert np.all(np.diff(gaps) < 0)


def test_bumpy_heights_zigzag_constant_u(k):
    z = np.linspace(3.0, 40.0, 72)
    y = 1.5 + 0.3 * np.sin(z)
    pts = project_points(k, np.column_stack([np.zeros_like(z), y, z]))
    assert np.allclose(pts[:, 0], 400.0)
    dv = np.diff(pts[:, 1])
    assert np.any(dv > 0) and np.any(dv < 0)


def test_lane2d_validation():
    with pytest.raises(ValidationError):
        Lane2D(np.array([[1.0, 2.0]]))
    with pytest.raises(ValidationError):
        Lane2D(np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]))
    with pytest.raises(ValidationError):
        Lane2D(np.array([[np.nan, 2.0], [1.0, 2.0]]))


def test_lane2d_points_read_only():
    lane = Lane2D(np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(ValueError):
        lane.points[0, 0] = 9.0


if HAVE_HYPOTHESIS:

    @given(
        x=st.floats(-30, 30),
        y=st.floats(0.1, 10),
        z=st.floats(0.5, 120),
    )
    def test_round_trip_and_homogeneity(x, y, z):
        k = CameraIntrinsics(fx=1000.0, fy=1000.0, ox=400.0, oy=160.0)
        ((u, v),) = project_points(k, np.array([[x, y, z]]))
        rx, ry, rz = invert_to_ground(k, u, v, y)
        assert rx == pytest.approx(x, rel=1e-9, abs=1e-9)
        assert rz == pytest.approx(z, rel=1e-9, abs=1e-9)
        # scale ambiguity: scaling the point leaves the pixel unchanged
        ((u2, v2),) = project_points(k, np.array([[2.5 * x, 2.5 * y, 2.5 * z]]))
        assert u2 == pytest.approx(u, rel=1e-12, abs=1e-9)
        assert v2 == pytest.approx(v, rel=1e-12, abs=1e-9)
