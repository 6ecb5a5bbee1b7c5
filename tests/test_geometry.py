import numpy as np
import pytest

from bevlane.errors import ValidationError
from bevlane.geometry import (
    MAX_SAMPLE_COUNT,
    BevCurve,
    HeightProfile,
    Lane3D,
    lane_from_vector,
    lane_to_vector,
    sample_lane,
    sample_lanes,
)

try:
    from hypothesis import given
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False


def make_lane(a=0.0, b=0.0, c=0.0, d=0.0, heights=(1.5, 1.5), z_min=5.0, z_max=10.0):
    return Lane3D(
        curve=BevCurve(a, b, c, d),
        profile=HeightProfile(heights=np.asarray(heights, dtype=float), z_min=z_min, z_max=z_max),
    )


def test_curve_constant():
    assert BevCurve(0, 0, 0, 5).x_at(17.0) == 5.0


def test_curve_identity_line():
    assert BevCurve(0, 0, 1, 0).x_at(2.0) == 2.0


def test_curve_full_cubic():
    assert BevCurve(1, 2, 3, 4).x_at(2.0) == 26.0


def test_curve_matches_power_sum_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b, c, d = rng.normal(size=4)
        z = rng.uniform(-20, 80)
        direct = a * z**3 + b * z**2 + c * z + d
        got = BevCurve(a, b, c, d).x_at(z)
        assert got == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_curve_rejects_nonfinite():
    with pytest.raises(ValidationError):
        BevCurve(np.nan, 0, 0, 0)
    with pytest.raises(ValidationError):
        BevCurve(0, np.inf, 0, 0)


def test_height_exact_keypoint():
    p = HeightProfile(heights=np.array([1.0, 3.0]), z_min=0.0, z_max=10.0)
    assert p.y_at(0.0) == 1.0


def test_height_midpoint():
    p = HeightProfile(heights=np.array([1.0, 3.0]), z_min=0.0, z_max=10.0)
    assert p.y_at(5.0) == 2.0


def test_height_clamps_below_range():
    p = HeightProfile(heights=np.array([1.0, 3.0]), z_min=0.0, z_max=10.0)
    assert p.y_at(-4.0) == 1.0
    assert p.y_at(25.0) == 3.0


def test_height_keypoints_uniform():
    p = HeightProfile(heights=np.zeros(5), z_min=2.0, z_max=10.0)
    assert np.allclose(p.keypoint_z(), [2, 4, 6, 8, 10])


def test_height_profile_validation():
    with pytest.raises(ValidationError):
        HeightProfile(heights=np.array([1.0]), z_min=0.0, z_max=1.0)
    with pytest.raises(ValidationError):
        HeightProfile(heights=np.array([1.0, 2.0]), z_min=5.0, z_max=5.0)
    with pytest.raises(ValidationError, match="height must be finite, got nan"):
        HeightProfile(heights=np.array([1.0, np.nan]), z_min=0.0, z_max=1.0)
    with pytest.raises(ValidationError, match="height must be finite, got inf"):
        HeightProfile(heights=[1.0, np.inf, np.nan], z_min=0.0, z_max=1.0)
    with pytest.raises(ValidationError, match="heights must be 1-d"):
        HeightProfile(heights=[[1.0, 2.0], [3.0, 4.0]], z_min=0.0, z_max=1.0)
    profile = HeightProfile(heights=[1, np.float64(2.5)], z_min=0.0, z_max=1.0)
    assert profile.heights == (1.0, 2.5) and {type(h) for h in profile.heights} == {float}


def test_lane_requires_positive_z_min():
    with pytest.raises(ValidationError):
        make_lane(z_min=0.0)


def test_sample_flat_straight_lane():
    lane = make_lane(heights=(1.5, 1.5), z_min=5.0, z_max=10.0)
    pts = sample_lane(lane, 2)
    assert np.allclose(pts, [[0.0, 1.5, 5.0], [0.0, 1.5, 10.0]])


def test_sample_midpoint_z():
    lane = make_lane(z_min=5.0, z_max=10.0)
    pts = sample_lane(lane, 3)
    assert pts[1, 2] == 7.5


def test_sample_x_equals_z():
    lane = make_lane(c=1.0, heights=(0.0, 0.0), z_min=1.0, z_max=3.0)
    pts = sample_lane(lane, 3)
    assert np.allclose(pts[:, 0], [1.0, 2.0, 3.0])


def test_sample_z_strictly_increasing_and_exact_ends():
    lane = make_lane(a=1e-4, b=-2e-3, c=0.05, d=-2.0, heights=(1.2, 1.8, 1.4), z_min=3.0, z_max=71.0)
    pts = sample_lane(lane, 72)
    z = pts[:, 2]
    assert z[0] == 3.0 and z[-1] == 71.0
    assert np.all(np.diff(z) > 0)


def test_sample_lanes_of_no_lane_and_bad_counts():
    assert sample_lanes([], 5).shape == (0, 5, 3)
    lane = make_lane()
    for count in (1, MAX_SAMPLE_COUNT + 1):
        with pytest.raises(ValidationError, match="sample count"):
            sample_lanes([lane], count)
        with pytest.raises(ValidationError, match="sample count"):
            sample_lane(lane, count)


def test_vector_round_trip():
    lane = make_lane(a=1e-5, b=1e-3, c=-0.1, d=2.0, heights=(1.0, 1.5, 2.0, 1.2), z_min=4.0, z_max=44.0)
    vec = lane_to_vector(lane)
    assert vec.shape == (4 + 4 + 2,)
    back = lane_from_vector(vec)
    assert back.curve == lane.curve
    assert np.array_equal(back.profile.heights, lane.profile.heights)
    assert back.profile.z_min == lane.profile.z_min
    assert back.profile.z_max == lane.profile.z_max


if HAVE_HYPOTHESIS:

    @given(
        heights=st.lists(st.floats(-5, 5), min_size=2, max_size=12),
        z=st.floats(-50, 150),
    )
    def test_height_eval_bounded_by_keypoints(heights, z):
        p = HeightProfile(heights=np.asarray(heights), z_min=1.0, z_max=90.0)
        y = p.y_at(z)
        assert min(heights) - 1e-12 <= y <= max(heights) + 1e-12

    @given(count=st.integers(2, 200))
    def test_sample_count_and_order(count):
        lane = make_lane(z_min=2.0, z_max=50.0)
        pts = sample_lane(lane, count)
        assert pts.shape == (count, 3)
        assert np.all(np.diff(pts[:, 2]) > 0)
