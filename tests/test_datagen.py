"""Tests for the synthetic uneven-road scene generator."""

import numpy as np
import pytest

from bevlane.camera import project_points
from bevlane.datagen import (
    GroundModel,
    JitterSpec,
    SceneSpec,
    bump_scene,
    flat_scene,
    generate_dataset,
    generate_frame,
    ground_height,
    rough_scene,
    slope_scene,
)
from bevlane.errors import ValidationError
from bevlane.fitting import fit_bev_polynomial
from bevlane.geometry import BevCurve


class TestGroundHeight:
    def test_flat_is_camera_height_everywhere(self):
        model = GroundModel(kind="flat")
        z = np.linspace(3.0, 80.0, 50)
        assert np.all(ground_height(model, z, 1.5) == 1.5)

    def test_sine_quarter_wave_peak(self):
        # Quarter wavelength puts sin at +1: y = 1.5 + 0.3.
        model = GroundModel(kind="sine", amplitude=0.3, wavelength=20.0)
        y = ground_height(model, np.array([5.0]), 1.5)
        assert y[0] == pytest.approx(1.8, abs=1e-12)

    def test_slope_drops_y_with_distance(self):
        # Uphill road rises toward the horizon, so camera-frame y falls.
        model = GroundModel(kind="slope", grade=0.03)
        y = ground_height(model, np.array([10.0]), 1.5)
        assert y[0] == pytest.approx(1.2, abs=1e-12)

    def test_zero_amplitude_sine_matches_flat(self):
        z = np.linspace(3.0, 80.0, 64)
        flat = ground_height(GroundModel(kind="flat"), z, 1.5)
        sine = ground_height(GroundModel(kind="sine", amplitude=0.0), z, 1.5)
        np.testing.assert_array_equal(flat, sine)

    def test_smooth_noise_is_seeded(self):
        z = np.linspace(3.0, 80.0, 64)
        a = ground_height(GroundModel(kind="smooth_noise", amplitude=0.2, seed=7), z, 1.5)
        b = ground_height(GroundModel(kind="smooth_noise", amplitude=0.2, seed=7), z, 1.5)
        c = ground_height(GroundModel(kind="smooth_noise", amplitude=0.2, seed=8), z, 1.5)
        np.testing.assert_array_equal(a, b)
        assert np.any(a != c)

    def test_smooth_noise_stays_within_amplitude(self):
        # Component amplitudes sum to the requested amplitude, so the total
        # deviation can never exceed it.
        z = np.linspace(3.0, 80.0, 4000)
        for seed in range(5):
            model = GroundModel(kind="smooth_noise", amplitude=0.2, seed=seed)
            y = ground_height(model, z, 1.5)
            assert np.max(np.abs(y - 1.5)) <= 0.2 + 1e-12

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError):
            GroundModel(kind="volcano")

    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValidationError):
            GroundModel(kind="sine", amplitude=-0.1)

    def test_rejects_short_wavelength(self):
        with pytest.raises(ValidationError):
            GroundModel(kind="sine", amplitude=0.3, wavelength=5.0)


class TestSceneValidation:
    def test_rejects_empty_offsets(self):
        with pytest.raises(ValidationError):
            SceneSpec(lateral_offsets=())

    def test_rejects_bad_z_range(self):
        with pytest.raises(ValidationError):
            SceneSpec(z_range=(10.0, 3.0))

    def test_rejects_nonpositive_camera(self):
        with pytest.raises(ValidationError):
            SceneSpec(camera_height=0.0)

    def test_lane_count(self):
        assert len(flat_scene().lateral_offsets) == 4


class TestGenerateFrame:
    def test_lanes2d_is_exact_projection_of_lanes3d(self):
        frame = generate_frame(bump_scene(), frame_id=3)
        assert len(frame.lanes2d) == len(frame.lanes3d) == 4
        for lane3d, lane2d in zip(frame.lanes3d, frame.lanes2d):
            np.testing.assert_array_equal(
                lane2d.points, project_points(frame.intrinsics, lane3d)
            )

    def test_lanes3d_are_read_only(self):
        frame = generate_frame(flat_scene())
        with pytest.raises(ValueError):
            frame.lanes3d[0][0, 0] = 99.0

    def test_bev_path_is_recoverable_cubic(self):
        # Each lane is the centerline cubic shifted laterally, so a cubic
        # x(z) fit should reproduce it to rounding.
        spec = flat_scene(centerline=BevCurve(1e-5, -4e-4, 0.02, 0.5))
        frame = generate_frame(spec)
        for lane3d in frame.lanes3d:
            fit = fit_bev_polynomial(lane3d, order=3)
            xs = np.polyval(fit.coefficients[::-1], lane3d[:, 2])
            assert np.max(np.abs(xs - lane3d[:, 0])) < 1e-9

    def test_centered_flat_lane_projects_to_vertical_column(self):
        spec = flat_scene(lateral_offsets=(0.0,))
        frame = generate_frame(spec)
        u = frame.lanes2d[0].u
        assert np.max(np.abs(u - frame.intrinsics.ox)) < 1e-9

    def test_flat_lanes_converge_toward_vanishing_point(self):
        frame = generate_frame(flat_scene())
        k = frame.intrinsics
        for lane2d in frame.lanes2d:
            du = np.abs(lane2d.u - k.ox)
            dv = lane2d.v - k.oy
            # Points are ordered near to far: offsets shrink monotonically
            # and rows stay below the horizon while climbing toward it.
            assert np.all(np.diff(du) < 0.0)
            assert np.all(dv > 0.0)
            assert np.all(np.diff(lane2d.v) < 0.0)

    def test_bump_scene_folds_image_rows(self):
        # The undulation makes v(z) non monotone while a centered lane
        # keeps u fixed: exactly the geometry u(v) models cannot express.
        spec = bump_scene(lateral_offsets=(0.0,))
        frame = generate_frame(spec)
        v = frame.lanes2d[0].v
        dv = np.diff(v)
        assert np.any(dv > 0.0) and np.any(dv < 0.0)
        assert np.max(np.abs(frame.lanes2d[0].u - frame.intrinsics.ox)) < 1e-9

    def test_frame_metadata(self):
        frame = generate_frame(slope_scene(), frame_id=11, seed=42)
        assert frame.frame_id == 11
        assert frame.tag == "slope"
        assert frame.seed == 42
        assert frame.camera_height == 1.5


class TestGenerateDataset:
    def test_same_arguments_same_frames(self):
        specs = [flat_scene(), bump_scene(), rough_scene(seed=3)]
        jitter = JitterSpec(curve_delta=(0.0, 5e-4, 0.02, 0.5), amplitude_delta=0.05)
        a = generate_dataset(specs, 4, jitter=jitter, seed=99)
        b = generate_dataset(specs, 4, jitter=jitter, seed=99)
        assert len(a) == len(b) == 12
        for fa, fb in zip(a, b):
            assert fa.seed == fb.seed
            for la, lb in zip(fa.lanes3d, fb.lanes3d):
                np.testing.assert_array_equal(la, lb)

    def test_zero_jitter_reproduces_base_scene(self):
        frames = generate_dataset(bump_scene(), 5, jitter=JitterSpec())
        first = frames[0]
        for frame in frames[1:]:
            for la, lb in zip(first.lanes3d, frame.lanes3d):
                np.testing.assert_array_equal(la, lb)

    def test_jitter_varies_frames(self):
        jitter = JitterSpec(curve_delta=(0.0, 0.0, 0.0, 0.5))
        frames = generate_dataset(flat_scene(), 3, jitter=jitter)
        xs = [frame.lanes3d[0][0, 0] for frame in frames]
        assert len(set(xs)) > 1

    def test_frame_ids_run_across_scenes(self):
        frames = generate_dataset([flat_scene(), slope_scene()], 3)
        assert [f.frame_id for f in frames] == list(range(6))
        assert [f.tag for f in frames] == ["flat"] * 3 + ["slope"] * 3

    def test_seed_override_changes_jittered_output(self):
        jitter = JitterSpec(curve_delta=(0.0, 0.0, 0.0, 0.5))
        a = generate_dataset(flat_scene(), 2, jitter=jitter, seed=1)
        b = generate_dataset(flat_scene(), 2, jitter=jitter, seed=2)
        assert a[0].lanes3d[0][0, 0] != b[0].lanes3d[0][0, 0]

    def test_rejects_zero_frames(self):
        with pytest.raises(ValidationError):
            generate_dataset(flat_scene(), 0)
