"""Synthetic uneven-road scenes with exact 3D and 2D lane labels.

A scene is one centerline curve copied at lateral offsets over a ground
elevation model, sampled densely in z and projected through a pinhole
camera. The 2D labels are exact projections of the 3D labels, so fitting
and metric code can be validated against a known answer. Ground
elevation depends on z only; a frame's lanes share their height profile,
which matches the flat-or-undulating roads the representation targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .camera import CameraIntrinsics, ImageSpec, Lane2D, project_points
from .errors import ValidationError
from .geometry import MAX_SAMPLE_COUNT, BevCurve

GROUND_KINDS = ("flat", "slope", "sine", "smooth_noise")
# Seeded undulation mixes a few long sinusoids; shorter than this would
# not read as road surface.
MIN_WAVELENGTH = 10.0
# Upper limit on frames per scene recipe in one dataset. Every stage holds
# a dataset in memory whole; the default scene writes about 75 kB per frame.
MAX_FRAMES_PER_SPEC = 1000


@dataclass(frozen=True)
class GroundModel:
    """Ground surface as camera-frame y(z), downward positive.

    flat: y = camera_height. slope: y = camera_height - grade * z, so a
    positive grade climbs toward the camera level. sine: y =
    camera_height + amplitude * sin(2 pi z / wavelength). smooth_noise:
    camera_height plus four seeded sinusoids with wavelengths drawn in
    [10, 50] m whose amplitudes sum to amplitude.
    """

    kind: str = "flat"
    amplitude: float = 0.0
    wavelength: float = 20.0
    grade: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in GROUND_KINDS:
            raise ValidationError(f"ground kind must be one of {GROUND_KINDS}, got {self.kind!r}")
        if self.amplitude < 0.0:
            raise ValidationError("amplitude must be >= 0")
        if self.kind in ("sine", "smooth_noise") and self.wavelength < MIN_WAVELENGTH:
            raise ValidationError(f"wavelength must be >= {MIN_WAVELENGTH} m")
        if self.seed < 0:
            raise ValidationError("ground seed must be >= 0")


def _noise_components(model: GroundModel):
    rng = np.random.default_rng(np.random.SeedSequence([int(model.seed)]))
    wavelengths = rng.uniform(MIN_WAVELENGTH, 50.0, 4)
    phases = rng.uniform(0.0, 2.0 * math.pi, 4)
    raw = rng.uniform(0.5, 1.0, 4)
    amps = model.amplitude * raw / raw.sum()
    return amps, wavelengths, phases


def ground_height(model: GroundModel, z, camera_height: float = 1.5):
    """Ground y (down positive) at forward distance z (scalar or array)."""
    z = np.asarray(z, dtype=float)
    if model.kind == "flat":
        y = np.full_like(z, camera_height)
    elif model.kind == "slope":
        y = camera_height - model.grade * z
    elif model.kind == "sine":
        y = camera_height + model.amplitude * np.sin(2.0 * math.pi * z / model.wavelength)
    else:
        y = np.full_like(z, camera_height)
        amps, wavelengths, phases = _noise_components(model)
        for a, wl, ph in zip(amps, wavelengths, phases):
            y = y + a * np.sin(2.0 * math.pi * z / wl + ph)
    return float(y) if y.ndim == 0 else y


DEFAULT_INTRINSICS = CameraIntrinsics(fx=1000.0, fy=1000.0, ox=400.0, oy=160.0)
DEFAULT_IMAGE = ImageSpec(width=800, height=320)


@dataclass(frozen=True)
class SceneSpec:
    """Recipe for one synthetic road scene."""

    centerline: BevCurve = BevCurve(0.0, 0.0, 0.0, 0.0)
    lateral_offsets: tuple[float, ...] = (-5.25, -1.75, 1.75, 5.25)
    ground: GroundModel = GroundModel()
    z_range: tuple[float, float] = (3.0, 80.0)
    samples_per_lane: int = 200
    camera_height: float = 1.5
    intrinsics: CameraIntrinsics = DEFAULT_INTRINSICS
    image: ImageSpec = DEFAULT_IMAGE
    seed: int = 0
    tag: str = ""

    def __post_init__(self):
        if len(self.lateral_offsets) == 0:
            raise ValidationError("a scene needs at least one lane offset")
        z0, z1 = self.z_range
        if not 0.0 < z0 < z1:
            raise ValidationError(f"need 0 < z_min < z_max, got {self.z_range}")
        if not 2 <= self.samples_per_lane <= MAX_SAMPLE_COUNT:
            raise ValidationError(f"samples_per_lane must be in [2, {MAX_SAMPLE_COUNT}]")
        if self.camera_height <= 0.0:
            raise ValidationError("camera_height must be > 0")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")


@dataclass(frozen=True)
class JitterSpec:
    """Per-frame uniform perturbations applied to a scene recipe.

    Each delta is a half-range; frame values are drawn from the seeded
    frame stream in [-delta, +delta]. All-zero jitter reproduces the base
    scene exactly in every frame.
    """

    curve_delta: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    amplitude_delta: float = 0.0
    grade_delta: float = 0.0
    wavelength_delta: float = 0.0

    def __post_init__(self):
        # the draw's range, 2 * delta wide, must be a finite double
        for delta in (*self.curve_delta, self.amplitude_delta, self.grade_delta,
                      self.wavelength_delta):
            if not abs(2.0 * delta) < math.inf:
                raise ValidationError(f"jitter delta {delta} is too large to draw from")


@dataclass(frozen=True)
class FrameRecord:
    """One generated frame: camera, exact 3D lanes, exact 2D projections."""

    frame_id: int
    tag: str
    seed: int
    intrinsics: CameraIntrinsics
    image: ImageSpec
    camera_height: float
    lanes3d: tuple[np.ndarray, ...]
    lanes2d: tuple[Lane2D, ...]


def generate_frame(spec: SceneSpec, frame_id: int = 0, seed: int | None = None) -> FrameRecord:
    """Sample one frame from a scene recipe.

    Every lane is the centerline shifted laterally, riding the ground
    model; its 2D label is the exact pinhole projection of its 3D points.
    """
    z0, z1 = spec.z_range
    lanes3d = []
    lanes2d = []
    # A recipe of huge finite values overflows to inf or NaN here, and
    # Lane2D then refuses the lane as non-finite.
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.linspace(z0, z1, spec.samples_per_lane)
        y = ground_height(spec.ground, z, spec.camera_height)
        center_x = spec.centerline.x_at(z)
        for offset in spec.lateral_offsets:
            pts = np.column_stack([center_x + offset, y, z])
            pts.setflags(write=False)
            lanes3d.append(pts)
            lanes2d.append(Lane2D(project_points(spec.intrinsics, pts)))
    return FrameRecord(
        frame_id=frame_id,
        tag=spec.tag,
        seed=spec.seed if seed is None else seed,
        intrinsics=spec.intrinsics,
        image=spec.image,
        camera_height=spec.camera_height,
        lanes3d=tuple(lanes3d),
        lanes2d=tuple(lanes2d),
    )


def _jittered(spec: SceneSpec, jitter: JitterSpec, rng: np.random.Generator) -> SceneSpec:
    da, db, dc, dd = (rng.uniform(-d, d) if d > 0.0 else 0.0 for d in jitter.curve_delta)
    curve = spec.centerline
    centerline = BevCurve(curve.a + da, curve.b + db, curve.c + dc, curve.d + dd)
    ground = spec.ground
    amplitude = ground.amplitude
    if jitter.amplitude_delta > 0.0:
        amplitude = max(0.0, amplitude + rng.uniform(-jitter.amplitude_delta, jitter.amplitude_delta))
    grade = ground.grade
    if jitter.grade_delta > 0.0:
        grade = grade + rng.uniform(-jitter.grade_delta, jitter.grade_delta)
    wavelength = ground.wavelength
    if jitter.wavelength_delta > 0.0:
        wavelength = max(
            MIN_WAVELENGTH,
            wavelength + rng.uniform(-jitter.wavelength_delta, jitter.wavelength_delta),
        )
    ground = replace(ground, amplitude=amplitude, grade=grade, wavelength=wavelength)
    return replace(spec, centerline=centerline, ground=ground)


def generate_dataset(
    specs: SceneSpec | list[SceneSpec],
    frames_per_spec: int,
    jitter: JitterSpec | None = None,
    seed: int | None = None,
) -> list[FrameRecord]:
    """Generate frames_per_spec frames for each scene recipe.

    Frame randomness derives from (seed, scene index, frame index) alone,
    so a dataset is a pure function of its arguments. seed overrides the
    per-scene seeds when given.
    """
    if isinstance(specs, SceneSpec):
        specs = [specs]
    if not 1 <= frames_per_spec <= MAX_FRAMES_PER_SPEC:
        raise ValidationError(f"frames_per_spec must be in [1, {MAX_FRAMES_PER_SPEC}]")
    if seed is not None and seed < 0:
        raise ValidationError("seed must be >= 0")
    frames = []
    frame_id = 0
    for scene_index, spec in enumerate(specs):
        base = spec.seed if seed is None else seed
        for i in range(frames_per_spec):
            seq = np.random.SeedSequence([int(base), scene_index, i])
            frame_seed = int(seq.generate_state(1)[0])
            rng = np.random.default_rng(seq)
            frame_spec = _jittered(spec, jitter, rng) if jitter is not None else spec
            frames.append(generate_frame(frame_spec, frame_id=frame_id, seed=frame_seed))
            frame_id += 1
    return frames


def flat_scene(**overrides) -> SceneSpec:
    """Level road; projected lanes are straight image lines."""
    defaults = dict(ground=GroundModel(kind="flat"), tag="flat")
    defaults.update(overrides)
    return SceneSpec(**defaults)


def slope_scene(grade: float = 0.03, **overrides) -> SceneSpec:
    """Constant uphill (positive grade) or downhill road."""
    defaults = dict(ground=GroundModel(kind="slope", grade=grade), tag="slope")
    defaults.update(overrides)
    return SceneSpec(**defaults)


def bump_scene(amplitude: float = 0.3, wavelength: float = 20.0, **overrides) -> SceneSpec:
    """Sinusoidal undulation strong enough to fold the projected lanes.

    With the default camera the projection becomes multivalued in the
    image rows, which is exactly the case that breaks u(v) models.
    """
    defaults = dict(
        ground=GroundModel(kind="sine", amplitude=amplitude, wavelength=wavelength),
        tag="bump",
    )
    defaults.update(overrides)
    return SceneSpec(**defaults)


def rough_scene(amplitude: float = 0.2, seed: int = 0, **overrides) -> SceneSpec:
    """Seeded smooth random undulation."""
    defaults = dict(
        ground=GroundModel(kind="smooth_noise", amplitude=amplitude, seed=seed),
        tag="rough",
    )
    defaults.update(overrides)
    return SceneSpec(**defaults)


# Scene spec files name these in their "preset" key.
SCENE_PRESETS = {"flat": flat_scene, "slope": slope_scene, "bump": bump_scene, "rough": rough_scene}
