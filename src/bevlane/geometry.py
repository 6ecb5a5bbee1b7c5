"""Lane geometry in the road frame.

Coordinates follow a left-hand camera-aligned frame: x lateral (right
positive), y vertical (down positive, so points on the ground below the
camera have y > 0), z forward. A lane is decoupled into a cubic curve
x(z) describing its bird's-eye-view shape and an independent piecewise
linear height profile y(z) sampled at uniformly spaced keypoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import ValidationError

# Sample count for densifying a lane into a polyline.
DEFAULT_SAMPLE_COUNT = 72
# Upper limit on samples per lane, for densifying and for synthetic labels:
# a single count is otherwise enough to ask for gigabytes.
MAX_SAMPLE_COUNT = 2000


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class BevCurve:
    """Cubic x(z) = a*z^3 + b*z^2 + c*z + d in the bird's-eye view."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))

    def x_at(self, z):
        """Lateral offset at forward distance z (scalar or array)."""
        x = polyval(np.asarray(z, dtype=float), self.coefficients())
        return float(x) if np.ndim(x) == 0 else x

    def coefficients(self) -> np.ndarray:
        """Ascending-power coefficient vector [d, c, b, a]."""
        return np.array([self.d, self.c, self.b, self.a])


@dataclass(frozen=True)
class HeightProfile:
    """Piecewise linear ground height y(z) over [z_min, z_max].

    Keypoints sit at uniform forward distances; evaluation clamps to the
    end values outside the span, so the profile is defined for all z.
    """

    heights: tuple[float, ...]
    z_min: float
    z_max: float

    def __post_init__(self):
        values = np.asarray(self.heights, dtype=float)
        if values.ndim != 1:
            raise ValidationError(f"heights must be 1-d, got shape {values.shape}")
        if not np.isfinite(values).all():
            _require_finite("height", values[~np.isfinite(values)][0])
        heights = tuple(values.tolist())
        object.__setattr__(self, "heights", heights)
        object.__setattr__(self, "z_min", _require_finite("z_min", self.z_min))
        object.__setattr__(self, "z_max", _require_finite("z_max", self.z_max))
        if len(heights) < 2:
            raise ValidationError("height profile needs at least 2 keypoints")
        if not self.z_min < self.z_max:
            raise ValidationError(
                f"z_min must be < z_max, got [{self.z_min}, {self.z_max}]"
            )

    def keypoint_z(self) -> np.ndarray:
        """Forward distances of the keypoints (uniform, inclusive ends)."""
        return np.linspace(self.z_min, self.z_max, len(self.heights))

    def y_at(self, z):
        """Interpolated height at z; clamps to end keypoints outside the span."""
        z = np.asarray(z, dtype=float)
        y = np.interp(z, self.keypoint_z(), np.asarray(self.heights))
        return float(y) if y.ndim == 0 else y


@dataclass(frozen=True)
class Lane3D:
    """A lane: BEV curve plus height profile.

    The profile's [z_min, z_max] span doubles as the lane's longitudinal
    extent. z_min must be positive so every sample sits in front of the
    camera.
    """

    curve: BevCurve
    profile: HeightProfile

    def __post_init__(self):
        if self.profile.z_min <= 0.0:
            raise ValidationError(f"lane z_min must be > 0, got {self.profile.z_min}")

    @property
    def z_min(self) -> float:
        return self.profile.z_min

    @property
    def z_max(self) -> float:
        return self.profile.z_max


def sample_lane(lane: Lane3D, count: int = DEFAULT_SAMPLE_COUNT) -> np.ndarray:
    """Densify a lane into a (count, 3) array of [x, y, z] points.

    Samples are uniform in z over the lane's span, so consecutive points
    strictly increase in z.
    """
    return sample_lanes([lane], count)[0]


def sample_lanes(lanes: list[Lane3D], count: int = DEFAULT_SAMPLE_COUNT) -> np.ndarray:
    """sample_lane of every lane, as one (len(lanes), count, 3) array.

    Each lane's samples use only its own numbers, with the same
    elementwise operations as BevCurve.x_at and HeightProfile.y_at, so
    they do not depend on the rest of the stack.
    """
    if not 2 <= count <= MAX_SAMPLE_COUNT:
        raise ValidationError(f"sample count must be in [2, {MAX_SAMPLE_COUNT}], got {count}")
    out = np.empty((len(lanes), count, 3))
    if not lanes:
        return out
    curves = np.array([lane.curve.coefficients() for lane in lanes])
    spans = np.array([[lane.z_min, lane.z_max] for lane in lanes])
    z = np.linspace(spans[:, 0], spans[:, 1], count, axis=1)
    out[:, :, 0] = polyval(z, curves.T[..., None], tensor=False)
    for i, lane in enumerate(lanes):
        out[i, :, 1] = lane.profile.y_at(z[i])
    out[:, :, 2] = z
    return out


# A lane's free parameters as one flat vector, used by losses and fitting:
# [a, b, c, d, h_0 .. h_{n-1}, z_min, z_max], length n + 6.
def lane_to_vector(lane: Lane3D) -> np.ndarray:
    c = lane.curve
    return np.concatenate(
        [
            [c.a, c.b, c.c, c.d],
            lane.profile.heights,
            [lane.z_min, lane.z_max],
        ]
    )


def lane_from_vector(vec: np.ndarray) -> Lane3D:
    vec = np.asarray(vec, dtype=float)
    if vec.ndim != 1 or vec.size < 8:
        raise ValidationError("parameter vector must be 1-d with length n + 6, n >= 2")
    curve = BevCurve(*vec[:4])
    profile = HeightProfile(heights=tuple(vec[4:-2]), z_min=float(vec[-2]), z_max=float(vec[-1]))
    return Lane3D(curve=curve, profile=profile)
