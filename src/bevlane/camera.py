"""Pinhole projection between the road frame and the image plane.

Image coordinates: u right, v down, origin at the top-left corner.
Projection follows u = fx * x / z + ox, v = fy * y / z + oy. Points with
z <= 0 sit behind the camera and cannot be projected. Projected points
are kept even when they fall outside the image bounds; clipping is the
concern of rasterization, not of projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .geometry import DEFAULT_SAMPLE_COUNT, Lane3D, sample_lane


@dataclass(frozen=True)
class CameraIntrinsics:
    """Focal lengths and principal point, all in pixels."""

    fx: float
    fy: float
    ox: float
    oy: float

    def __post_init__(self):
        for name in ("fx", "fy", "ox", "oy"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        if self.fx <= 0.0 or self.fy <= 0.0:
            raise ValidationError("focal lengths must be positive")


@dataclass(frozen=True)
class ImageSpec:
    """Pixel dimensions of the image plane."""

    width: int
    height: int

    def __post_init__(self):
        if int(self.width) != self.width or int(self.height) != self.height:
            raise ValidationError("image dimensions must be integers")
        object.__setattr__(self, "width", int(self.width))
        object.__setattr__(self, "height", int(self.height))
        if self.width < 1 or self.height < 1:
            raise ValidationError("image dimensions must be >= 1")


class Lane2D:
    """An ordered 2D lane polyline in image coordinates.

    Points are stored as a read-only (m, 2) float array of [u, v] rows,
    ordered near to far (v generally decreasing for forward lanes, though
    uneven ground may fold the ordering locally).
    """

    __slots__ = ("points",)

    def __init__(self, points):
        pts = np.array(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValidationError(f"lane points must be (m, 2), got {pts.shape}")
        if pts.shape[0] < 2:
            raise ValidationError("a 2D lane needs at least 2 points")
        if not np.isfinite(pts).all():
            raise ValidationError("lane points must be finite")
        pts.setflags(write=False)
        self.points = pts

    @property
    def u(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def v(self) -> np.ndarray:
        return self.points[:, 1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Lane2D):
            return NotImplemented
        return np.array_equal(self.points, other.points)

    def __repr__(self) -> str:
        return f"Lane2D({self.points.shape[0]} points)"


def project_point(k: CameraIntrinsics, x: float, y: float, z: float) -> tuple[float, float]:
    """Project one road-frame point to pixel coordinates."""
    if z <= 0.0:
        raise DomainError(f"cannot project point with z <= 0 (z = {z})")
    return k.fx * x / z + k.ox, k.fy * y / z + k.oy


def project_points(k: CameraIntrinsics, points: np.ndarray) -> np.ndarray:
    """Project an (m, 3) array of [x, y, z] points to an (m, 2) array of [u, v]."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValidationError(f"expected (m, 3) points, got {points.shape}")
    z = points[:, 2]
    if np.any(z <= 0.0):
        raise DomainError("cannot project points with z <= 0")
    u = k.fx * points[:, 0] / z + k.ox
    v = k.fy * points[:, 1] / z + k.oy
    return np.column_stack([u, v])


def project_lane(k: CameraIntrinsics, lane: Lane3D, count: int = DEFAULT_SAMPLE_COUNT) -> Lane2D:
    """Sample a 3D lane and project it into a 2D polyline."""
    return Lane2D(project_points(k, sample_lane(lane, count)))


def invert_to_ground(k: CameraIntrinsics, u, v, y: float) -> np.ndarray:
    """Back-project pixels onto the horizontal plane at height y > 0.

    u and v are scalars or equal-shape arrays. Returns the [x, y, z]
    road-frame points, shape (..., 3). Only pixels below the horizon row
    oy can land on a plane below the camera, so every v must exceed oy.
    """
    if y <= 0.0:
        raise DomainError(f"ground plane height must be > 0, got {y}")
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    if np.any(v <= k.oy):
        raise DomainError(f"pixel rows must lie below the horizon row {k.oy}, got min {v.min()}")
    z = k.fy * y / (v - k.oy)
    x = (u - k.ox) * z / k.fx
    return np.stack([x, np.full_like(z, y), z], axis=-1)
