"""Decoupled 3D lane modeling: a cubic bird's-eye-view curve plus an
independent ground-height profile, with projection, matching, losses,
fitting, synthetic data, metrics and a small CLI."""

from .assignment import (
    MatchResult,
    ResampledLane2D,
    hungarian_assign,
    match_lanes,
    resample_lane,
)
from .camera import (
    CameraIntrinsics,
    ImageSpec,
    Lane2D,
    invert_to_ground,
    project_lane,
    project_points,
)
from .geometry import (
    BevCurve,
    HeightProfile,
    Lane3D,
    lane_from_vector,
    lane_to_vector,
    sample_lane,
)
from .losses import (
    bev_iou_loss,
    endpoint_z_loss,
    height_loss,
    height_variance_reg,
    perspective_losses,
)

__version__ = "0.1.0"

__all__ = [
    "BevCurve",
    "CameraIntrinsics",
    "HeightProfile",
    "ImageSpec",
    "Lane2D",
    "Lane3D",
    "MatchResult",
    "ResampledLane2D",
    "bev_iou_loss",
    "endpoint_z_loss",
    "height_loss",
    "height_variance_reg",
    "hungarian_assign",
    "invert_to_ground",
    "lane_from_vector",
    "lane_to_vector",
    "match_lanes",
    "perspective_losses",
    "project_lane",
    "project_points",
    "resample_lane",
    "sample_lane",
]
