import numpy as np
import pytest

from bevlane.camera import CameraIntrinsics, ImageSpec
from bevlane.geometry import BevCurve, HeightProfile, Lane3D

try:
    from hypothesis import HealthCheck, settings

    settings.register_profile(
        "suite",
        deadline=None,
        max_examples=60,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.load_profile("suite")
except ImportError:
    pass


@pytest.fixture
def k():
    return CameraIntrinsics(fx=1000.0, fy=1000.0, ox=400.0, oy=160.0)


@pytest.fixture
def image():
    return ImageSpec(width=800, height=320)


@pytest.fixture
def flat_lane():
    """Straight lane on level ground 1.5 m below the camera."""
    return Lane3D(
        curve=BevCurve(0.0, 0.0, 0.0, 2.0),
        profile=HeightProfile(heights=np.full(72, 1.5), z_min=4.0, z_max=60.0),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
