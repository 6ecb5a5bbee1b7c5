"""Shared helpers for finite-difference gradient checks.

Central differences use per-parameter steps h * scale_p, where the scale
mirrors the leverage of each parameter (a cubic coefficient moves x by
z^3, so its step shrinks by zc^-3). Configurations are rejection-sampled
away from the kinks of the piecewise-smooth losses: sign flips of
absolute differences, and projected rows or endpoints sitting on the
integer row grid, where the set of evaluated rows changes.
"""

import numpy as np

from bevlane.assignment import resample_lane
from bevlane.camera import project_lane
from bevlane.geometry import BevCurve, HeightProfile, Lane3D
from bevlane.losses import project_with_jacobian

FD_STEP = 1e-6
REL_TOL = 1e-5
ABS_FLOOR = 1e-2

# px; FD steps move projected rows by < 3e-4 px, so these are > 15x wide
ENDPOINT_MARGIN = 0.02
VERTEX_MARGIN = 0.005
DU_MARGIN = 0.02


def assert_grad_close(analytic, fd, tol=REL_TOL, floor=ABS_FLOOR, label=""):
    analytic = np.asarray(analytic, dtype=float)
    fd = np.asarray(fd, dtype=float)
    denom = np.maximum(floor, np.maximum(np.abs(analytic), np.abs(fd)))
    err = np.abs(analytic - fd) / denom
    worst = float(err.max()) if err.size else 0.0
    assert worst <= tol, f"{label} rel err {worst:.3e} at {int(np.argmax(err))}"


def leverage_scale(z_max: float) -> float:
    return max(abs(z_max), 1.0)


def curve_scales(z_max: float) -> np.ndarray:
    zc = leverage_scale(z_max)
    return np.array([zc**-3, zc**-2, zc**-1, 1.0])


def geo_scales(n: int, z_max: float) -> np.ndarray:
    return np.concatenate([curve_scales(z_max), np.ones(n + 2)])


def sample_geo(rng, n=72):
    """Random plausible lane geometry vector [curve(4), heights(n), span(2)]."""
    z_min = rng.uniform(3.0, 8.0)
    z_max = rng.uniform(40.0, 70.0)
    curve = np.array(
        [
            rng.uniform(-1e-5, 1e-5),
            rng.uniform(-5e-4, 5e-4),
            rng.uniform(-0.05, 0.05),
            rng.uniform(-3.0, 3.0),
        ]
    )
    z = np.linspace(z_min, z_max, n)
    amp = rng.uniform(0.05, 0.3)
    wavelength = rng.uniform(15.0, 60.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    heights = 1.5 + amp * np.sin(2.0 * np.pi * z / wavelength + phase)
    heights = heights + rng.uniform(-0.01, 0.01, n)
    return np.concatenate([curve, heights, [z_min, z_max]])


def geo_to_lane(geo):
    n = geo.size - 6
    return Lane3D(BevCurve(*geo[:4]), HeightProfile(geo[4 : 4 + n], geo[-2], geo[-1]))


def perturbed_geo(rng, geo):
    """A nearby lane to serve as ground truth for the projected losses."""
    n = geo.size - 6
    out = geo.copy()
    out[0] += rng.uniform(-2e-6, 2e-6)
    out[1] += rng.uniform(-1e-4, 1e-4)
    out[2] += rng.uniform(-0.01, 0.01)
    out[3] += rng.uniform(-0.3, 0.3)
    out[4 : 4 + n] += rng.uniform(-0.05, 0.05, n)
    out[-2] = max(1.0, out[-2] + rng.uniform(-1.0, 1.0))
    out[-1] += rng.uniform(-1.0, 1.0)
    return out


def _near_grid(values, image, margin):
    """True when any value sits within margin of an on-image integer row."""
    values = np.atleast_1d(np.asarray(values, dtype=float))
    keep = (values > -0.5) & (values < image.height - 0.5)
    if not keep.any():
        return False
    off = np.abs(values[keep] - np.round(values[keep]))
    return bool((off < margin).any())


def perspective_margins_ok(geo, k, image, gt, sample_count=72):
    """Reject configurations near the kinks of l_per and l_v."""
    u, v, _, _ = project_with_jacobian(geo, k, sample_count)
    if _near_grid(v, image, VERTEX_MARGIN):
        return False
    if _near_grid([v[0], v[-1]], image, ENDPOINT_MARGIN):
        return False
    if abs(v[0] - gt.v_first) < ENDPOINT_MARGIN or abs(v[-1] - gt.v_last) < ENDPOINT_MARGIN:
        return False

    from bevlane.assignment import first_crossings

    found, seg, t = first_crossings(np.column_stack([u, v]), gt.v_grid)
    common = found & gt.present
    if common.sum() < 5:
        return False
    u_rows = (1.0 - t[common]) * u[seg[common]] + t[common] * u[seg[common] + 1]
    return bool((np.abs(u_rows - gt.u_values[common]) >= DU_MARGIN).all())


def draw_perspective_pair(rng, k, image, n=72, max_tries=400):
    """(pred geo vector, resampled gt) clear of every l_per / l_v kink."""
    for _ in range(max_tries):
        gt_geo = sample_geo(rng, n)
        pred_geo = perturbed_geo(rng, gt_geo)
        if not (0.0 < pred_geo[-2] < pred_geo[-1]):
            continue
        gt = resample_lane(project_lane(k, geo_to_lane(gt_geo), n), image)
        if perspective_margins_ok(pred_geo, k, image, gt, n):
            return pred_geo, gt
    raise AssertionError("no kink-free configuration found")
