"""Fitting lanes to labeled points: least squares plus gradient refinement.

Direct fits handle the supervised pieces (polynomial BEV curve, height
keypoints, a perspective-space polynomial baseline); with 3D labels they
are the whole fit (label_init). With 2D labels only, momentum gradient
descent on the image-plane losses recovers the lane from a flat-ground
start (ipm_init). fit_lanes, the one fitter, scores a stack of lanes
with losses.lane_losses and without 3D labels descends them, each lane
with its own step scales, velocity, best iterate and stop; fit_lane_3d
and fit_lane_2d are its stacks of one. The descent runs in a diagonally
rescaled parameter space: curve coefficients act on different powers of
z, so their raw gradient magnitudes differ by orders of magnitude and
unscaled steps either crawl or blow up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from .assignment import ResampledLane2D
from .camera import CameraIntrinsics, Lane2D, invert_to_ground, project_points
from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    NonFiniteError,
    RankDeficientError,
    ValidationError,
)
from .geometry import BevCurve, HeightProfile, Lane3D, lane_from_vector, lane_to_vector
from .losses import (
    DEFAULT_PERSPECTIVE_IOU,
    IoUConfig,
    LaneTargets,
    LossWeights,
    bernstein_basis,
    lane_losses,
)

MOMENTUM = 0.9
# Hard floor on z_min and on the span so samples stay in front of the camera.
Z_FLOOR = 0.1
MIN_SPAN = 0.5
# Heights and span endpoints feel the raw-pixel endpoint loss, whose slope
# per unit parameter is fy/z-ish (hundreds), versus the row-averaged IoU
# slopes of order 1/(e * rows). Equal steps overshoot those creases by
# meters, so these parameters take steps damped by this factor squared.
ROW_TERM_DAMP = 1e-2

# Upper limit on height keypoints per lane; the 2D fit holds (lanes x
# keypoints) arrays, and every predicted lane stores its keypoints.
MAX_KEYPOINTS = 1000

_ORDERS = (2, 3, 4, "bezier")

# Row j holds the s^j coefficients of the four cubic Bernstein polynomials.
_BERNSTEIN_TO_S = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [-3.0, 3.0, 0.0, 0.0],
        [3.0, -6.0, 3.0, 0.0],
        [-1.0, 3.0, -3.0, 1.0],
    ]
)


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the fitters and model selection.

    order picks the BEV curve model: polynomial degree 2, 3 or 4, or
    "bezier" for a cubic on the Bernstein basis. Degree 4 is available
    for the least-squares comparison only; the lane representation (and
    gradient refinement) is cubic.

    label_init reads order and keypoints. fit_lanes reads order, and
    without 3D labels the descent knobs max_iters, step_size and
    plateau_patience (at least 1). ipm_init reads order, keypoints and
    ipm_camera_height (finite and > 0). keypoints runs from 2 to
    MAX_KEYPOINTS. The CLI takes its defaults from here.
    """

    max_iters: int = 60
    step_size: float = 1e-2
    plateau_patience: int = 15
    order: int | str = 3
    keypoints: int = 72
    ipm_camera_height: float = 1.5

    def __post_init__(self):
        if self.order not in _ORDERS:
            raise ValidationError(f"order must be one of {_ORDERS}, got {self.order!r}")
        if self.max_iters < 0 or self.plateau_patience < 1:
            raise ValidationError("bad fit configuration")
        if not 0.0 < self.step_size < np.inf:
            raise ValidationError(f"step_size must be finite and > 0, got {self.step_size}")
        if not 0.0 < self.ipm_camera_height < np.inf:
            raise ValidationError(
                f"ipm_camera_height must be finite and > 0, got {self.ipm_camera_height}"
            )
        if not 2 <= self.keypoints <= MAX_KEYPOINTS:
            raise ValidationError(
                f"keypoints must be in [2, {MAX_KEYPOINTS}], got {self.keypoints}"
            )


@dataclass(frozen=True)
class PolyFit:
    """A least-squares BEV curve fit.

    coefficients are ascending powers of z; a Bernstein fit is stored as
    its equivalent power coefficients.
    """

    coefficients: np.ndarray
    basis: str
    rms_residual: float
    max_residual: float

    def x_at(self, z):
        x = polyval(np.asarray(z, dtype=float), self.coefficients)
        return float(x) if np.ndim(x) == 0 else x

    def to_curve(self) -> BevCurve:
        """Collapse to the cubic lane curve; degree-4 fits do not fit."""
        c = np.zeros(4)
        if self.coefficients.size > 4 and np.any(self.coefficients[4:] != 0.0):
            raise ValidationError("degree-4 fit cannot be expressed as a cubic curve")
        c[: min(4, self.coefficients.size)] = self.coefficients[:4]
        return BevCurve(a=c[3], b=c[2], c=c[1], d=c[0])


def bernstein_to_power(control: np.ndarray, z_min: float, z_max: float) -> np.ndarray:
    """Ascending-z cubic coefficients of a Bernstein curve over [z_min, z_max]."""
    span = z_max - z_min
    if span <= 0.0:
        raise ValidationError("z span must be positive")
    coeffs_s = _BERNSTEIN_TO_S @ np.asarray(control, dtype=float)
    poly_s = np.polynomial.Polynomial(coeffs_s)
    poly_z = poly_s(np.polynomial.Polynomial([-z_min / span, 1.0 / span]))
    out = np.zeros(4)
    out[: poly_z.coef.size] = poly_z.coef
    return out


def power_to_bernstein(coefficients: np.ndarray, z_min: float, z_max: float) -> np.ndarray:
    """Control values of the cubic over [z_min, z_max], inverse of the above."""
    span = z_max - z_min
    if span <= 0.0:
        raise ValidationError("z span must be positive")
    poly_z = np.polynomial.Polynomial(np.asarray(coefficients, dtype=float))
    poly_s = poly_z(np.polynomial.Polynomial([z_min, span]))
    coeffs_s = np.zeros(4)
    coeffs_s[: poly_s.coef.size] = poly_s.coef
    return np.linalg.solve(_BERNSTEIN_TO_S, coeffs_s)


def fit_bev_polynomial(points: np.ndarray, order: int | str = 3) -> PolyFit:
    """Least-squares x(z) over 3D lane points, shape (m, 3) of [x, y, z].

    order 2, 3 or 4 fits that polynomial degree; "bezier" fits a cubic on
    the Bernstein basis over the points' z span. Raises
    RankDeficientError when there are fewer distinct z values than
    unknowns.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValidationError(f"expected (m, 3) points, got {points.shape}")
    if order not in _ORDERS:
        raise ValidationError(f"order must be one of {_ORDERS}, got {order!r}")
    z, x = points[:, 2], points[:, 0]
    n_unknowns = 4 if order == "bezier" else order + 1
    if np.unique(z).size < n_unknowns:
        raise RankDeficientError(
            f"{np.unique(z).size} distinct z values cannot determine {n_unknowns} coefficients"
        )

    if order == "bezier":
        z0, z1 = float(z.min()), float(z.max())
        design = bernstein_basis((z - z0) / (z1 - z0))
    else:
        design = np.vander(z, order + 1, increasing=True)
    coeffs, *_ = np.linalg.lstsq(design, x, rcond=None)
    residual = design @ coeffs - x
    return PolyFit(
        coefficients=bernstein_to_power(coeffs, z0, z1) if order == "bezier" else coeffs,
        basis="bernstein" if order == "bezier" else "power",
        rms_residual=float(np.sqrt(np.mean(residual**2))),
        max_residual=float(np.max(np.abs(residual))),
    )


def fit_heights_direct(
    points: np.ndarray, keypoints: int, z_min: float | None = None, z_max: float | None = None
) -> HeightProfile:
    """Height keypoints read straight off labeled points by interpolation.

    The span defaults to the points' z range. Needs at least two points
    with distinct z.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3 or points.shape[0] < 2:
        raise DegenerateInputError("need at least two [x, y, z] points")
    order = np.argsort(points[:, 2], kind="stable")
    z, y = points[order, 2], points[order, 1]
    if z[0] == z[-1]:
        raise DegenerateInputError("points span no z range")
    lo = float(z[0]) if z_min is None else float(z_min)
    hi = float(z[-1]) if z_max is None else float(z_max)
    grid = np.linspace(lo, hi, keypoints)
    heights = np.interp(grid, z, y)
    return HeightProfile(heights=tuple(heights), z_min=lo, z_max=hi)


@dataclass(frozen=True)
class PerspectiveFit:
    """A least-squares u(v) polynomial, the coupled-image-space baseline."""

    coefficients: np.ndarray
    rms_residual: float
    max_residual: float

    def u_at(self, v):
        u = polyval(np.asarray(v, dtype=float), self.coefficients)
        return float(u) if np.ndim(u) == 0 else u


def fit_perspective_baseline(lane: Lane2D, order: int = 3) -> PerspectiveFit:
    """Fit u as a polynomial of v directly in the image plane.

    On uneven ground the projected lane can fold back in v, which no
    function u(v) can follow; the residuals record how badly.
    """
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")
    u, v = lane.u, lane.v
    if np.unique(v).size < order + 1:
        raise RankDeficientError(
            f"{np.unique(v).size} distinct rows cannot determine {order + 1} coefficients"
        )
    design = np.vander(v, order + 1, increasing=True)
    coeffs, *_ = np.linalg.lstsq(design, u, rcond=None)
    residual = design @ coeffs - u
    return PerspectiveFit(
        coefficients=coeffs,
        rms_residual=float(np.sqrt(np.mean(residual**2))),
        max_residual=float(np.max(np.abs(residual))),
    )


@dataclass(frozen=True)
class FitReport:
    """Outcome of a fit.

    terms holds the loss pieces at the returned lane: without 3D labels
    the best iterate seen, never worse than the initialization. No fitter
    stops on a convergence test, so converged is always False.
    """

    lane: Lane3D
    iterations: int
    converged: bool
    terms: dict[str, float]


def _scales(theta: np.ndarray, basis: str) -> np.ndarray:
    """Per-parameter step scales; curve coefficients scale by z powers,
    heights and span endpoints are damped against the endpoint-row creases."""
    scales = np.ones(theta.size)
    if basis == "power":
        zc = max(abs(float(theta[-1])), 1.0)
        scales[0] = zc**-3
        scales[1] = zc**-2
        scales[2] = zc**-1
    scales[4:] = ROW_TERM_DAMP
    return scales


def _clamp_span(theta: np.ndarray) -> None:
    """Keep z_min above the floor and the span at least MIN_SPAN, per lane."""
    theta[..., -2] = np.maximum(theta[..., -2], Z_FLOOR)
    theta[..., -1] = np.maximum(theta[..., -1], theta[..., -2] + MIN_SPAN)


def _check_finite(loss: np.ndarray, grad: np.ndarray, iteration: int) -> None:
    grad_ok = np.isfinite(grad).all(axis=-1)
    if np.any(np.isnan(loss) | (np.isfinite(loss) & ~grad_ok)):
        raise NonFiniteError(f"objective became non-finite at iteration {iteration}")


def _theta_to_lane(theta: np.ndarray, basis: str) -> Lane3D:
    vec = np.append(theta, 1.0)  # score
    if basis == "bernstein":
        vec[:4] = bernstein_to_power(theta[:4], float(theta[-2]), float(theta[-1]))[::-1]
    return lane_from_vector(vec)


def _lane_to_theta(lane: Lane3D, basis: str) -> np.ndarray:
    geo = lane_to_vector(lane)[:-1]
    if basis == "bernstein":
        geo[:4] = power_to_bernstein(geo[3::-1], lane.z_min, lane.z_max)
    return geo


def fit_lanes(
    gts: list[ResampledLane2D],
    intrinsics: list[CameraIntrinsics],
    inits: list[Lane3D],
    cfg: FitConfig = FitConfig(),
    per_iou: IoUConfig = DEFAULT_PERSPECTIVE_IOU,
    weights: LossWeights = LossWeights(),
    labels3d: list[np.ndarray] | None = None,
) -> list[FitReport]:
    """Fit a stack of lanes from their starts, one report per lane.

    The targets share one row grid; intrinsics holds each lane's camera.
    With 3D labels (one (m, 3) array per lane) the starts are scored
    once and returned: descent from label_init never lowered that loss.
    Without them, momentum descent runs on all lanes at once; each lane
    keeps its own step scales, velocity and best iterate, and stops when
    its loss plateaus or after cfg.max_iters steps, at the 3D scale its
    start pinned (2D labels cannot determine it). A lane whose projection
    misses its target reads +inf with a zero gradient. Every lane's
    result is the one it gets alone.
    """
    if cfg.order == 4:
        raise ValidationError("gradient refinement is cubic; degree 4 is least-squares only")
    if len(inits) != len(gts):
        raise DimensionMismatchError("need one initial lane per target")
    if not gts:
        return []
    basis = "bernstein" if cfg.order == "bezier" else "power"
    thetas = [_lane_to_theta(init, basis) for init in inits]
    if any(t.size != thetas[0].size for t in thetas):
        raise DimensionMismatchError("all initial lanes must share one keypoint count")
    theta = np.stack(thetas)
    mask = np.ones(theta.shape[1])
    if cfg.order == 2:
        theta[:, 0] = 0.0
        mask[0] = 0.0
    _clamp_span(theta)
    scales = np.stack([_scales(row, basis) for row in theta])
    step = cfg.step_size * scales**2
    targets = LaneTargets.stack(gts, intrinsics, labels3d)
    max_iters = 0 if labels3d is not None else cfg.max_iters

    def objective(lanes, iteration):
        out = lane_losses(theta[lanes], targets.take(lanes), per_iou, weights, basis)
        _check_finite(out[0], out[1], iteration)
        return out

    active = np.arange(len(gts))
    velocity = np.zeros_like(theta)
    loss, grad, terms, overlap = objective(active, 0)
    best_loss, best_theta = loss.copy(), theta.copy()
    best_terms, best_overlap = terms.copy(), overlap.copy()
    best_iter = np.zeros(len(gts), dtype=int)
    iterations = np.zeros(len(gts), dtype=int)
    for it in range(1, max_iters + 1):
        if active.size == 0:
            break
        velocity[active] = MOMENTUM * velocity[active] - step[active] * (grad * mask)
        moved = theta[active] + velocity[active]
        _clamp_span(moved)
        theta[active] = moved
        iterations[active] = it
        loss, grad, terms, overlap = objective(active, it)
        better = loss < best_loss[active]
        lanes = active[better]
        best_loss[lanes], best_theta[lanes] = loss[better], theta[lanes]
        best_terms[lanes], best_overlap[lanes] = terms[better], overlap[better]
        best_iter[lanes] = it
        going = it - best_iter[active] < cfg.plateau_patience
        active, loss, grad = active[going], loss[going], grad[going]

    return [
        FitReport(
            _theta_to_lane(best_theta[i], basis),
            int(iterations[i]),
            False,
            targets.named(best_terms[i], best_loss[i]) if best_overlap[i] else {"total": np.inf},
        )
        for i in range(len(gts))
    ]


def fit_lane_2d(
    gt: ResampledLane2D,
    k: CameraIntrinsics,
    init: Lane3D,
    cfg: FitConfig = FitConfig(),
    per_iou: IoUConfig = DEFAULT_PERSPECTIVE_IOU,
    weights: LossWeights = LossWeights(),
) -> FitReport:
    """Refine one lane against 2D labels only: fit_lanes on a stack of one."""
    return fit_lanes([gt], [k], [init], cfg, per_iou, weights)[0]


def _start_lane(pts: np.ndarray, order: int, keypoints: int) -> Lane3D:
    """Least-squares curve through [x, y, z] points, then heights over their
    z span clamped by Z_FLOOR and MIN_SPAN, so short spans are padded
    rather than stretched."""
    poly = fit_bev_polynomial(pts, order=order)
    z_min = max(float(pts[:, 2].min()), Z_FLOOR)
    z_max = max(float(pts[:, 2].max()), z_min + MIN_SPAN)
    profile = fit_heights_direct(pts, keypoints, z_min, z_max)
    return Lane3D(curve=poly.to_curve(), profile=profile, score=1.0)


def label_init(gt3: np.ndarray, cfg: FitConfig = FitConfig()) -> Lane3D:
    """The 3D twin of ipm_init: a cubic lane whose curve, span and heights
    are read off its 3D labeled points, in order of z, by least squares."""
    if cfg.order == 4 or cfg.order == "bezier":
        raise ValidationError("3D fitting uses the cubic representation")
    gt3 = np.asarray(gt3, dtype=float)
    return _start_lane(gt3[np.argsort(gt3[:, 2], kind="stable")], cfg.order, cfg.keypoints)


def fit_lane_3d(
    gt3: np.ndarray,
    gt2d: ResampledLane2D,
    k: CameraIntrinsics,
    cfg: FitConfig = FitConfig(),
    per_iou: IoUConfig = DEFAULT_PERSPECTIVE_IOU,
    weights: LossWeights = LossWeights(),
) -> FitReport:
    """Fit one lane to 3D labeled points: fit_lanes with labels on a stack of one."""
    return fit_lanes([gt2d], [k], [label_init(gt3, cfg)], cfg, per_iou, weights, [gt3])[0]


def ipm_init(gt: Lane2D, k: CameraIntrinsics, cfg: FitConfig = FitConfig()) -> Lane3D:
    """Initialize a 3D lane from 2D points via a flat-ground assumption.

    Back-projects every point below the horizon onto the plane
    y = cfg.ipm_camera_height and fits curve and heights to the result.
    The assumed height also pins the overall scale, which 2D data leaves
    free. Raises DegenerateInputError when too few points back-project.
    """
    below = gt.points[gt.points[:, 1] > k.oy + 1e-9]
    pts = invert_to_ground(k, below[:, 0], below[:, 1], cfg.ipm_camera_height)
    if pts.shape[0] < 2:
        raise DegenerateInputError("too few points below the horizon to back-project")
    fit_order = 3 if cfg.order in (4, "bezier") else cfg.order
    if np.unique(pts[:, 2]).size < fit_order + 1:
        raise DegenerateInputError("back-projected points span too few distinct depths")
    return _start_lane(pts, fit_order, cfg.keypoints)


def reprojection_residuals(lane: Lane3D, k: CameraIntrinsics, gt3: np.ndarray) -> np.ndarray:
    """Pixel distance between projected labels and the lane evaluated at
    the same depths. Measures how faithfully the fitted representation
    reprojects, point by point."""
    gt3 = np.asarray(gt3, dtype=float)
    z = gt3[:, 2]
    pred = np.column_stack([lane.curve.x_at(z), lane.profile.y_at(z), z])
    d = project_points(k, pred) - project_points(k, gt3)
    return np.hypot(d[:, 0], d[:, 1])
