"""Fitting lanes to labeled points: least squares plus gradient refinement.

Every lane curve is the power cubic [a, b, c, d] of
geometry.lane_to_vector. Direct fits handle the supervised pieces
(polynomial BEV curve, height keypoints, a perspective-space polynomial
baseline). lane_starts, the one start, fits a whole stack of lanes at
once into the matrix of their vectors: one depth check and one power
table over every lane's points, then a least-squares curve and
interpolated heights per lane. With 3D labels (in order of z,
by_depth) the starts are the whole fit; label_init is the start of one
lane. With 2D labels only, momentum gradient descent on the
image-plane losses recovers each lane from a flat-ground start (the
points ipm_points back-projects onto the ground plane at the frame's
recorded camera height; ipm_init is the start of one lane), on the
fixed schedule MAX_ITERS, STEP_SIZE and PLATEAU_PATIENCE. fit_lanes,
the one fitter, takes one losses.LaneTargets stack on a row grid and
the start matrix, scores its lanes with losses.lane_losses and without
3D labels descends them, each lane with its own step scales, velocity,
best iterate, iteration count and stop. It keeps at most ACTIVE_LANES
lanes in a rolling window of slots that index the stack: a lane that
stops hands its slot to the next one, so each objective call scores a
full window; fit_lane_3d and fit_lane_2d are its stacks of one.
The descent runs in a diagonally rescaled parameter space: curve
coefficients act on different powers of z, so their raw gradient
magnitudes differ by orders of magnitude and unscaled steps either
crawl or blow up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
from .losses import LaneTargets, by_depth, lane_losses

# The 2D descent's schedule: at most MAX_ITERS momentum steps of base size
# STEP_SIZE, and a lane stops once PLATEAU_PATIENCE steps in a row have not
# lowered its best loss.
MAX_ITERS = 60
STEP_SIZE = 1e-2
PLATEAU_PATIENCE = 15
MOMENTUM = 0.9
# Lanes in fit_lanes' window: each objective call scores at most this
# many, and results do not depend on it. The descent's arrays grow with
# the window; its targets and starts grow with the stack, one row of u
# per image row and lane, as the CLI's resampled labels do anyway. At a
# few lanes the fixed cost of a call dominates. With 64, the 2d fit of
# the 400-lane mixed-ground set at seed 1 peaks at 49.5 MB RSS in a
# fresh process that runs only fit (2-vCPU x86 host, numpy 2.4), below
# the 59 MB at which eval tops the same pipeline run in one process.
ACTIVE_LANES = 64
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

# Polynomial degrees of the least-squares fits; a lane curve takes 2 or 3.
ORDERS = (2, 3, 4)


@dataclass(frozen=True)
class FitConfig:
    """The lane model of the fitters.

    order is the polynomial degree of the least-squares fits: 2, 3 or 4.
    Degree 4 is available for those fits only; a lane's curve is the
    power cubic of geometry.lane_to_vector, and order 2 pins its cubic
    coefficient at 0.

    keypoints is the number of height keypoints per lane, 2 to
    MAX_KEYPOINTS. label_init and ipm_init read both, and fit_lanes
    reads order. The CLI takes its defaults from here.
    """

    order: int = 3
    keypoints: int = 72

    def __post_init__(self):
        if self.order not in ORDERS:
            raise ValidationError(f"order must be one of {ORDERS}, got {self.order!r}")
        if not 2 <= self.keypoints <= MAX_KEYPOINTS:
            raise ValidationError(
                f"keypoints must be in [2, {MAX_KEYPOINTS}], got {self.keypoints}"
            )


@dataclass(frozen=True)
class PolyFit:
    """A least-squares polynomial fit: coefficients in ascending powers,
    with the rms and max residual."""

    coefficients: np.ndarray
    rms_residual: float
    max_residual: float

    def to_curve(self) -> BevCurve:
        """Collapse to the cubic lane curve; degree-4 fits do not fit."""
        c = np.zeros(4)
        if self.coefficients.size > 4 and np.any(self.coefficients[4:] != 0.0):
            raise ValidationError("degree-4 fit cannot be expressed as a cubic curve")
        c[: min(4, self.coefficients.size)] = self.coefficients[:4]
        return BevCurve(a=c[3], b=c[2], c=c[1], d=c[0])


def _distinct_counts(values: np.ndarray, lane: np.ndarray, n_lanes: int) -> np.ndarray:
    """Distinct entries per lane of values sorted within each lane, where
    lane holds each entry's lane index in non-decreasing order.

    Counts the entries that differ from their predecessor in the same
    lane, rather than calling np.unique: numpy's unique imports numpy.ma.
    """
    new = np.ones(values.size, dtype=bool)
    new[1:] = (values[1:] != values[:-1]) | (lane[1:] != lane[:-1])
    return np.bincount(lane[new], minlength=n_lanes)


def _least_squares(t: np.ndarray, y: np.ndarray, order: int, abscissae: str):
    """Ascending coefficients of the degree-order polynomial y(t) by least
    squares, with the rms and max residual.

    Raises RankDeficientError when fewer distinct t than unknowns are
    given (abscissae names them), and DegenerateInputError when the
    powers of t overflow.
    """
    n_distinct = _distinct_counts(np.sort(t), np.zeros(t.size, dtype=int), 1)[0]
    if n_distinct < order + 1:
        raise RankDeficientError(
            f"{n_distinct} distinct {abscissae} cannot determine {order + 1} coefficients"
        )
    with np.errstate(over="ignore"):
        design = np.vander(t, order + 1, increasing=True)
    if not np.isfinite(design).all():
        raise DegenerateInputError(f"{abscissae} too large for a degree-{order} fit")
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    residual = design @ coeffs - y
    return coeffs, float(np.sqrt(np.mean(residual**2))), float(np.max(np.abs(residual)))


def fit_bev_polynomial(points: np.ndarray, order: int = 3) -> PolyFit:
    """Least-squares x(z) of polynomial degree order (2, 3 or 4) over 3D
    lane points, shape (m, 3) of [x, y, z]."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValidationError(f"expected (m, 3) points, got {points.shape}")
    if order not in ORDERS:
        raise ValidationError(f"order must be one of {ORDERS}, got {order!r}")
    return PolyFit(*_least_squares(points[:, 2], points[:, 0], order, "z values"))


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


def fit_perspective_baseline(lane: Lane2D, order: int = 3) -> PolyFit:
    """Fit u as a polynomial of v directly in the image plane, the
    coupled-image-space baseline; coefficients are ascending powers of v.

    On uneven ground the projected lane can fold back in v, which no
    function u(v) can follow; the residuals record how badly.
    """
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")
    return PolyFit(*_least_squares(lane.v, lane.u, order, "rows"))


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


def _scales(theta: np.ndarray) -> np.ndarray:
    """Per-parameter step scales; curve coefficients scale by z powers,
    heights and span endpoints are damped against the endpoint-row creases."""
    scales = np.ones(theta.size)
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


def _check_finite(
    loss: np.ndarray, grad: np.ndarray, lanes: np.ndarray, iterations: np.ndarray
) -> None:
    """Raise NonFiniteError naming the first of lanes whose loss is NaN, or
    finite with a non-finite gradient, and that lane's own iteration."""
    grad_ok = np.isfinite(grad).all(axis=-1)
    bad = np.flatnonzero(np.isnan(loss) | (np.isfinite(loss) & ~grad_ok))
    if bad.size:
        i = bad[0]
        raise NonFiniteError(
            f"objective became non-finite at iteration {iterations[i]}", lane=int(lanes[i])
        )


def fit_lanes(
    targets: LaneTargets, starts: np.ndarray, cfg: FitConfig = FitConfig()
) -> list[FitReport]:
    """Fit a stack of lanes from their starts, one report per lane.

    targets holds every lane's target on one row grid, with its camera;
    starts is the (L, n + 6) matrix of the lanes' start vectors (see
    geometry.lane_to_vector), as lane_starts returns it. The objective
    is lane_losses, called on a window of at most ACTIVE_LANES lanes.
    With 3D labels in targets the starts are scored and returned:
    descent from their least-squares starts never lowered that loss.
    Without them, momentum descent runs on the lanes in the window, each
    with its own step scales, velocity, best iterate and iteration
    count. A lane stops when its loss plateaus or after MAX_ITERS of its
    own steps, at the 3D scale its start pinned (2D labels cannot
    determine it); the next lane in stack order then takes its slot,
    scored at its start in the next objective call. A lane whose
    projection misses its target reads +inf with a zero gradient. Every
    lane's result is the one it gets alone, whatever the window. A NaN
    objective raises NonFiniteError, whose lane attribute is the lane's
    index in the stack.
    """
    if cfg.order == 4:
        raise ValidationError("gradient refinement is cubic; degree 4 is least-squares only")
    n_lanes = len(targets.u_values)
    if len(starts) != n_lanes:
        raise DimensionMismatchError("need one start vector per target")
    if not n_lanes:
        return []
    starts = np.array(starts, dtype=float)
    if starts.ndim != 2 or starts.shape[1] < 8:
        raise DimensionMismatchError(
            f"starts must be an (L, n + 6) matrix with n >= 2, got shape {starts.shape}"
        )
    n_params = starts.shape[1]
    mask = np.ones(n_params)
    if cfg.order == 2:
        starts[:, 0] = mask[0] = 0.0
    _clamp_span(starts)
    max_iters = 0 if targets.labels is not None else MAX_ITERS

    # Slot s of the window holds lane lane_of[s] with its vector, step
    # sizes, velocity, last gradient, best iterate and iteration count.
    width = min(ACTIVE_LANES, n_lanes)
    lane_of = np.zeros(width, dtype=int)
    theta, step, velocity, grad, best_theta = (np.zeros((width, n_params)) for _ in range(5))
    best_loss = np.zeros(width)
    best_overlap = np.zeros(width, dtype=bool)
    best_iter = np.zeros(width, dtype=int)
    iterations = np.zeros(width, dtype=int)
    best_terms = None
    reports = [None] * n_lanes
    busy, free, queued = np.zeros(0, dtype=int), np.arange(width), 0
    while busy.size or queued < n_lanes:
        velocity[busy] = MOMENTUM * velocity[busy] - step[busy] * (grad[busy] * mask)
        moved = theta[busy] + velocity[busy]
        _clamp_span(moved)
        theta[busy] = moved
        iterations[busy] += 1

        joined = free[: n_lanes - queued]
        if joined.size:
            lane_of[joined] = np.arange(queued, queued + joined.size)
            queued += joined.size
            theta[joined] = starts[lane_of[joined]]
            step[joined] = STEP_SIZE * np.stack([_scales(row) for row in theta[joined]]) ** 2
            velocity[joined] = 0.0
            iterations[joined] = 0
        slots = np.concatenate([busy, joined])
        loss, grad_now, terms, overlap = lane_losses(theta[slots], targets.take(lane_of[slots]))
        _check_finite(loss, grad_now, lane_of[slots], iterations[slots])
        grad[slots] = grad_now
        if best_terms is None:
            best_terms = np.zeros((width, terms.shape[1]))

        better = (loss < best_loss[slots]) | (iterations[slots] == 0)
        won = slots[better]
        best_loss[won], best_theta[won] = loss[better], theta[won]
        best_terms[won], best_overlap[won] = terms[better], overlap[better]
        best_iter[won] = iterations[won]
        going = (iterations[slots] - best_iter[slots] < PLATEAU_PATIENCE) & (
            iterations[slots] < max_iters
        )
        busy, free = slots[going], slots[~going]
        for s in free:
            reports[lane_of[s]] = FitReport(
                lane_from_vector(best_theta[s]),
                int(iterations[s]),
                False,
                targets.named(best_terms[s], best_loss[s]) if best_overlap[s] else {"total": np.inf},
            )
    return reports


def fit_lane_2d(
    gt: ResampledLane2D,
    k: CameraIntrinsics,
    init: Lane3D,
    cfg: FitConfig = FitConfig(),
) -> FitReport:
    """Refine one lane against 2D labels only: fit_lanes on a stack of one."""
    return fit_lanes(LaneTargets.stack([gt], [k]), lane_to_vector(init)[None], cfg)[0]


def lane_starts(points: list[np.ndarray], cfg: FitConfig = FitConfig()) -> np.ndarray:
    """The least-squares starts of a stack of lanes, one (m, 3) array of
    [x, y, z] points per lane.

    Row i of the (L, cfg.keypoints + 6) result is lane i's vector (see
    geometry.lane_to_vector): its degree-cfg.order curve x(z), fitted by
    np.linalg.lstsq to its points in the order given (row order changes
    the last bits), then heights interpolated over its z span clamped by
    Z_FLOOR and MIN_SPAN, so short spans are padded rather than
    stretched. Each error's lane attribute is the index of the first
    failing lane: RankDeficientError for fewer distinct z than curve
    coefficients, DegenerateInputError for z whose powers overflow, and
    ValidationError for a non-finite coefficient or height.
    """
    if cfg.order == 4:
        raise ValidationError("lane curves are cubic; degree 4 is least-squares only")
    order, n_lanes = cfg.order, len(points)
    starts = np.zeros((n_lanes, cfg.keypoints + 6))
    if not n_lanes:
        return starts
    points = [np.asarray(p, dtype=float) for p in points]
    if any(p.ndim != 2 or p.shape[1] != 3 for p in points):
        raise ValidationError("expected (m, 3) points for every lane")
    sizes = np.array([p.shape[0] for p in points])
    ends = np.cumsum(sizes)
    pts = np.concatenate(points)
    lane = np.repeat(np.arange(n_lanes), sizes)
    # Each point-long temporary is dropped as soon as it is used: together
    # they would set the peak memory of the fit.
    by_z = np.lexsort((pts[:, 2], lane))
    z, y = pts[by_z, 2], pts[by_z, 1]
    del by_z
    distinct = _distinct_counts(z, lane, n_lanes)
    with np.errstate(over="ignore"):
        design = np.vander(pts[:, 2], order + 1, increasing=True)
    # z is finite, so its powers overflow first in the highest one
    overflow = np.zeros(n_lanes, dtype=bool)
    overflow[lane[~np.isfinite(design[:, -1])]] = True
    del lane
    bad = np.flatnonzero((distinct < order + 1) | overflow)
    if bad.size:
        i = int(bad[0])
        if distinct[i] < order + 1:
            raise RankDeficientError(
                f"{distinct[i]} distinct z values cannot determine {order + 1} coefficients",
                lane=i,
            )
        raise DegenerateInputError(f"z values too large for a degree-{order} fit", lane=i)

    lo = np.maximum(z[ends - sizes], Z_FLOOR)
    hi = np.maximum(z[ends - 1], lo + MIN_SPAN)
    grid = np.linspace(lo, hi, cfg.keypoints, axis=1)
    for i, (first, end) in enumerate(zip(ends - sizes, ends)):
        coeffs = np.linalg.lstsq(design[first:end], pts[first:end, 0], rcond=None)[0]
        starts[i, 3 - order : 4] = coeffs[::-1]
        starts[i, 4:-2] = np.interp(grid[i], z[first:end], y[first:end])
    starts[:, -2], starts[:, -1] = lo, hi

    bad = np.flatnonzero(~np.isfinite(starts).all(axis=1))
    if bad.size:
        i = int(bad[0])
        j = int(np.flatnonzero(~np.isfinite(starts[i]))[0])
        name = "abcd"[j] if j < 4 else "height"
        raise ValidationError(f"{name} must be finite, got {float(starts[i, j])!r}", lane=i)
    return starts


def label_init(gt3: np.ndarray, cfg: FitConfig = FitConfig()) -> Lane3D:
    """The 3D twin of ipm_init: a cubic lane whose curve, span and heights
    are read off its 3D labeled points, in order of z, by least squares.
    It is lane_starts on a stack of one."""
    return lane_from_vector(lane_starts([by_depth(gt3)], cfg)[0])


def fit_lane_3d(
    gt3: np.ndarray,
    gt2d: ResampledLane2D,
    k: CameraIntrinsics,
    cfg: FitConfig = FitConfig(),
) -> FitReport:
    """Fit one lane to 3D labeled points: fit_lanes with labels on a stack of one."""
    targets = LaneTargets.stack([gt2d], [k], [gt3])
    return fit_lanes(targets, lane_starts(targets.labels, cfg), cfg)[0]


def ipm_points(lanes: list[Lane2D], k: CameraIntrinsics, camera_height: float) -> list[np.ndarray]:
    """Each lane's points below the horizon, back-projected onto the plane
    y = camera_height (> 0) in image order, with one invert_to_ground call.

    Raises DegenerateInputError naming (by its lane attribute) the first
    lane with fewer than two such points.
    """
    if not lanes:
        return []
    points = np.concatenate([lane.points for lane in lanes])
    below = points[:, 1] > k.oy + 1e-9
    ground = invert_to_ground(k, points[below, 0], points[below, 1], camera_height)
    lane = np.repeat(np.arange(len(lanes)), [len(gt) for gt in lanes])
    counts = np.bincount(lane[below], minlength=len(lanes))
    few = np.flatnonzero(counts < 2)
    if few.size:
        raise DegenerateInputError(
            "too few points below the horizon to back-project", lane=int(few[0])
        )
    return np.split(ground, np.cumsum(counts)[:-1])


def ipm_init(
    gt: Lane2D, k: CameraIntrinsics, camera_height: float, cfg: FitConfig = FitConfig()
) -> Lane3D:
    """Initialize a 3D lane from 2D points via a flat-ground assumption.

    Back-projects every point below the horizon onto the plane
    y = camera_height (> 0), the height the frame records for its
    camera, and fits curve and heights to the result, in image order.
    That height also pins the overall scale, which 2D data leaves free.
    It is ipm_points and lane_starts on a stack of one. Raises
    DegenerateInputError when too few points back-project.
    """
    return lane_from_vector(lane_starts(ipm_points([gt], k, camera_height), cfg)[0])


def reprojection_residuals(lane: Lane3D, k: CameraIntrinsics, gt3: np.ndarray) -> np.ndarray:
    """Pixel distance between projected labels and the lane evaluated at
    the same depths. Measures how faithfully the fitted representation
    reprojects, point by point."""
    gt3 = np.asarray(gt3, dtype=float)
    z = gt3[:, 2]
    pred = np.column_stack([lane.curve.x_at(z), lane.profile.y_at(z), z])
    d = project_points(k, pred) - project_points(k, gt3)
    return np.hypot(d[:, 0], d[:, 1])
