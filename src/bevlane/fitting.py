"""Fitting lanes to labeled points: least squares, scored once.

Every lane curve is the power cubic [a, b, c, d] of
geometry.lane_to_vector. Direct fits handle the supervised pieces
(polynomial BEV curve, height keypoints, a perspective-space polynomial
baseline). lane_starts, the one start, fits a whole stack of lanes at
once into the matrix of their vectors: one depth check and one power
table over every lane's points, then a least-squares curve and
interpolated heights per lane. With 3D labels the points are the labels
in order of z (by_depth). With 2D labels only they come from the frame's
shared ground: lane_gap_points reads one depth per image row from the
gaps between adjacent lanes and back-projects every lane's rows at it,
and a lane it cannot serve falls back to the flat-ground points of
ipm_points within Z_CAP (ipm_init starts one lane from all of its
flat-ground points). fit_lanes, the one fitter, takes one
losses.LaneTargets stack on a row grid and the start matrix and scores
each start once with losses.lane_losses, in blocks of ACTIVE_LANES;
fit_lane_3d and fit_lane_2d are its stacks of one.
Neither branch descends: on the mixed-ground set, descent from the
lane-gap start lowered 2D mF1 from 0.98 to 0.90-0.92. fit_dataset is the
one pass over a dataset: per image height, one stack of its lanes is
resampled, started and scored, and an error names the frame and lane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import ResampledLane2D, by_height, resample_lanes
from .camera import CameraIntrinsics, Lane2D, invert_to_ground, project_points
from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    LaneError,
    NonFiniteError,
    RankDeficientError,
    ValidationError,
)
from .geometry import BevCurve, HeightProfile, Lane3D, lane_from_vector, lane_to_vector
from .losses import LaneTargets, by_depth, lane_losses

# Lanes in one lane_losses call of fit_lanes: results do not depend on
# it, and the objective's arrays grow with it.
ACTIVE_LANES = 64
# Hard floor on z_min and on the span so samples stay in front of the camera.
Z_FLOOR = 0.1
MIN_SPAN = 0.5
# The lane-gap start: a row where adjacent lanes lie less than MIN_GAP_PX
# apart (a merge) gives no depth, and a lane starts from the gaps only
# with at least MIN_GAP_ROWS rows of depth, the points a cubic needs.
# Otherwise it falls back to flat-ground back-projection, whose points
# beyond Z_CAP meters are dropped: near the horizon it puts rising ground
# at kilometres.
MIN_GAP_PX = 1.0
MIN_GAP_ROWS = 4
Z_CAP = 100.0

# Upper limit on height keypoints per lane; the 2D fit holds (lanes x
# keypoints) arrays, and every predicted lane stores its keypoints.
MAX_KEYPOINTS = 1000

# Polynomial degrees of the least-squares fits; a lane curve takes 2 or 3.
ORDERS = (2, 3, 4)


@dataclass(frozen=True)
class FitConfig:
    """The lane model of the fitters.

    order is the degree of the lane curves, 2 or 3 (degree 4 is for the
    least-squares fits alone): a lane's curve is the power cubic of
    geometry.lane_to_vector, and order 2 pins its cubic coefficient at 0.

    keypoints is the number of height keypoints per lane, 2 to
    MAX_KEYPOINTS. lane_starts and ipm_init read both, and fit_lanes
    reads order. The CLI takes its defaults from here.
    """

    order: int = 3
    keypoints: int = 72

    def __post_init__(self):
        if self.order not in (2, 3):
            message = f"order must be 2 or 3, got {self.order!r}: degree 4 is least-squares only"
            raise ValidationError(message)
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
    """Outcome of a fit: the lane at its start and the loss pieces there.

    No fitter iterates, so iterations is always 0 and converged always
    False; both stay because perfbench's fit observers read them.
    """

    lane: Lane3D
    iterations: int
    converged: bool
    terms: dict[str, float]


def _clamp_span(theta: np.ndarray) -> None:
    """Keep z_min above the floor and the span at least MIN_SPAN, per lane."""
    theta[..., -2] = np.maximum(theta[..., -2], Z_FLOOR)
    theta[..., -1] = np.maximum(theta[..., -1], theta[..., -2] + MIN_SPAN)


def _check_finite(loss: np.ndarray, grad: np.ndarray, lanes: np.ndarray) -> None:
    """Raise NonFiniteError naming the first of lanes whose loss is NaN, or
    finite with a non-finite gradient."""
    grad_ok = np.isfinite(grad).all(axis=-1)
    bad = np.flatnonzero(np.isnan(loss) | (np.isfinite(loss) & ~grad_ok))
    if bad.size:
        lane = int(lanes[bad[0]])
        raise NonFiniteError("objective became non-finite at the lane's start", lane=lane)


def fit_lanes(
    targets: LaneTargets, starts: np.ndarray, cfg: FitConfig = FitConfig()
) -> list[FitReport]:
    """Score a stack of lanes at their starts, one report per lane.

    targets holds every lane's target on one row grid, with its camera;
    starts is the (L, n + 6) matrix of the lanes' start vectors (see
    geometry.lane_to_vector), as lane_starts returns it. Each start has
    its span clamped by Z_FLOOR and MIN_SPAN (and with order 2 its cubic
    coefficient set to 0) and is scored once by lane_losses, in blocks
    of at most ACTIVE_LANES lanes; a lane's report is the one it gets
    alone. With 3D labels in targets the starts are their least-squares
    fits, and without them the lane-gap starts (lane_gap_points): no
    descent is run in either branch. A lane whose projection misses its
    target reads +inf. A NaN objective, or a finite one with a
    non-finite gradient, raises NonFiniteError, whose lane attribute is
    the lane's index in the stack.
    """
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
    if cfg.order == 2:
        starts[:, 0] = 0.0
    _clamp_span(starts)
    reports = []
    for first in range(0, n_lanes, ACTIVE_LANES):
        block = np.arange(first, min(first + ACTIVE_LANES, n_lanes))
        loss, grad, terms, overlap = lane_losses(starts[block], targets.take(block))
        _check_finite(loss, grad, block)
        for i, theta in enumerate(starts[block]):
            named = targets.named(terms[i], loss[i]) if overlap[i] else {"total": np.inf}
            reports.append(FitReport(lane_from_vector(theta), 0, False, named))
    return reports


def fit_lane_2d(
    gt: ResampledLane2D,
    k: CameraIntrinsics,
    init: Lane3D,
    cfg: FitConfig = FitConfig(),
) -> FitReport:
    """Score one lane's start against 2D labels only: fit_lanes on a stack of one."""
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


def _median_rows(values: np.ndarray) -> np.ndarray:
    """The median of each column of values over its non-NaN entries, NaN
    where it has none.

    Sorts each column, which puts NaN last, and reads the middle of its
    finite count, rather than calling np.nanmedian: that imports numpy.ma.
    """
    ordered = np.sort(values, axis=0)
    count = np.count_nonzero(~np.isnan(values), axis=0)
    low = np.take_along_axis(ordered, (np.maximum(count, 1) - 1)[None] // 2, axis=0)[0]
    high = np.take_along_axis(ordered, count[None] // 2, axis=0)[0]
    return np.where(count > 0, 0.5 * (low + high), np.nan)


def lane_gap_points(
    lanes: list[Lane2D],
    u_values: np.ndarray,
    rows: np.ndarray,
    k: CameraIntrinsics,
    camera_height: float,
) -> list[np.ndarray]:
    """Each of a frame's lanes back-projected onto the ground its lanes
    share: one (m, 3) array of [x, y, z] per lane, for lane_starts.

    u_values is the frame's resample_lanes rows of lanes on rows. The
    lanes of a frame lie on one ground at a fixed lateral gap, so the
    column gap |du| of two adjacent lanes (ordered by their mean u) gives
    each row they share a depth z = c / |du|, above the horizon too. Rows
    with |du| below MIN_GAP_PX (merges) give none. Each pair's c is pinned
    at its nearest shared row below the horizon, where the flat ground at
    camera_height puts it. A row's depth is the median over pairs, and
    each lane's rows with a depth are back-projected at it, nearest first.
    Only image rows are used, so label points below the image lie outside
    the start. A lane with fewer than MIN_GAP_ROWS such rows, as every
    lane of a one-lane frame, takes the points of ipm_points instead,
    without those beyond Z_CAP. Errors from that fallback name the lane
    by its index in lanes.
    """
    if not lanes:
        return []
    rows = np.asarray(rows, dtype=float)
    u_values = np.asarray(u_values, dtype=float)
    present = ~np.isnan(u_values)
    mean_u = np.where(present, u_values, 0.0).sum(axis=1) / np.maximum(present.sum(axis=1), 1)
    order = np.argsort(mean_u, kind="stable")
    gap = np.abs(u_values[order[1:]] - u_values[order[:-1]])
    gap[~(gap >= MIN_GAP_PX)] = np.nan
    # each pair's nearest row below the horizon with a gap pins its scale
    pinned = ~np.isnan(gap) & (rows > k.oy)
    has_pin = pinned.any(axis=1)
    nearest = rows.size - 1 - np.argmax(pinned[has_pin, ::-1], axis=1)
    pairs = gap[has_pin]
    with np.errstate(over="ignore", invalid="ignore"):
        pin_z = invert_to_ground(k, k.ox, rows[nearest], camera_height)[..., 2]
        scale = pin_z * pairs[np.arange(pairs.shape[0]), nearest]
        depth = _median_rows(scale[:, None] / pairs) if pairs.size else np.full(rows.size, np.nan)
        # each lane's rows with a depth, nearest first, back-projected there
        depth, rows, u_values = depth[::-1], rows[::-1], u_values[:, ::-1]
        near = present[:, ::-1] & np.isfinite(depth)
        z = np.broadcast_to(depth, near.shape)[near]
        x = (u_values[near] - k.ox) * z / k.fx
        y = (np.broadcast_to(rows, near.shape)[near] - k.oy) * z / k.fy
    counts = near.sum(axis=1)
    points = np.split(np.column_stack([x, y, z]), np.cumsum(counts)[:-1])
    fallback = np.flatnonzero(counts < MIN_GAP_ROWS).tolist()
    try:
        flat = ipm_points([lanes[i] for i in fallback], k, camera_height)
    except DegenerateInputError as exc:
        raise DegenerateInputError(str(exc), lane=fallback[exc.lane]) from exc
    for i, ground in zip(fallback, flat):
        points[i] = ground[ground[:, 2] <= Z_CAP]
    return points


def fit_dataset(frames: list, mode: str, cfg: FitConfig = FitConfig()) -> list[list[FitReport]]:
    """Fit the lanes of a dataset's frames (datagen.FrameRecord): per frame,
    the reports of its lanes that cover an image row, in lane order.

    Mode "3d" starts each lane from its labels in order of z (by_depth),
    which every frame must have; mode "2d" starts each frame's lanes from
    their shared ground (lane_gap_points). The lanes of one image height
    are one stack: resampled on its row grid, then started and scored in
    one call each, before the next height's. A lane's report is the one
    it gets in any other stack. A LaneError about a lane names its frame
    id and lane index.
    """
    if mode not in ("3d", "2d"):
        raise ValidationError(f"mode must be '3d' or '2d', got {mode!r}")
    reports = [[] for _ in frames]
    cameras = np.array([[k.fx, k.fy, k.ox, k.oy] for k in (f.intrinsics for f in frames)])
    for rows, members in by_height([frame.image for frame in frames]):
        lanes = [(n, j) for n in members for j in range(len(frames[n].lanes2d))]
        u_values = resample_lanes([frames[n].lanes2d[j] for n, j in lanes], rows)
        kept = np.flatnonzero(~np.isnan(u_values).all(axis=1))
        lanes, u_values = [lanes[i] for i in kept], u_values[kept]
        frame_of = np.array([n for n, _ in lanes], dtype=int)
        where = [(frames[n].frame_id, j) for n, j in lanes]
        lane2d = [frames[n].lanes2d[j] for n, j in lanes]
        if mode == "3d":
            points = [by_depth(frames[n].lanes3d[j]) for n, j in lanes]
        else:
            points = []
            for n in members:
                run, frame = np.flatnonzero(frame_of == n), frames[n]
                points += _naming_lanes(
                    [where[i] for i in run], lane_gap_points,
                    [lane2d[i] for i in run], u_values[run], rows,
                    frame.intrinsics, frame.camera_height,
                )
        starts = _naming_lanes(where, lane_starts, points, cfg)
        targets = LaneTargets(
            rows=rows,
            u_values=u_values,
            v_ends=np.array([(lane.v[0], lane.v[-1]) for lane in lane2d]).reshape(-1, 2),
            camera=cameras[frame_of],
            labels=points if mode == "3d" else None,
        )
        for (n, _), report in zip(lanes, _naming_lanes(where, fit_lanes, targets, starts, cfg)):
            reports[n].append(report)
    return reports


def _naming_lanes(where, call, *args):
    """call(*args), with a LaneError about lane i of its stack re-raised
    with where[i], a (frame id, lane index) pair, named first."""
    try:
        return call(*args)
    except LaneError as exc:
        if exc.lane is None:
            raise
        frame_id, lane = where[exc.lane]
        raise type(exc)(f"frame {frame_id}, lane {lane}: {exc}") from exc


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
