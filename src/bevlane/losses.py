"""Training losses for decoupled 3D lanes, with analytic gradients.

Geometry terms are IoU-style: two lanes widened to 2e compare as
iou = (2e - |dx|) / (2e + |dx|) per sample, averaged, and the loss is
1 - iou. The same form serves the bird's-eye view (e = BEV_E meters)
and the image plane (e = PERSPECTIVE_E pixels), each at SAMPLE_COUNT
samples per lane. Supervision has two branches: with 3D labels the BEV
curve, heights and z-span are penalized directly alongside the
projected losses; with 2D-only labels the projected losses carry the
geometry and a height standard-deviation regularizer removes the
otherwise unconstrained vertical wobble.

Every term returns its gradient with respect to the lane parameter
vector convention of geometry.lane_to_vector, whose curve is the power
cubic [a, b, c, d], restricted to the slice the term actually touches.
Sampling is uniform in fractions of the lane's span, so interpolation
weights are constants of the parameters and the terms stay piecewise
smooth.

Every term runs on an (L, P) stack of lanes at once, and lane_losses
sums them, unweighted, into the one objective of both branches; whether
the targets carry 3D labels picks the branch. perspective_losses,
project_with_jacobian, bev_iou_loss, height_loss and endpoint_z_loss
are their stacks of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from .assignment import ResampledLane2D, _crossed_cells
from .camera import CameraIntrinsics
from .errors import DimensionMismatchError, GridMismatchError, ValidationError
from .geometry import Lane3D, lane_to_vector

# Half-width e of the widened-lane IoU: meters in the bird's-eye view,
# pixels in the image plane.
BEV_E = 0.5
PERSPECTIVE_E = 15.0
# Uniform samples per lane at which the BEV and projected terms compare.
SAMPLE_COUNT = 72


def bev_iou_loss(pred: Lane3D, gt_xs: np.ndarray):
    """BEV curve loss against target lateral offsets at the lane's samples.

    gt_xs must hold the target x at the lane's own SAMPLE_COUNT uniform z
    samples. Returns (loss, gradient over the four curve coefficients).
    """
    z = np.linspace(pred.z_min, pred.z_max, SAMPLE_COUNT)
    gt_xs = np.asarray(gt_xs, dtype=float)
    if gt_xs.shape != z.shape:
        raise DimensionMismatchError(
            f"expected {z.shape[0]} target offsets, got {gt_xs.shape}"
        )
    c = pred.curve
    loss, grad = _bev_term(np.array([[c.a, c.b, c.c, c.d]]), z[None], gt_xs[None], BEV_E)
    return float(loss[0]), grad[0]


def height_loss(pred: Lane3D, gt_heights: np.ndarray):
    """Mean absolute keypoint height error; gradient over the keypoints."""
    h = np.asarray(pred.profile.heights, dtype=float)
    gt_heights = np.asarray(gt_heights, dtype=float)
    if gt_heights.shape != h.shape:
        raise DimensionMismatchError(
            f"expected {h.shape[0]} target heights, got {gt_heights.shape}"
        )
    loss, grad = _height_term(h[None], gt_heights[None])
    return float(loss[0]), grad[0]


def endpoint_z_loss(pred: Lane3D, gt_z_min: float, gt_z_max: float):
    """|dz_min| + |dz_max| between predicted and target span endpoints.

    Returns (loss, (d/dz_min, d/dz_max)).
    """
    span = np.array([[pred.z_min, pred.z_max]])
    loss, grad = _span_term(span, np.array([[gt_z_min, gt_z_max]], dtype=float))
    return float(loss[0]), (float(grad[0, 0]), float(grad[0, 1]))


def _bev_term(curve: np.ndarray, z: np.ndarray, gt_x: np.ndarray, e: float):
    """1 - mean BEV IoU of (L, 4) power curves at samples z (L, m) against
    offsets gt_x there, and its gradient over the curve, (L, 4)."""
    z = np.ascontiguousarray(z)  # each lane's sum then runs in one order at any L
    x = polyval(z, curve[:, ::-1].T[..., None], tensor=False)
    n_lanes, m = z.shape
    lane = np.repeat(np.arange(n_lanes), m)
    loss, g = _iou_loss_rows((x - gt_x).ravel(), lane, np.full(n_lanes, m), e)
    return loss, (g.reshape(n_lanes, 1, m) * _powers(z)).sum(axis=2)


def _height_term(h: np.ndarray, gt_h: np.ndarray):
    """Mean absolute error of (L, n) keypoint heights and its gradient."""
    diff = h - gt_h
    return np.mean(np.abs(diff), axis=-1), np.sign(diff) / h.shape[-1]


def _span_term(span: np.ndarray, gt_span: np.ndarray):
    """|dz_min| + |dz_max| of (L, 2) spans and its gradient."""
    diff = span - gt_span
    return np.abs(diff[:, 0]) + np.abs(diff[:, 1]), np.sign(diff)


def _powers(z: np.ndarray) -> np.ndarray:
    """d x / d [a, b, c, d] of a power cubic at samples z (L, m): (L, 4, m)."""
    return np.stack([z * z * z, z * z, z, np.ones_like(z)], axis=-2)


def height_variance_reg(pred: Lane3D):
    """Population standard deviation of the keypoint heights.

    With 2D-only supervision nothing pins the profile vertically, so the
    spread itself is penalized. Returns (sigma, gradient over keypoints);
    the gradient at sigma = 0 is the zero subgradient.
    """
    sigma, grad = _height_spread(np.asarray(pred.profile.heights, dtype=float))
    return float(sigma), grad


def _height_spread(heights: np.ndarray):
    """Spread of the keypoints along the last axis and its gradient; one sigma per lane."""
    centered = heights - heights.mean(axis=-1, keepdims=True)
    sigma = np.sqrt(np.mean(centered**2, axis=-1))
    flat = (sigma == 0.0)[..., None]
    safe = np.where(flat, 1.0, sigma[..., None])
    grad = np.where(flat, 0.0, centered / (heights.shape[-1] * safe))
    return sigma, grad


def by_depth(points: np.ndarray) -> np.ndarray:
    """(m, 3) [x, y, z] points in stable order of z, the order in which
    LaneTargets holds 3D labels and lanes are handed to
    fitting.lane_starts. Points already in that order come back as they
    are, without a copy."""
    points = np.asarray(points, dtype=float)
    z = points[:, 2]
    if (z[1:] >= z[:-1]).all():
        return points
    return points[np.argsort(z, kind="stable")]


@dataclass(frozen=True)
class LaneTargets:
    """The targets of a stack of lanes, each with its camera.

    All lanes share one row grid, rows. u_values is (L, rows), the
    resample_lanes rows of the targets, NaN where a target is absent, and
    present, the rows each target covers, is read off the NaN. v_ends
    holds each target's [v_first, v_last] and camera its [fx, fy, ox,
    oy], so each lane projects through its own frame's intrinsics.
    labels is None for 2D-only targets, or else holds each lane's 3D
    label points, an (m, 3) array of [x, y, z], which construction puts
    in order of z (by_depth).
    """

    rows: np.ndarray
    u_values: np.ndarray
    v_ends: np.ndarray
    camera: np.ndarray
    labels: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        n_lanes = len(self.u_values)
        if self.u_values.shape != (n_lanes, self.rows.size):
            raise DimensionMismatchError("need one row of u values per target lane")
        if self.v_ends.shape != (n_lanes, 2):
            raise DimensionMismatchError("need one [v_first, v_last] per target lane")
        if self.camera.shape != (n_lanes, 4):
            raise DimensionMismatchError("need one camera per target lane")
        if self.labels is not None:
            labels = [np.asarray(g, dtype=float) for g in self.labels]
            if len(labels) != n_lanes or any(g.ndim != 2 or g.shape[1] != 3 for g in labels):
                raise DimensionMismatchError("need one (m, 3) label array per target lane")
            object.__setattr__(self, "labels", tuple(by_depth(g) for g in labels))

    @property
    def present(self) -> np.ndarray:
        """The rows each target covers: where u_values is not NaN."""
        return ~np.isnan(self.u_values)

    @classmethod
    def stack(
        cls,
        gts: list[ResampledLane2D],
        intrinsics: list[CameraIntrinsics],
        labels3d: list[np.ndarray] | None = None,
    ) -> "LaneTargets":
        """Targets from resampled lanes on one grid, with one camera and
        optionally one (m, 3) label array per lane."""
        rows = gts[0].v_grid if gts else np.zeros(0)
        if any(not np.array_equal(g.v_grid, rows) for g in gts):
            raise GridMismatchError("a stack of targets must share one row grid")
        shape = (len(gts), rows.size)
        return cls(
            rows=rows,
            u_values=np.array([g.u_values for g in gts]).reshape(shape),
            v_ends=np.array([[g.v_first, g.v_last] for g in gts]).reshape(-1, 2),
            camera=np.array([[k.fx, k.fy, k.ox, k.oy] for k in intrinsics]).reshape(-1, 4),
            labels=labels3d,
        )

    def take(self, idx: np.ndarray) -> "LaneTargets":
        """The targets of the lanes at idx."""
        labels = None if self.labels is None else tuple(self.labels[i] for i in idx)
        arrays = (self.u_values, self.v_ends, self.camera)
        return LaneTargets(self.rows, *(a[idx] for a in arrays), labels)

    def named(self, terms: np.ndarray, loss: float) -> dict[str, float]:
        """One lane's row of lane_losses terms by name, plus "total"."""
        names = ("l_reg",) if self.labels is None else ("l_bev", "l_h", "l_z")
        named = zip(("l_per", "l_v", *names), terms)
        return {**{name: float(t) for name, t in named}, "total": float(loss)}


@dataclass(frozen=True)
class _Projection:
    """Projected samples of a stack of lanes and the factors of their Jacobians.

    u and v are (L, m). The image column depends on the curve and the
    span: du_dcurve is (L, 4, m) and du_dspan (L, 2, m) over [z_min,
    z_max]. The image row depends on the heights and the span: sample j
    interpolates keypoints left[j] and left[j] + 1 with weights 1 - w[j]
    and w[j], scaled by dv_dy (L, m); dv_dspan is (L, 2, m).
    """

    u: np.ndarray
    v: np.ndarray
    du_dcurve: np.ndarray
    du_dspan: np.ndarray
    dv_dy: np.ndarray
    dv_dspan: np.ndarray
    left: np.ndarray
    w: np.ndarray


def _sample_tables(m: int, n: int):
    """The parameter-free tables of m uniform samples over n height keypoints.

    Returns (s, left, w, dz_dspan): the samples' span fractions s, the
    left keypoint of each and its interpolation weight w, and dz/d[z_min,
    z_max] = [1 - s, s], shape (2, m).
    """
    s = np.linspace(0.0, 1.0, m)
    pos = s * (n - 1)
    left = np.clip(np.floor(pos).astype(int), 0, n - 2)
    w = pos - left
    return s, left, w, np.stack([1.0 - s, s])


def _project(theta: np.ndarray, camera: np.ndarray, sample_count: int) -> _Projection:
    """Project the uniform samples of an (L, P) stack of lanes through (L, 4) cameras.

    Only elementwise arithmetic and reductions along a lane's own row are
    used, so each lane's numbers do not depend on the rest of the stack.
    """
    fx, fy, ox, oy = camera.T[:, :, None]
    n_lanes, n = theta.shape[0], theta.shape[1] - 6
    z_min, z_max = theta[:, -2:-1], theta[:, -1:]
    if not np.all((0.0 < z_min) & (z_min < z_max)):
        raise ValidationError("need 0 < z_min < z_max for every lane")

    m = sample_count
    # Samples and height keypoints sit at uniform fractions of the span,
    # so the interpolation weights of each sample are constants of the
    # parameters: z_j = z_min + s_j * (z_max - z_min), and moving an
    # endpoint slides the sample along the curve.
    s, left, w, dz_dspan = _sample_tables(m, n)
    z = z_min + s * (z_max - z_min)
    # BevCurve.x_at's evaluator and its slope dx/dz, per lane.
    c0, c1, c2 = (theta[:, i : i + 1] for i in range(3))
    x = polyval(z, theta[:, 3::-1].T[..., None], tensor=False)
    slope = (3.0 * c0 * z + 2.0 * c1) * z + c2
    y = (1.0 - w) * theta[:, 4 + left] + w * theta[:, 5 + left]

    inv_z = 1.0 / z
    inv_z2 = (inv_z**2)[:, None, :]
    # fx * [z^3, z^2, z, 1] / z, each power as _powers forms it
    du_dcurve = np.empty((n_lanes, 4, m))
    z2 = z * z
    np.multiply(fx, z2 * z, out=du_dcurve[:, 0])
    np.multiply(fx, z2, out=du_dcurve[:, 1])
    np.multiply(fx, z, out=du_dcurve[:, 2])
    du_dcurve[:, 3] = fx
    du_dcurve *= inv_z[:, None, :]
    # fx * (dx/dspan * z - x * dz/dspan) / z^2 with dx/dspan = slope * dz/dspan
    du_dspan = slope[:, None, :] * dz_dspan
    du_dspan *= z[:, None, :]
    du_dspan -= x[:, None, :] * dz_dspan
    du_dspan *= fx[:, :, None]
    du_dspan *= inv_z2
    dv_dspan = -fy[:, :, None] * y[:, None, :] * dz_dspan
    dv_dspan *= inv_z2
    return _Projection(
        u=fx * x / z + ox,
        v=fy * y / z + oy,
        du_dcurve=du_dcurve,
        du_dspan=du_dspan,
        dv_dy=fy * inv_z,
        dv_dspan=dv_dspan,
        left=left,
        w=w,
    )


def _contract(proj: _Projection, n: int, w_u: np.ndarray, w_v: np.ndarray) -> np.ndarray:
    """sum_j w_u[:, j] * du_j/dtheta + w_v[:, j] * dv_j/dtheta, shape (L, P).

    The height part scatters each sample's row weight onto its two
    keypoints with np.bincount, which adds in sample order.
    """
    n_lanes, m = w_v.shape
    grad = np.empty((n_lanes, n + 6))
    grad[:, :4] = (w_u[:, None, :] * proj.du_dcurve).sum(axis=2)
    grad[:, -2:] = (w_u[:, None, :] * proj.du_dspan + w_v[:, None, :] * proj.dv_dspan).sum(axis=2)
    w_y = w_v * proj.dv_dy
    key = (np.arange(n_lanes) * n)[:, None] + proj.left
    size = n_lanes * n
    grad[:, 4:-2] = (
        np.bincount(key.ravel(), (w_y * (1.0 - proj.w)).ravel(), size)
        + np.bincount((key + 1).ravel(), (w_y * proj.w).ravel(), size)
    ).reshape(n_lanes, n)
    return grad


def project_with_jacobian(
    geo_params: np.ndarray,
    k: CameraIntrinsics,
    sample_count: int,
):
    """Project a lane's uniform samples and differentiate through it.

    geo_params is the lane vector of geometry.lane_to_vector:
    [4 curve params, n heights, z_min, z_max]. Returns (u, v, Ju, Jv)
    where the Jacobians have one row per sample over those parameters.
    """
    theta = np.asarray(geo_params, dtype=float)[None, :]
    proj = _project(theta, np.array([[k.fx, k.fy, k.ox, k.oy]]), sample_count)
    dg = theta.shape[1]
    rows = np.arange(sample_count)
    Ju = np.zeros((sample_count, dg))
    Jv = np.zeros((sample_count, dg))
    Ju[:, :4] = proj.du_dcurve[0].T
    Ju[:, -2:] = proj.du_dspan[0].T
    Jv[rows, 4 + proj.left] = proj.dv_dy[0] * (1.0 - proj.w)
    Jv[rows, 5 + proj.left] += proj.dv_dy[0] * proj.w
    Jv[:, -2:] = proj.dv_dspan[0].T
    return proj.u[0], proj.v[0], Ju, Jv


@dataclass(frozen=True)
class PerspectiveLosses:
    """Projected losses for one lane pair, with gradients.

    overlap is False when the projection shares no grid row with the
    target; both losses are then +inf with zero gradients and callers
    should treat the pair as unmatched.
    """

    l_per: float
    l_v: float
    grad_per: np.ndarray
    grad_v: np.ndarray
    overlap: bool


def _perspective_batch(theta: np.ndarray, targets: LaneTargets):
    """perspective_losses over an (L, P) stack: (l_per, l_v, grad_per, grad_v, overlap).

    Lanes without overlap read +inf with zero gradients.
    """
    n_lanes, dg = theta.shape
    m = SAMPLE_COUNT
    proj = _project(theta, targets.camera, m)
    u, v = proj.u, proj.v

    # One entry per (lane, row) both cover, in lane then row order: the
    # sample a starting its crossing segment and the crossing fraction t.
    lane, row, a, t = _crossed_cells(v, targets.rows, targets.present)
    count = np.bincount(lane, minlength=n_lanes)
    overlap = count > 0
    b = a + 1
    ua, ub = u.ravel()[a], u.ravel()[b]
    dv = v.ravel()[b] - v.ravel()[a]
    one_t = 1.0 - t
    diff = one_t * ua + t * ub - targets.u_values[lane, row]
    l_per, g_rows = _iou_loss_rows(diff, lane, count, PERSPECTIVE_E)

    # Through the crossing fraction t = (r - va) / (vb - va) the row
    # placement feeds back into u: dt/dva = (t - 1) / dv, dt/dvb = -t / dv.
    # A segment lying on its row has t = 0 (as in _crossed_cells)
    # whatever its ends do, so there dt/dv = 0.
    flat = dv == 0.0
    g_t = np.where(flat, 0.0, g_rows * (ub - ua) / np.where(flat, 1.0, dv))
    size = n_lanes * m
    w_u = np.bincount(a, g_rows * one_t, size) + np.bincount(b, g_rows * t, size)
    w_v = np.bincount(a, g_t * (t - 1.0), size) + np.bincount(b, -g_t * t, size)
    grad_per = _contract(proj, dg - 6, w_u.reshape(n_lanes, m), w_v.reshape(n_lanes, m))

    # l_v reads v at the two end samples alone. The first sample sits on
    # keypoint 0 and on z_min, the last on keypoint n - 1 and on z_max
    # (w is 0 and 1 there, and dz/dspan is [1, 0] and [0, 1]), so each
    # end feeds one height and one span endpoint.
    d_ends = v[:, [0, -1]] - targets.v_ends
    l_v = np.abs(d_ends[:, 0]) + np.abs(d_ends[:, 1])
    w_end = np.sign(d_ends)
    grad_v = np.zeros((n_lanes, dg))
    grad_v[:, [4, -3]] = w_end * proj.dv_dy[:, [0, -1]]
    grad_v[:, -2] = w_end[:, 0] * proj.dv_dspan[:, 0, 0]
    grad_v[:, -1] = w_end[:, 1] * proj.dv_dspan[:, 1, -1]

    l_per[~overlap] = np.inf
    l_v[~overlap] = np.inf
    grad_per[~overlap] = 0.0
    grad_v[~overlap] = 0.0
    return l_per, l_v, grad_per, grad_v, overlap


def _iou_loss_rows(diff, lane, count, e):
    """Per-lane 1 - mean IoU over rows grouped by lane, and each row's gradient.

    The per-row derivative is sign(dx) * 4e / (2e + |dx|)^2 / rows; at
    dx = 0 the sign is taken as 0 (zero subgradient at the tie).
    """
    s = np.abs(diff)
    wide = 2.0 * e + s
    iou = (2.0 * e - s) / wide
    rows = np.maximum(count, 1)
    loss = 1.0 - np.bincount(lane, iou, count.size) / rows
    grad = np.sign(diff) * (4.0 * e) / wide**2 / rows[lane]
    return loss, grad


def perspective_losses(
    pred: Lane3D,
    k: CameraIntrinsics,
    gt: ResampledLane2D,
    geo_params: np.ndarray | None = None,
) -> PerspectiveLosses:
    """Image-plane losses of a projected 3D lane against a resampled target.

    l_per is the widened-lane IoU loss over the grid rows both lanes
    cover; l_v compares the continuous endpoint rows of the projection
    (v at z_min and z_max) with the target polyline's endpoint rows.
    Gradients run over the lane's geometry parameters.

    geo_params stands in for the parameter vector derived from pred, so
    a lane can be scored straight from its vector.
    """
    if geo_params is None:
        geo_params = lane_to_vector(pred)
    theta = np.asarray(geo_params, dtype=float)[None, :]
    l_per, l_v, grad_per, grad_v, overlap = _perspective_batch(theta, LaneTargets.stack([gt], [k]))
    return PerspectiveLosses(
        float(l_per[0]), float(l_v[0]), grad_per[0], grad_v[0], overlap=bool(overlap[0])
    )


def lane_losses(theta: np.ndarray, targets: LaneTargets):
    """The objective of an (L, P) stack of lanes against their targets.

    Rows of theta are [4 curve params, n heights, z_min, z_max]. With 3D
    labels in targets a lane's loss is (l_bev + l_h + l_z) + (l_per +
    l_v), with terms [l_per, l_v, l_bev, l_h, l_z]; without them it is
    (l_per + l_v) + l_reg, the height spread, with terms [l_per, l_v,
    l_reg]. Returns (loss (L,), gradient (L, P), terms (L, k), overlap
    (L,)). A lane whose projection shares no row with its target has
    loss +inf and a zero gradient.
    """
    l_per, l_v, grad_per, grad_v, overlap = _perspective_batch(theta, targets)
    grad = grad_per + grad_v
    if targets.labels is None:
        l_reg, g_reg = _height_spread(theta[:, 4:-2])
        grad[:, 4:-2] += g_reg
        loss = (l_per + l_v) + l_reg
        terms = [l_per, l_v, l_reg]
    else:
        # the labels are read at the BEV samples and at the keypoints
        z_min, z_max, labels = theta[:, -2], theta[:, -1], targets.labels
        z = np.linspace(z_min, z_max, SAMPLE_COUNT, axis=-1)
        key_z = np.linspace(z_min, z_max, theta.shape[1] - 6, axis=-1)
        gt_x = np.stack([np.interp(row, g[:, 2], g[:, 0]) for row, g in zip(z, labels)])
        gt_h = np.stack([np.interp(row, g[:, 2], g[:, 1]) for row, g in zip(key_z, labels)])
        gt_span = np.array([[g[0, 2], g[-1, 2]] for g in labels])
        l_bev, g_bev = _bev_term(theta[:, :4], z, gt_x, BEV_E)
        l_h, g_h = _height_term(theta[:, 4:-2], gt_h)
        l_z, g_z = _span_term(theta[:, -2:], gt_span)
        grad[:, :4] += g_bev
        grad[:, 4:-2] += g_h
        grad[:, -2:] += g_z
        loss = (l_bev + l_h + l_z) + (l_per + l_v)
        terms = [l_per, l_v, l_bev, l_h, l_z]
    loss[~overlap] = np.inf
    grad[~overlap] = 0.0
    return loss, grad, np.column_stack(terms), overlap
