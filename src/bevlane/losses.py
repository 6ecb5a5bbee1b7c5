"""Training losses for decoupled 3D lanes, with analytic gradients.

Geometry terms are IoU-style: two lanes widened to 2e compare as
iou = (2e - |dx|) / (2e + |dx|) per sample, averaged, and the loss is
1 - iou. The same form serves the bird's-eye view (e in meters) and the
image plane (e in pixels). Supervision has two branches: with 3D labels
the BEV curve, heights and z-span are penalized directly alongside the
projected losses; with 2D-only labels the projected losses carry the
geometry and a height standard-deviation regularizer removes the
otherwise unconstrained vertical wobble.

Every term returns its gradient with respect to the lane parameter
vector convention of geometry.lane_to_vector, restricted to the slice
the term actually touches. Sampling is uniform in fractions of the
lane's span, so interpolation weights are constants of the parameters
and the terms stay piecewise smooth.

Every term runs on an (L, P) stack of lanes at once, and lane_losses
combines them into the one objective of both branches; whether the
targets carry 3D labels picks the branch. perspective_losses,
project_with_jacobian, bev_iou_loss, height_loss, endpoint_z_loss and
lane_loss are their stacks of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from .assignment import MatchResult, ResampledLane2D, first_crossings_batch
from .camera import CameraIntrinsics
from .errors import DimensionMismatchError, GridMismatchError, ValidationError
from .geometry import Lane3D, lane_to_vector

BCE_EPS = 1e-7


@dataclass(frozen=True)
class IoUConfig:
    """Half-width e of the widened-lane IoU and the sample count."""

    e: float
    sample_count: int = 72

    def __post_init__(self):
        if not (self.e > 0.0 and math.isfinite(4.0 * self.e)):
            raise ValidationError(f"IoU half-width e must be > 0 with 4e finite, got {self.e}")
        if self.sample_count < 2:
            raise ValidationError("sample_count must be >= 2")


# e in meters for bird's-eye-view comparisons.
DEFAULT_BEV_IOU = IoUConfig(e=0.5)
# e in pixels for image-plane comparisons.
DEFAULT_PERSPECTIVE_IOU = IoUConfig(e=15.0)


@dataclass(frozen=True)
class LossWeights:
    """Balance between the 3D branch (alpha) and the 2D branch (beta)."""

    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValidationError(f"{name} must be finite and >= 0, got {getattr(self, name)}")


def lane_iou(xs_pred: np.ndarray, xs_gt: np.ndarray, e: float) -> float:
    """Mean widened-lane IoU between two lanes sampled at shared positions.

    Each sample contributes (2e - |dx|) / (2e + |dx|), which is 1 at
    coincidence, 0 at |dx| = 2e, and tends to -1 as the lanes separate.
    """
    xs_pred = np.asarray(xs_pred, dtype=float)
    xs_gt = np.asarray(xs_gt, dtype=float)
    if xs_pred.shape != xs_gt.shape or xs_pred.ndim != 1 or xs_pred.size == 0:
        raise DimensionMismatchError(
            f"sample vectors must be equal-length 1-d, got {xs_pred.shape} vs {xs_gt.shape}"
        )
    IoUConfig(e)  # checks e
    one_lane = np.zeros(xs_pred.size, dtype=int)
    loss, _ = _iou_loss_rows(xs_pred - xs_gt, one_lane, np.array([xs_pred.size]), e)
    return float(1.0 - loss[0])


def bev_iou_loss(pred: Lane3D, gt_xs: np.ndarray, cfg: IoUConfig = DEFAULT_BEV_IOU):
    """BEV curve loss against target lateral offsets at the lane's samples.

    gt_xs must hold the target x at the lane's own uniform z samples
    (cfg.sample_count of them). Returns (loss, gradient over the four
    curve coefficients).
    """
    z = np.linspace(pred.z_min, pred.z_max, cfg.sample_count)
    gt_xs = np.asarray(gt_xs, dtype=float)
    if gt_xs.shape != z.shape:
        raise DimensionMismatchError(
            f"expected {z.shape[0]} target offsets, got {gt_xs.shape}"
        )
    c = pred.curve
    loss, grad = _bev_term(np.array([[c.a, c.b, c.c, c.d]]), z[None], gt_xs[None], cfg.e)
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


def classification_loss(scores: np.ndarray, labels: np.ndarray):
    """Mean binary cross-entropy over lane confidences.

    Scores are clipped away from 0 and 1 before the logs; the gradient is
    evaluated at the clipped values. Returns (loss, gradient over scores).
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise DimensionMismatchError(
            f"scores and labels must be equal-length 1-d, got {scores.shape} vs {labels.shape}"
        )
    if scores.size == 0:
        return 0.0, np.zeros(0)
    p = np.clip(scores, BCE_EPS, 1.0 - BCE_EPS)
    loss = float(-np.mean(labels * np.log(p) + (1.0 - labels) * np.log1p(-p)))
    grad = (-labels / p + (1.0 - labels) / (1.0 - p)) / scores.size
    return loss, grad


def bernstein_basis(s: np.ndarray) -> np.ndarray:
    """Cubic Bernstein polynomials evaluated at fractions s, shape (m, 4)."""
    s = np.asarray(s, dtype=float)
    r = 1.0 - s
    return np.stack([r**3, 3.0 * r**2 * s, 3.0 * r * s**2, s**3], axis=1)


@dataclass(frozen=True)
class LaneTargets:
    """The targets of a stack of lanes, each with its camera.

    All lanes share one row grid. u_values and present are (L, rows),
    v_ends holds each target's [v_first, v_last] and camera its [fx, fy,
    ox, oy], so each lane projects through its own frame's intrinsics.
    labels is None for 2D-only targets, or else holds each lane's 3D
    label points, an (m, 3) array of [x, y, z] sorted by z.
    """

    rows: np.ndarray
    u_values: np.ndarray
    present: np.ndarray
    v_ends: np.ndarray
    camera: np.ndarray
    labels: tuple[np.ndarray, ...] | None = None

    @classmethod
    def stack(
        cls,
        gts: list[ResampledLane2D],
        intrinsics: list[CameraIntrinsics],
        labels3d: list[np.ndarray] | None = None,
    ) -> "LaneTargets":
        """Targets from resampled lanes on one grid, with one camera and
        optionally one (m, 3) label array per lane."""
        if len(intrinsics) != len(gts):
            raise DimensionMismatchError("need one camera per target lane")
        if any(not np.array_equal(g.v_grid, gts[0].v_grid) for g in gts):
            raise GridMismatchError("a stack of targets must share one row grid")
        labels = None if labels3d is None else [np.asarray(g, dtype=float) for g in labels3d]
        if labels is not None:
            if len(labels) != len(gts) or any(g.ndim != 2 or g.shape[1] != 3 for g in labels):
                raise DimensionMismatchError("need one (m, 3) label array per target lane")
            labels = tuple(g[np.argsort(g[:, 2], kind="stable")] for g in labels)
        return cls(
            rows=gts[0].v_grid,
            u_values=np.stack([g.u_values for g in gts]),
            present=np.stack([g.present for g in gts]),
            v_ends=np.array([[g.v_first, g.v_last] for g in gts]),
            camera=np.array([[k.fx, k.fy, k.ox, k.oy] for k in intrinsics]),
            labels=labels,
        )

    def take(self, idx: np.ndarray) -> "LaneTargets":
        """The targets of the lanes at idx."""
        labels = None if self.labels is None else tuple(self.labels[i] for i in idx)
        arrays = (self.u_values, self.present, self.v_ends, self.camera)
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


def _project(theta: np.ndarray, camera: np.ndarray, sample_count: int, basis: str) -> _Projection:
    """Project the uniform samples of an (L, P) stack of lanes through (L, 4) cameras.

    Only elementwise arithmetic and reductions along a lane's own row are
    used, so each lane's numbers do not depend on the rest of the stack.
    """
    fx, fy, ox, oy = camera.T[:, :, None]
    n = theta.shape[1] - 6
    z_min, z_max = theta[:, -2:-1], theta[:, -1:]
    if not np.all((0.0 < z_min) & (z_min < z_max)):
        raise ValidationError("need 0 < z_min < z_max for every lane")

    m = sample_count
    s = np.linspace(0.0, 1.0, m)
    z = z_min + s * (z_max - z_min)
    c0, c1, c2, c3 = (theta[:, i : i + 1] for i in range(4))
    if basis == "power":
        # BevCurve.x_at's evaluator and its slope dx/dz, per lane.
        x = polyval(z, theta[:, 3::-1].T[..., None], tensor=False)
        dx_dcurve = _powers(z)
        slope = (3.0 * c0 * z + 2.0 * c1) * z + c2
        # z_j = z_min + s_j * (z_max - z_min), so moving an endpoint slides
        # the sample along the curve.
        dx_dspan = np.stack([slope * (1.0 - s), slope * s], axis=1)
    else:
        # Control points ride the span fractions, so x at a fixed fraction
        # does not depend on the z endpoints at all.
        basis_s = bernstein_basis(s).T
        x = c0 * basis_s[0] + c1 * basis_s[1] + c2 * basis_s[2] + c3 * basis_s[3]
        dx_dcurve = np.broadcast_to(basis_s, (theta.shape[0], 4, m))
        dx_dspan = np.zeros((theta.shape[0], 2, m))

    # Height keypoints sit at uniform fractions too, so the interpolation
    # weights of each sample are constants of the parameters.
    pos = s * (n - 1)
    left = np.clip(np.floor(pos).astype(int), 0, n - 2)
    w = pos - left
    y = (1.0 - w) * theta[:, 4 + left] + w * theta[:, 5 + left]

    inv_z = 1.0 / z
    inv_z2 = (inv_z**2)[:, None, :]
    dz_dspan = np.stack([1.0 - s, s])
    return _Projection(
        u=fx * x / z + ox,
        v=fy * y / z + oy,
        du_dcurve=fx[:, :, None] * dx_dcurve * inv_z[:, None, :],
        du_dspan=fx[:, :, None] * (dx_dspan * z[:, None, :] - x[:, None, :] * dz_dspan) * inv_z2,
        dv_dy=fy * inv_z,
        dv_dspan=-fy[:, :, None] * y[:, None, :] * dz_dspan * inv_z2,
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
    basis: str = "power",
):
    """Project a lane's uniform samples and differentiate through it.

    geo_params is the lane parameter vector without the trailing score:
    [4 curve params, n heights, z_min, z_max]. Returns (u, v, Ju, Jv)
    where the Jacobians have one row per sample over those parameters.
    """
    theta = np.asarray(geo_params, dtype=float)[None, :]
    proj = _project(theta, np.array([[k.fx, k.fy, k.ox, k.oy]]), sample_count, basis)
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


def _perspective_batch(theta: np.ndarray, targets: LaneTargets, cfg: IoUConfig, basis: str):
    """perspective_losses over an (L, P) stack: (l_per, l_v, grad_per, grad_v, overlap).

    Lanes without overlap read +inf with zero gradients.
    """
    n_lanes, dg = theta.shape
    m = cfg.sample_count
    proj = _project(theta, targets.camera, m, basis)
    u, v = proj.u, proj.v

    found, seg, t = first_crossings_batch(v, targets.rows)
    lane, row = np.nonzero(found & targets.present)
    count = np.bincount(lane, minlength=n_lanes)
    overlap = count > 0

    # One entry per (lane, row) both cover, in lane then row order.
    a = lane * m + seg[lane, row]
    t = t[lane, row]
    ua, ub = u.ravel()[a], u.ravel()[a + 1]
    va, vb = v.ravel()[a], v.ravel()[a + 1]
    diff = (1.0 - t) * ua + t * ub - targets.u_values[lane, row]
    l_per, g_rows = _iou_loss_rows(diff, lane, count, cfg.e)

    # Through the crossing fraction t = (r - va) / (vb - va) the row
    # placement feeds back into u: dt/dva = (t - 1) / dv, dt/dvb = -t / dv.
    g_t = g_rows * (ub - ua) / (vb - va)
    size = n_lanes * m
    w_u = np.bincount(a, g_rows * (1.0 - t), size) + np.bincount(a + 1, g_rows * t, size)
    w_v = np.bincount(a, g_t * (t - 1.0), size) + np.bincount(a + 1, -g_t * t, size)
    grad_per = _contract(proj, dg - 6, w_u.reshape(n_lanes, m), w_v.reshape(n_lanes, m))

    d_ends = v[:, [0, -1]] - targets.v_ends
    l_v = np.abs(d_ends[:, 0]) + np.abs(d_ends[:, 1])
    w_end = np.zeros((n_lanes, m))
    w_end[:, [0, -1]] = np.sign(d_ends)
    grad_v = _contract(proj, dg - 6, np.zeros((n_lanes, m)), w_end)

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
    iou = (2.0 * e - s) / (2.0 * e + s)
    rows = np.maximum(count, 1)
    loss = 1.0 - np.bincount(lane, iou, count.size) / rows
    grad = np.sign(diff) * (4.0 * e) / (2.0 * e + s) ** 2 / rows[lane]
    return loss, grad


def perspective_losses(
    pred: Lane3D,
    k: CameraIntrinsics,
    gt: ResampledLane2D,
    cfg: IoUConfig = DEFAULT_PERSPECTIVE_IOU,
    basis: str = "power",
    geo_params: np.ndarray | None = None,
) -> PerspectiveLosses:
    """Image-plane losses of a projected 3D lane against a resampled target.

    l_per is the widened-lane IoU loss over the grid rows both lanes
    cover; l_v compares the continuous endpoint rows of the projection
    (v at z_min and z_max) with the target polyline's endpoint rows.
    Gradients run over the lane's geometry parameters.

    geo_params, in the given basis, stands in for the parameter vector
    derived from pred, so a lane can be scored straight from its vector.
    """
    if geo_params is None:
        geo_params = lane_to_vector(pred)[:-1]
    theta = np.asarray(geo_params, dtype=float)[None, :]
    l_per, l_v, grad_per, grad_v, overlap = _perspective_batch(
        theta, LaneTargets.stack([gt], [k]), cfg, basis
    )
    return PerspectiveLosses(
        float(l_per[0]), float(l_v[0]), grad_per[0], grad_v[0], overlap=bool(overlap[0])
    )


def lane_losses(
    theta: np.ndarray,
    targets: LaneTargets,
    per_iou: IoUConfig = DEFAULT_PERSPECTIVE_IOU,
    weights: LossWeights = LossWeights(),
    basis: str = "power",
):
    """The objective of an (L, P) stack of lanes against their targets.

    Rows of theta are [4 curve params, n heights, z_min, z_max] in the
    given curve basis. With 3D labels in targets (power basis only) a
    lane's loss is alpha * (l_bev + l_h + l_z) + beta * (l_per + l_v),
    with terms [l_per, l_v, l_bev, l_h, l_z]; without them it is beta *
    (l_per + l_v) + l_reg, the height spread, with terms [l_per, l_v,
    l_reg]. Returns (loss (L,), gradient (L, P), terms (L, k), overlap
    (L,)). A lane whose projection shares no row with its target has
    loss +inf and a zero gradient.
    """
    if targets.labels is not None and basis != "power":
        raise ValidationError("3D supervision uses the power curve basis")
    l_per, l_v, grad_per, grad_v, overlap = _perspective_batch(theta, targets, per_iou, basis)
    grad = weights.beta * (grad_per + grad_v)
    if targets.labels is None:
        l_reg, g_reg = _height_spread(theta[:, 4:-2])
        grad[:, 4:-2] += g_reg
        loss = weights.beta * (l_per + l_v) + l_reg
        terms = [l_per, l_v, l_reg]
    else:
        # the labels are read at the BEV samples and at the keypoints
        z_min, z_max, labels = theta[:, -2], theta[:, -1], targets.labels
        z = np.linspace(z_min, z_max, DEFAULT_BEV_IOU.sample_count, axis=-1)
        key_z = np.linspace(z_min, z_max, theta.shape[1] - 6, axis=-1)
        gt_x = np.stack([np.interp(row, g[:, 2], g[:, 0]) for row, g in zip(z, labels)])
        gt_h = np.stack([np.interp(row, g[:, 2], g[:, 1]) for row, g in zip(key_z, labels)])
        gt_span = np.array([[g[0, 2], g[-1, 2]] for g in labels])
        l_bev, g_bev = _bev_term(theta[:, :4], z, gt_x, DEFAULT_BEV_IOU.e)
        l_h, g_h = _height_term(theta[:, 4:-2], gt_h)
        l_z, g_z = _span_term(theta[:, -2:], gt_span)
        grad[:, :4] += weights.alpha * g_bev
        grad[:, 4:-2] += weights.alpha * g_h
        grad[:, -2:] += weights.alpha * g_z
        loss = weights.alpha * (l_bev + l_h + l_z) + weights.beta * (l_per + l_v)
        terms = [l_per, l_v, l_bev, l_h, l_z]
    loss[~overlap] = np.inf
    grad[~overlap] = 0.0
    return loss, grad, np.column_stack(terms), overlap


def lane_loss(
    geo_params: np.ndarray,
    k: CameraIntrinsics,
    gt2d: ResampledLane2D,
    gt3: np.ndarray | None = None,
    per_iou: IoUConfig = DEFAULT_PERSPECTIVE_IOU,
    weights: LossWeights = LossWeights(),
    basis: str = "power",
):
    """The objective of one predicted lane against its target: lane_losses
    on a stack of one.

    geo_params is [4 curve params, n heights, z_min, z_max] in the given
    curve basis, and gt3 the lane's optional (m, 3) 3D label points.
    Returns (loss, gradient over geo_params, terms by name plus "total"),
    or None when the projection shares no row with the target.
    """
    targets = LaneTargets.stack([gt2d], [k], None if gt3 is None else [gt3])
    theta = np.asarray(geo_params, dtype=float)[None, :]
    loss, grad, terms, overlap = lane_losses(theta, targets, per_iou, weights, basis)
    if not overlap[0]:
        return None
    return float(loss[0]), grad[0], targets.named(terms[0], loss[0])


@dataclass(frozen=True)
class LossBreakdown:
    """All loss terms of one frame plus the total and its gradient.

    gradient has one row per prediction over the full parameter vector
    (curve, heights, z-span, score). Terms outside the active supervision
    branch are zero. matched holds the pairs that actually contributed,
    after dropping any whose projection lost overlap.
    """

    l_cls: float
    l_bev: float
    l_h: float
    l_z: float
    l_per: float
    l_v: float
    l_reg: float
    total: float
    gradient: np.ndarray
    matched: tuple[tuple[int, int], ...] = ()


def total_loss(
    preds: list[Lane3D],
    gts_2d: list[ResampledLane2D],
    matches: MatchResult,
    k: CameraIntrinsics,
    gts_3d: list[np.ndarray] | None = None,
    per_iou: IoUConfig = DEFAULT_PERSPECTIVE_IOU,
    weights: LossWeights = LossWeights(),
) -> LossBreakdown:
    """Combine classification and geometry losses for one frame.

    Predictions must already be assigned to ground truth (matches).
    Geometry terms are averaged over the matched pairs; matched
    predictions take classification label 1 and the rest 0. With 3D
    labels (gts_3d as (m, 3) point arrays, aligned with gts_2d) the
    total is l_cls + alpha * (l_bev + l_h + l_z) + beta * (l_per + l_v);
    without them it is l_cls + beta * (l_per + l_v) + l_reg.
    """
    n_pred = len(preds)
    if n_pred == 0:
        return LossBreakdown(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, np.zeros((0, 0)))
    if gts_3d is not None and len(gts_3d) != len(gts_2d):
        raise DimensionMismatchError("gts_3d must align with gts_2d")

    vectors = [lane_to_vector(p) for p in preds]
    dim = vectors[0].size
    if any(vec.size != dim for vec in vectors):
        raise DimensionMismatchError("all predictions must share one keypoint count")

    scored = []
    for i, j, _cost in matches.pairs:
        gt3 = None if gts_3d is None else gts_3d[j]
        out = lane_loss(vectors[i][:-1], k, gts_2d[j], gt3, per_iou, weights)
        if out is not None:
            scored.append((i, j, out))
    m = max(len(scored), 1)
    names = ("l_bev", "l_h", "l_z", "l_per", "l_v", "l_reg")
    sums = {key: sum(out[2].get(key, 0.0) for _i, _j, out in scored) / m for key in names}
    grad = np.zeros((n_pred, dim))
    labels = np.zeros(n_pred)
    for i, _j, (_loss, geo_grad, _terms) in scored:
        grad[i, :-1] += geo_grad / m
        labels[i] = 1.0
    scores = np.array([p.score for p in preds])
    l_cls, g_cls = classification_loss(scores, labels)
    grad[:, -1] += g_cls

    # Terms outside the active branch are exactly zero, so one formula
    # serves both branches.
    total = (
        l_cls
        + weights.alpha * (sums["l_bev"] + sums["l_h"] + sums["l_z"])
        + weights.beta * (sums["l_per"] + sums["l_v"])
        + sums["l_reg"]
    )
    kept = tuple((i, j) for i, j, _out in scored)
    return LossBreakdown(l_cls=l_cls, **sums, total=total, gradient=grad, matched=kept)
