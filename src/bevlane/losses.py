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

The image-plane terms run on an (L, P) stack of lanes at once
(lane_losses_2d); perspective_losses, project_with_jacobian and the 2D
branch of lane_loss are its stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import MatchResult, ResampledLane2D, first_crossings_batch
from .camera import CameraIntrinsics
from .errors import DimensionMismatchError, GridMismatchError, ValidationError
from .geometry import Lane3D, lane_from_vector, lane_to_vector

BCE_EPS = 1e-7


@dataclass(frozen=True)
class IoUConfig:
    """Half-width e of the widened-lane IoU and the sample count."""

    e: float
    sample_count: int = 72

    def __post_init__(self):
        if not self.e > 0.0:
            raise ValidationError(f"IoU half-width e must be > 0, got {self.e}")
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
    if not e > 0.0:
        raise ValidationError(f"IoU half-width e must be > 0, got {e}")
    s = np.abs(xs_pred - xs_gt)
    return float(np.mean((2.0 * e - s) / (2.0 * e + s)))


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
    xs = pred.curve.x_at(z)
    one_lane = np.zeros(z.size, dtype=int)
    loss, dloss_dx = _iou_loss_rows(xs - gt_xs, one_lane, np.array([z.size]), cfg.e)
    powers = np.stack([z**3, z**2, z, np.ones_like(z)], axis=1)
    return float(loss[0]), dloss_dx @ powers


def height_loss(pred: Lane3D, gt_heights: np.ndarray):
    """Mean absolute keypoint height error; gradient over the keypoints."""
    h = np.asarray(pred.profile.heights, dtype=float)
    gt_heights = np.asarray(gt_heights, dtype=float)
    if gt_heights.shape != h.shape:
        raise DimensionMismatchError(
            f"expected {h.shape[0]} target heights, got {gt_heights.shape}"
        )
    diff = h - gt_heights
    loss = float(np.mean(np.abs(diff)))
    return loss, np.sign(diff) / h.size


def endpoint_z_loss(pred: Lane3D, gt_z_min: float, gt_z_max: float):
    """|dz_min| + |dz_max| between predicted and target span endpoints.

    Returns (loss, (d/dz_min, d/dz_max)).
    """
    d_min = pred.z_min - gt_z_min
    d_max = pred.z_max - gt_z_max
    loss = abs(d_min) + abs(d_max)
    return loss, (float(np.sign(d_min)), float(np.sign(d_max)))


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
    """The 2D targets of a stack of lanes, each with its camera.

    All lanes share one row grid. u_values and present are (L, rows),
    v_ends holds each target's [v_first, v_last] and camera its [fx, fy,
    ox, oy], so each lane projects through its own frame's intrinsics.
    """

    rows: np.ndarray
    u_values: np.ndarray
    present: np.ndarray
    v_ends: np.ndarray
    camera: np.ndarray

    @classmethod
    def stack(cls, gts: list[ResampledLane2D], intrinsics: list[CameraIntrinsics]) -> "LaneTargets":
        """Targets from resampled lanes on one grid, with one camera per lane."""
        if len(intrinsics) != len(gts):
            raise DimensionMismatchError("need one camera per target lane")
        if any(not np.array_equal(g.v_grid, gts[0].v_grid) for g in gts):
            raise GridMismatchError("a stack of targets must share one row grid")
        return cls(
            rows=gts[0].v_grid,
            u_values=np.stack([g.u_values for g in gts]),
            present=np.stack([g.present for g in gts]),
            v_ends=np.array([[g.v_first, g.v_last] for g in gts]),
            camera=np.array([[k.fx, k.fy, k.ox, k.oy] for k in intrinsics]),
        )

    def take(self, idx: np.ndarray) -> "LaneTargets":
        """The targets of the lanes at idx."""
        return LaneTargets(
            self.rows, self.u_values[idx], self.present[idx], self.v_ends[idx], self.camera[idx]
        )


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
        x = ((c0 * z + c1) * z + c2) * z + c3
        dx_dcurve = np.stack([z * z * z, z * z, z, np.ones_like(z)], axis=1)
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

    geo_params overrides the parameter vector derived from pred; fitting
    uses it to differentiate in the Bernstein basis.
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


def lane_losses_2d(
    theta: np.ndarray,
    targets: LaneTargets,
    per_iou: IoUConfig = DEFAULT_PERSPECTIVE_IOU,
    weights: LossWeights = LossWeights(),
    basis: str = "power",
):
    """The 2D-only objective of an (L, P) stack of lanes against their targets.

    Each lane's loss is beta * (l_per + l_v) + l_reg, the height spread.
    Returns (loss (L,), gradient (L, P), terms (L, 3) of [l_per, l_v,
    l_reg], overlap (L,)). A lane whose projection shares no row with
    its target has loss +inf and a zero gradient.
    """
    l_per, l_v, grad_per, grad_v, overlap = _perspective_batch(theta, targets, per_iou, basis)
    l_reg, g_reg = _height_spread(theta[:, 4:-2])
    grad = weights.beta * (grad_per + grad_v)
    grad[:, 4:-2] += g_reg
    loss = weights.beta * (l_per + l_v) + l_reg
    loss[~overlap] = np.inf
    grad[~overlap] = 0.0
    return loss, grad, np.column_stack([l_per, l_v, l_reg]), overlap


def lane_loss(
    geo_params: np.ndarray,
    k: CameraIntrinsics,
    gt2d: ResampledLane2D,
    gt3: np.ndarray | None = None,
    bev_iou: IoUConfig = DEFAULT_BEV_IOU,
    per_iou: IoUConfig = DEFAULT_PERSPECTIVE_IOU,
    weights: LossWeights = LossWeights(),
    basis: str = "power",
):
    """The objective of one predicted lane against its target.

    geo_params is [4 curve params, n heights, z_min, z_max] in the given
    curve basis. With 3D labels (gt3, (m, 3) points ordered by z; power
    basis only) the loss is alpha * (l_bev + l_h + l_z) + beta * (l_per +
    l_v); without them it is beta * (l_per + l_v) + l_reg, the height
    spread (one lane of lane_losses_2d). Returns (loss, gradient over
    geo_params, terms), where terms holds the pieces present in the
    branch plus "total", or None when the projection shares no row with
    the target.
    """
    geo_params = np.asarray(geo_params, dtype=float)
    if gt3 is None:
        loss, grad, terms, overlap = lane_losses_2d(
            geo_params[None, :], LaneTargets.stack([gt2d], [k]), per_iou, weights, basis
        )
        if not overlap[0]:
            return None
        return float(loss[0]), grad[0], terms_2d(terms[0], loss[0])

    if basis != "power":
        raise ValidationError("3D supervision uses the power curve basis")
    per = perspective_losses(None, k, gt2d, per_iou, geo_params=geo_params)
    if not per.overlap:
        return None
    grad = weights.beta * (per.grad_per + per.grad_v)
    lane = lane_from_vector(np.append(geo_params, 1.0))
    gt3 = np.asarray(gt3, dtype=float)
    z = np.linspace(lane.z_min, lane.z_max, bev_iou.sample_count)
    l_bev, g_bev = bev_iou_loss(lane, np.interp(z, gt3[:, 2], gt3[:, 0]), bev_iou)
    gt_h = np.interp(lane.profile.keypoint_z(), gt3[:, 2], gt3[:, 1])
    l_h, g_h = height_loss(lane, gt_h)
    l_z, (g_zmin, g_zmax) = endpoint_z_loss(lane, float(gt3[:, 2].min()), float(gt3[:, 2].max()))
    grad[0:4] += weights.alpha * g_bev
    grad[4:-2] += weights.alpha * g_h
    grad[-2] += weights.alpha * g_zmin
    grad[-1] += weights.alpha * g_zmax
    loss = weights.alpha * (l_bev + l_h + l_z) + weights.beta * (per.l_per + per.l_v)
    terms = {"l_per": per.l_per, "l_v": per.l_v, "l_bev": l_bev, "l_h": l_h, "l_z": l_z}
    terms["total"] = loss
    return loss, grad, terms


def terms_2d(terms: np.ndarray, loss: float) -> dict[str, float]:
    """One lane's row of lane_losses_2d terms as the named-terms dict."""
    l_per, l_v, l_reg = (float(x) for x in terms)
    return {"l_per": l_per, "l_v": l_v, "l_reg": l_reg, "total": float(loss)}


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
    bev_iou: IoUConfig = DEFAULT_BEV_IOU,
    per_iou: IoUConfig = DEFAULT_PERSPECTIVE_IOU,
    weights: LossWeights = LossWeights(),
) -> LossBreakdown:
    """Combine classification and geometry losses for one frame.

    Predictions must already be assigned to ground truth (matches).
    Geometry terms are averaged over the matched pairs; matched
    predictions take classification label 1 and the rest 0. With 3D
    labels (gts_3d as (m, 3) point arrays ordered by z, aligned with
    gts_2d) the total is l_cls + alpha * (l_bev + l_h + l_z) +
    beta * (l_per + l_v); without them it is l_cls + beta * (l_per +
    l_v) + l_reg.
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

    sums = {"l_bev": 0.0, "l_h": 0.0, "l_z": 0.0, "l_per": 0.0, "l_v": 0.0, "l_reg": 0.0}
    kept: list[tuple[int, int]] = []
    pair_grads: list[np.ndarray] = []
    for i, j, _cost in matches.pairs:
        gt3 = None if gts_3d is None else gts_3d[j]
        out = lane_loss(vectors[i][:-1], k, gts_2d[j], gt3, bev_iou, per_iou, weights)
        if out is None:
            continue
        _loss, geo_grad, terms = out
        for key in sums:
            sums[key] += terms.get(key, 0.0)
        kept.append((i, j))
        pair_grads.append(geo_grad)

    grad = np.zeros((n_pred, dim))
    m = len(kept)
    if m > 0:
        for (i, _j), geo_grad in zip(kept, pair_grads):
            grad[i, :-1] += geo_grad / m
        for key in sums:
            sums[key] /= m

    labels = np.zeros(n_pred)
    for i, _j in kept:
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
    return LossBreakdown(l_cls=l_cls, **sums, total=total, gradient=grad, matched=tuple(kept))
