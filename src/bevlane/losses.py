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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import MatchResult, ResampledLane2D, first_crossings
from .camera import CameraIntrinsics
from .errors import DimensionMismatchError, ValidationError
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
        if not (self.alpha >= 0.0 and self.beta >= 0.0):
            raise ValidationError(f"weights must be >= 0, got alpha={self.alpha}, beta={self.beta}")


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


def _iou_loss_terms(xs_pred, xs_gt, e):
    """1 - mean IoU and its gradient with respect to xs_pred.

    The per-sample derivative is sign(dx) * 4e / (2e + |dx|)^2 / m; at
    dx = 0 the sign is taken as 0 (zero subgradient at the tie).
    """
    diff = xs_pred - xs_gt
    s = np.abs(diff)
    iou = (2.0 * e - s) / (2.0 * e + s)
    grad = np.sign(diff) * (4.0 * e) / (2.0 * e + s) ** 2 / s.size
    return 1.0 - float(np.mean(iou)), grad


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
    loss, dloss_dx = _iou_loss_terms(xs, gt_xs, cfg.e)
    powers = np.stack([z**3, z**2, z, np.ones_like(z)], axis=1)
    return loss, dloss_dx @ powers


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
    return _height_spread(np.asarray(pred.profile.heights, dtype=float))


def _height_spread(heights: np.ndarray):
    centered = heights - heights.mean()
    sigma = float(np.sqrt(np.mean(centered**2)))
    if sigma == 0.0:
        return 0.0, np.zeros_like(heights)
    return sigma, centered / (heights.size * sigma)


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


class _PowerCurve:
    """x(s) from cubic coefficients in z, for span-fraction sampling."""

    n_params = 4

    @staticmethod
    def x_and_grads(params, s, z, span):
        a, b, c, d = params
        x = ((a * z + b) * z + c) * z + d
        dx_dparams = np.stack([z**3, z**2, z, np.ones_like(z)], axis=1)
        slope = (3.0 * a * z + 2.0 * b) * z + c
        # z_j = z_min + s_j * (z_max - z_min), so moving an endpoint slides
        # the sample along the curve.
        dx_dzmin = slope * (1.0 - s)
        dx_dzmax = slope * s
        return x, dx_dparams, dx_dzmin, dx_dzmax


class _BernsteinCurve:
    """x(s) from four control values on the cubic Bernstein basis.

    Control points ride the span fractions, so x at a fixed fraction does
    not depend on the z endpoints at all.
    """

    n_params = 4

    @staticmethod
    def x_and_grads(params, s, z, span):
        basis = bernstein_basis(s)
        x = basis @ np.asarray(params, dtype=float)
        zero = np.zeros_like(s)
        return x, basis, zero, zero


def bernstein_basis(s: np.ndarray) -> np.ndarray:
    """Cubic Bernstein polynomials evaluated at fractions s, shape (m, 4)."""
    s = np.asarray(s, dtype=float)
    r = 1.0 - s
    return np.stack([r**3, 3.0 * r**2 * s, 3.0 * r * s**2, s**3], axis=1)


_CURVE_BASES = {"power": _PowerCurve, "bernstein": _BernsteinCurve}


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
    geo_params = np.asarray(geo_params, dtype=float)
    curve_kind = _CURVE_BASES[basis]
    n = geo_params.size - 6
    heights = geo_params[4 : 4 + n]
    z_min, z_max = geo_params[-2], geo_params[-1]
    if not 0.0 < z_min < z_max:
        raise ValidationError(f"need 0 < z_min < z_max, got [{z_min}, {z_max}]")

    m = sample_count
    s = np.linspace(0.0, 1.0, m)
    span = z_max - z_min
    z = z_min + s * span
    dz_dzmin = 1.0 - s
    dz_dzmax = s

    x, dx_dcurve, dx_dzmin, dx_dzmax = curve_kind.x_and_grads(geo_params[:4], s, z, span)

    # Height keypoints sit at uniform fractions too, so the interpolation
    # weights of each sample are constants of the parameters.
    pos = s * (n - 1)
    left = np.clip(np.floor(pos).astype(int), 0, n - 2)
    w = pos - left
    y = (1.0 - w) * heights[left] + w * heights[left + 1]
    dy_dh = np.zeros((m, n))
    rows = np.arange(m)
    dy_dh[rows, left] = 1.0 - w
    dy_dh[rows, left + 1] += w

    u = k.fx * x / z + k.ox
    v = k.fy * y / z + k.oy

    dg = geo_params.size
    Ju = np.zeros((m, dg))
    Jv = np.zeros((m, dg))
    inv_z = 1.0 / z
    Ju[:, :4] = k.fx * dx_dcurve * inv_z[:, None]
    Ju[:, -2] = k.fx * (dx_dzmin * z - x * dz_dzmin) * inv_z**2
    Ju[:, -1] = k.fx * (dx_dzmax * z - x * dz_dzmax) * inv_z**2
    Jv[:, 4 : 4 + n] = k.fy * dy_dh * inv_z[:, None]
    Jv[:, -2] = -k.fy * y * dz_dzmin * inv_z**2
    Jv[:, -1] = -k.fy * y * dz_dzmax * inv_z**2
    return u, v, Ju, Jv


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
    u, v, Ju, Jv = project_with_jacobian(geo_params, k, cfg.sample_count, basis)

    points = np.column_stack([u, v])
    found, seg, t = first_crossings(points, gt.v_grid)
    common = found & gt.present
    dg = geo_params.size
    if not common.any():
        return PerspectiveLosses(
            l_per=float("inf"),
            l_v=float("inf"),
            grad_per=np.zeros(dg),
            grad_v=np.zeros(dg),
            overlap=False,
        )

    seg_c = seg[common]
    t_c = t[common][:, None]
    ua, ub = u[seg_c, None], u[seg_c + 1, None]
    va, vb = v[seg_c, None], v[seg_c + 1, None]
    u_rows = ((1.0 - t_c) * ua + t_c * ub)[:, 0]
    # Through the crossing fraction t = (r - va) / (vb - va) the row
    # placement feeds back into u: dt/dva = (t - 1) / dv, dt/dvb = -t / dv.
    dv = vb - va
    dt_num = (t_c - 1.0) * Jv[seg_c] - t_c * Jv[seg_c + 1]
    J_rows = (1.0 - t_c) * Ju[seg_c] + t_c * Ju[seg_c + 1] + (ub - ua) * dt_num / dv

    l_per, dloss_du = _iou_loss_terms(u_rows, gt.u_values[common], cfg.e)
    grad_per = dloss_du @ J_rows

    d_first = v[0] - gt.v_first
    d_last = v[-1] - gt.v_last
    l_v = abs(d_first) + abs(d_last)
    grad_v = np.sign(d_first) * Jv[0] + np.sign(d_last) * Jv[-1]
    return PerspectiveLosses(l_per, l_v, grad_per, grad_v, overlap=True)


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
    spread. Returns (loss, gradient over geo_params, terms), where terms
    holds the pieces present in the branch plus "total", or None when
    the projection shares no row with the target.
    """
    per = perspective_losses(None, k, gt2d, per_iou, basis=basis, geo_params=geo_params)
    if not per.overlap:
        return None
    grad = weights.beta * (per.grad_per + per.grad_v)
    terms = {"l_per": per.l_per, "l_v": per.l_v}
    if gt3 is None:
        l_reg, g_reg = _height_spread(geo_params[4:-2])
        grad[4:-2] += g_reg
        loss = weights.beta * (per.l_per + per.l_v) + l_reg
        terms["l_reg"] = l_reg
    else:
        if basis != "power":
            raise ValidationError("3D supervision uses the power curve basis")
        lane = lane_from_vector(np.append(geo_params, 1.0))
        gt3 = np.asarray(gt3, dtype=float)
        z = np.linspace(lane.z_min, lane.z_max, bev_iou.sample_count)
        l_bev, g_bev = bev_iou_loss(lane, np.interp(z, gt3[:, 2], gt3[:, 0]), bev_iou)
        gt_h = np.interp(lane.profile.keypoint_z(), gt3[:, 2], gt3[:, 1])
        l_h, g_h = height_loss(lane, gt_h)
        l_z, (g_zmin, g_zmax) = endpoint_z_loss(
            lane, float(gt3[:, 2].min()), float(gt3[:, 2].max())
        )
        grad[0:4] += weights.alpha * g_bev
        grad[4:-2] += weights.alpha * g_h
        grad[-2] += weights.alpha * g_zmin
        grad[-1] += weights.alpha * g_zmax
        loss = weights.alpha * (l_bev + l_h + l_z) + weights.beta * (per.l_per + per.l_v)
        terms.update(l_bev=l_bev, l_h=l_h, l_z=l_z)
    terms["total"] = loss
    return loss, grad, terms


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
