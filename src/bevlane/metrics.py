"""Benchmark-style metrics: segmentation-IoU F1, row-anchor accuracy,
and 3D curve distance.

Lanes are widened to a fixed pixel width and rasterized; detection F1
counts one-to-one matches whose mask IoU clears a threshold, swept over
thresholds 0.50 to 0.95. Row-anchor accuracy follows the fraction-of-
correct-points convention with a pixel tolerance. Curve distance is a
symmetric mean point-to-polyline distance in meters between matched 3D
lanes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import first_crossings, hungarian_assign
from .camera import ImageSpec, Lane2D
from .errors import DimensionMismatchError, ValidationError
from .geometry import Lane3D, sample_lane

DEFAULT_IOU_THRESHOLDS = (0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95)


@dataclass(frozen=True)
class EvalConfig:
    """Widths, thresholds and tolerances for the metric suite."""

    lane_width: float = 30.0
    iou_thresholds: tuple[float, ...] = DEFAULT_IOU_THRESHOLDS
    tusimple_pixel_tol: float = 20.0
    tusimple_min_correct: float = 0.85
    raster_scale: float = 1.0

    def __post_init__(self):
        if not 1.0 <= self.lane_width < np.inf:
            raise ValidationError("lane_width must be finite and >= 1 pixel")
        if len(self.iou_thresholds) == 0 or any(
            t2 <= t1 for t1, t2 in zip(self.iou_thresholds, self.iou_thresholds[1:])
        ):
            raise ValidationError("iou_thresholds must be strictly increasing")
        if not 0.0 < self.raster_scale <= 1.0:
            raise ValidationError("raster_scale must be in (0, 1]")
        if not self.tusimple_pixel_tol >= 0.0:
            raise ValidationError("tusimple_pixel_tol must be >= 0")
        if not 0.0 <= self.tusimple_min_correct <= 1.0:
            raise ValidationError("tusimple_min_correct must be in [0, 1]")


# Width, relative to the coordinate magnitudes involved, of the band around
# a capsule's edge where rasterize_lane evaluates the per-pixel test instead
# of trusting the analytic row interval. Rounding moves a computed distance
# by a few 1e-16 of those magnitudes, so 1e-9 leaves a wide safety factor.
_EDGE_BAND = 1e-9


def rasterize_lane(
    lane: Lane2D, image: ImageSpec, width: float = 30.0, scale: float = 1.0
) -> np.ndarray:
    """Boolean mask of the lane widened to the given pixel width.

    Pixel (row j, column i) has its center at (i + 0.5, j + 0.5) and
    belongs to the lane when that center lies within (width - 1) / 2 of
    the polyline, so a vertical lane through a center covers exactly
    `width` columns. With scale < 1 the rule is applied on a
    proportionally smaller canvas.

    The widened segment is a capsule, which is convex, so it meets each
    pixel row in one interval of centers. Per (segment, row) pair the
    interval of a capsule slightly narrower than the lane is filled
    outright; the centers between it and a slightly wider capsule's
    interval are decided by the per-pixel test (distance squared to the
    clamped projection onto the segment, against the radius squared), so
    the mask is the one that test gives on every pixel.
    """
    if not 1.0 <= width < np.inf:
        raise ValidationError("width must be finite and >= 1 pixel")
    h = int(round(image.height * scale))
    w = int(round(image.width * scale))
    mask = np.zeros((h, w), dtype=bool)
    pts = lane.points * scale
    radius = (width * scale - 1.0) / 2.0
    if radius < 0.0:
        return mask

    a, b = pts[:-1], pts[1:]
    d = b - a
    seg_len2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    band = _EDGE_BAND * (1.0 + radius + h + w + np.abs(np.hstack([a, b])).max(axis=1))
    outer, inner = radius + band, radius - band

    # Every (segment, row) pair whose row the wider capsule can reach.
    v_lo = np.minimum(a[:, 1], b[:, 1]) - outer - 0.5
    v_hi = np.maximum(a[:, 1], b[:, 1]) + outer - 0.5
    first = np.ceil(np.clip(v_lo, 0, h)).astype(np.int64)
    last = np.floor(np.clip(v_hi, -1, h - 1)).astype(np.int64)
    counts = np.maximum(last - first + 1, 0)
    seg = np.repeat(np.arange(len(d)), counts)
    rows = first[seg] + _ranks(counts)
    y = rows + 0.5

    # Pixel columns inside the wider capsule (candidates) and inside the
    # narrower one (certainly in the mask; none when the radius is within
    # the band of 0).
    (cand_lo, cand_hi), (in_lo, in_hi) = _capsule_columns(
        a[seg], b[seg], seg_len2[seg], y, (outer[seg], inner[seg]), w
    )
    empty = (in_lo > in_hi) | (inner[seg] <= 0.0)
    in_lo = np.where(empty, cand_hi + 1, in_lo)
    in_hi = np.where(empty, cand_hi, in_hi)

    # The per-pixel test, operation for operation, on the edge bands
    # [cand_lo, in_lo) and (in_hi, cand_hi]: the center's projection onto
    # the segment clamped to it (the start point for a zero-length
    # segment), then squared distance against squared radius.
    starts = np.concatenate([cand_lo, in_hi + 1])
    lengths = np.maximum(np.concatenate([in_lo - cand_lo, cand_hi - in_hi]), 0)
    pair = np.repeat(np.tile(np.arange(len(seg)), 2), lengths)
    cols = np.repeat(starts, lengths) + _ranks(lengths)
    k = seg[pair]
    ua, va, du, dv, len2 = a[k, 0], a[k, 1], d[k, 0], d[k, 1], seg_len2[k]
    uu, vv = cols + 0.5, y[pair]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(((uu - ua) * du + (vv - va) * dv) / len2, 0.0, 1.0)
    t = np.where(len2 == 0.0, 0.0, t)
    dist2 = (uu - (ua + t * du)) ** 2 + (vv - (va + t * dv)) ** 2
    edge = (rows[pair] * w + cols)[dist2 <= radius * radius]

    # Merge the inside intervals and the edge pixels in flat canvas
    # indices, then fill each merged run.
    keep = ~empty
    run_lo = np.concatenate([rows[keep] * w + in_lo[keep], edge])
    run_hi = np.concatenate([rows[keep] * w + in_hi[keep], edge])
    if run_lo.size == 0:
        return mask
    order = np.argsort(run_lo)
    run_lo, run_hi = run_lo[order], run_hi[order]
    reach = np.maximum.accumulate(run_hi)
    heads = np.flatnonzero(np.concatenate([[True], run_lo[1:] > reach[:-1] + 1]))
    run_lo, run_hi = run_lo[heads], np.maximum.reduceat(run_hi, heads)
    lengths = run_hi - run_lo + 1
    mask.reshape(-1)[np.repeat(run_lo, lengths) + _ranks(lengths)] = True
    return mask


def _ranks(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c, concatenated."""
    return np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)


def _capsule_columns(a, b, seg_len2, y, radii, w):
    """Per pair and radius, the columns [lo, hi] whose centers on row y lie in the capsule.

    The capsule is every point within the radius of segment a-b: the
    disks at both ends and the slab between them, so its interval on a
    row is the hull of theirs. Columns are clipped to [0, w - 1];
    lo > hi marks an empty range.
    """
    du, dv = b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]
    rel_a, rel_b = y - a[:, 1], y - b[:, 1]
    length = np.sqrt(seg_len2)
    # The slab, relative to a: 0 <= X du + Y dv <= L^2 and |X dv - Y du| <= r L.
    along_lo, along_hi = _linear_range(du, -rel_a * dv, seg_len2 - rel_a * dv)
    columns = []
    for radius in radii:
        # A radius past 1e154 px overflows to inf here, which still
        # gives the right (whole-row) intervals.
        with np.errstate(over="ignore"):
            reach, radius2 = radius * length, radius * radius
        across_lo, across_hi = _linear_range(dv, rel_a * du - reach, rel_a * du + reach)
        lo = a[:, 0] + np.maximum(along_lo, across_lo)
        hi = a[:, 0] + np.minimum(along_hi, across_hi)
        slab = (lo <= hi) & (seg_len2 > 0.0)
        lo, hi = np.where(slab, lo, np.inf), np.where(slab, hi, -np.inf)
        # Disk chords; the square root of a negative (a missed disk) is NaN,
        # which fmin and fmax skip.
        with np.errstate(invalid="ignore"):
            for end, rel in ((a, rel_a), (b, rel_b)):
                half = np.sqrt(radius2 - rel * rel)
                lo, hi = np.fmin(lo, end[:, 0] - half), np.fmax(hi, end[:, 0] + half)
        columns.append((
            np.ceil(np.clip(lo - 0.5, 0, w)).astype(np.int64),
            np.floor(np.clip(hi - 0.5, -1, w - 1)).astype(np.int64),
        ))
    return columns


def _linear_range(slope, low, high):
    """The x-interval where low <= slope * x <= high (whole or empty at slope 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        x1, x2 = low / slope, high / slope
    rising, falling = slope > 0, slope < 0
    flat = np.where((low <= 0.0) & (0.0 <= high), np.inf, -np.inf)
    lo = np.where(rising, x1, np.where(falling, x2, -flat))
    hi = np.where(rising, x2, np.where(falling, x1, flat))
    return lo, hi


def mask_iou(a: np.ndarray, b: np.ndarray) -> float:
    """Intersection over union of two boolean masks.

    Two empty masks count as identical (IoU 1); one empty mask against a
    non-empty one scores 0.
    """
    if a.shape != b.shape:
        raise DimensionMismatchError(f"mask shapes differ: {a.shape} vs {b.shape}")
    union = np.count_nonzero(a | b)
    if union == 0:
        return 1.0
    return np.count_nonzero(a & b) / union


@dataclass(frozen=True)
class CountsF1:
    """Detection counts and scores at one IoU threshold."""

    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float


def counts_to_f1(tp: int, fp: int, fn: int) -> CountsF1:
    """Precision, recall and F1 from raw counts; 0/0 ratios score 0."""
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2.0 * tp / (2.0 * tp + fp + fn) if 2 * tp + fp + fn > 0 else 0.0
    return CountsF1(tp=tp, fp=fp, fn=fn, precision=precision, recall=recall, f1=f1)


@dataclass(frozen=True)
class F1Result:
    """Per-threshold detection scores and their mean F1."""

    counts: dict[float, CountsF1]
    mf1: float


def lane_iou_matrix(
    preds: list[Lane2D], gts: list[Lane2D], image: ImageSpec, cfg: EvalConfig = EvalConfig()
) -> np.ndarray:
    """Pairwise mask IoU between widened prediction and GT lanes."""
    pred_masks = [rasterize_lane(p, image, cfg.lane_width, cfg.raster_scale) for p in preds]
    gt_masks = [rasterize_lane(g, image, cfg.lane_width, cfg.raster_scale) for g in gts]
    iou = np.zeros((len(preds), len(gts)))
    for i, pm in enumerate(pred_masks):
        for j, gm in enumerate(gt_masks):
            iou[i, j] = mask_iou(pm, gm)
    return iou


def f1_counts(
    preds: list[Lane2D], gts: list[Lane2D], image: ImageSpec, cfg: EvalConfig = EvalConfig()
) -> dict[float, tuple[int, int, int]]:
    """Raw (tp, fp, fn) per IoU threshold for one frame.

    Predictions and GT are matched once, one-to-one, maximizing total
    mask IoU; a matched pair counts as a true positive at every
    threshold its IoU reaches.
    """
    iou = lane_iou_matrix(preds, gts, image, cfg)
    result = hungarian_assign(1.0 - iou, match_threshold=float("inf")) if iou.size else None
    out = {}
    for t in cfg.iou_thresholds:
        tp = 0
        if result is not None:
            tp = sum(1 for i, j, _ in result.pairs if iou[i, j] >= t)
        out[t] = (tp, len(preds) - tp, len(gts) - tp)
    return out


def f1_suite(
    preds: list[Lane2D], gts: list[Lane2D], image: ImageSpec, cfg: EvalConfig = EvalConfig()
) -> F1Result:
    """Detection F1 swept over the configured IoU thresholds."""
    counts = {t: counts_to_f1(*c) for t, c in f1_counts(preds, gts, image, cfg).items()}
    mf1 = float(np.mean([c.f1 for c in counts.values()]))
    return F1Result(counts=counts, mf1=mf1)


@dataclass(frozen=True)
class TuSimpleResult:
    """Row-anchor accuracy in the fraction-of-correct-points convention."""

    accuracy: float
    fp_rate: float
    fn_rate: float
    correct_points: int
    gt_points: int
    matched_pairs: int
    pred_lanes: int
    gt_lanes: int


def resample_at_rows(lane: Lane2D, rows: np.ndarray) -> np.ndarray:
    """u at the given rows via the first polyline crossing; NaN when absent."""
    rows = np.asarray(rows, dtype=float)
    found, seg, t = first_crossings(lane.points, rows)
    u = (1.0 - t) * lane.u[seg] + t * lane.u[seg + 1]
    return np.where(found, u, np.nan)


def tusimple_accuracy(
    preds: list[Lane2D],
    gts: list[np.ndarray],
    row_anchors: np.ndarray,
    cfg: EvalConfig = EvalConfig(),
) -> TuSimpleResult:
    """Accuracy = correct points / GT points over matched lane pairs.

    GT lanes arrive as u per row anchor with NaN at rows the lane does
    not reach. A predicted point is correct within
    cfg.tusimple_pixel_tol; lanes pair up one-to-one maximizing the
    correct fraction and a pair only counts once its fraction reaches
    cfg.tusimple_min_correct.
    """
    row_anchors = np.asarray(row_anchors, dtype=float)
    gt_u = [np.asarray(g, dtype=float) for g in gts]
    for g in gt_u:
        if g.shape != row_anchors.shape:
            raise DimensionMismatchError("each GT lane needs one u per row anchor")
    pred_u = [resample_at_rows(p, row_anchors) for p in preds]

    n_pred, n_gt = len(preds), len(gt_u)
    correct = np.zeros((n_pred, n_gt), dtype=int)
    fraction = np.zeros((n_pred, n_gt))
    for j, g in enumerate(gt_u):
        present = ~np.isnan(g)
        total = int(present.sum())
        for i, p in enumerate(pred_u):
            if total == 0:
                continue
            ok = present & ~np.isnan(p) & (np.abs(p - g) <= cfg.tusimple_pixel_tol)
            correct[i, j] = int(ok.sum())
            fraction[i, j] = correct[i, j] / total

    gt_points = int(sum(np.count_nonzero(~np.isnan(g)) for g in gt_u))
    matched = []
    if n_pred and n_gt:
        result = hungarian_assign(1.0 - fraction, match_threshold=float("inf"))
        matched = [
            (i, j) for i, j, _ in result.pairs if fraction[i, j] >= cfg.tusimple_min_correct
        ]
    correct_points = int(sum(correct[i, j] for i, j in matched))
    accuracy = correct_points / gt_points if gt_points > 0 else 0.0
    fp_rate = (n_pred - len(matched)) / n_pred if n_pred > 0 else 0.0
    fn_rate = (n_gt - len(matched)) / n_gt if n_gt > 0 else 0.0
    return TuSimpleResult(
        accuracy=accuracy,
        fp_rate=fp_rate,
        fn_rate=fn_rate,
        correct_points=correct_points,
        gt_points=gt_points,
        matched_pairs=len(matched),
        pred_lanes=n_pred,
        gt_lanes=n_gt,
    )


def point_polyline_distances(points: np.ndarray, polyline: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest spot on a polyline (3D)."""
    points = np.asarray(points, dtype=float)
    polyline = np.asarray(polyline, dtype=float)
    if polyline.shape[0] < 2:
        raise ValidationError("polyline needs at least 2 points")
    a = polyline[:-1]
    d = polyline[1:] - a
    seg_len2 = np.einsum("kd,kd->k", d, d)
    seg_len2 = np.where(seg_len2 == 0.0, 1.0, seg_len2)
    rel = points[:, None, :] - a[None, :, :]
    t = np.clip(np.einsum("pkd,kd->pk", rel, d) / seg_len2, 0.0, 1.0)
    # Squared distances summed coordinate by coordinate, in order, then
    # one square root of the minimum: the same numbers as taking the norm
    # of every point-to-closest-spot vector, since sqrt is monotone.
    dist2 = sum(
        (points[:, c, None] - (a[:, c] + t * d[:, c])) ** 2 for c in range(points.shape[1])
    )
    return np.sqrt(dist2.min(axis=1))


def cd_error_per_pair(
    preds: list[Lane3D],
    gts: list[np.ndarray],
    pairs: list[tuple[int, int]],
    sample_count: int = 72,
) -> np.ndarray:
    """Symmetric mean point-to-polyline distance per matched pair, meters."""
    values = []
    for i, j in pairs:
        pred_pts = sample_lane(preds[i], sample_count)
        gt_pts = np.asarray(gts[j], dtype=float)
        d_pg = point_polyline_distances(pred_pts, gt_pts).mean()
        d_gp = point_polyline_distances(gt_pts, pred_pts).mean()
        values.append(0.5 * (d_pg + d_gp))
    return np.array(values)


def cd_error(
    preds: list[Lane3D],
    gts: list[np.ndarray],
    pairs: list[tuple[int, int]],
    sample_count: int = 72,
) -> float | None:
    """Mean curve distance over matched pairs; None when nothing matched."""
    values = cd_error_per_pair(preds, gts, pairs, sample_count)
    if values.size == 0:
        return None
    return float(values.mean())
