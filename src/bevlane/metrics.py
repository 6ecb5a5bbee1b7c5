"""Benchmark-style metrics: segmentation-IoU F1, row-anchor accuracy,
and 3D curve distance.

Lanes are widened to a fixed pixel width and rasterized into runs of
pixels per row; detection F1 counts one-to-one matches whose IoU, taken
from the runs, clears a threshold, swept over thresholds 0.50 to 0.95. Row-anchor accuracy follows the fraction-of-
correct-points convention with a pixel tolerance. Curve distance is a
symmetric mean point-to-polyline distance in meters between matched 3D
lanes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import hungarian_assign, resample_lanes
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


# Margin against rounding, relative to the coordinate magnitudes involved:
# the band around a capsule's edge where _lane_runs evaluates the per-pixel
# test instead of trusting the analytic row interval, and the slack on the
# bound point_polyline_distances prunes segments with. Rounding moves a
# computed distance by a few 1e-16 of those magnitudes, so 1e-9 leaves a
# wide safety factor.
_EDGE_BAND = 1e-9


def rasterize_lane(
    lane: Lane2D, image: ImageSpec, width: float = 30.0, scale: float = 1.0
) -> np.ndarray:
    """Boolean mask of the lane widened to the given pixel width.

    Pixel (row j, column i) has its center at (i + 0.5, j + 0.5) and
    belongs to the lane when that center lies within (width - 1) / 2 of
    the polyline, so a vertical lane through a center covers exactly
    `width` columns. With scale < 1 the rule is applied on a
    proportionally smaller canvas. This is the one-lane mask view of
    the runs that _lane_runs builds.
    """
    h, w = _canvas(image, scale)
    lo, hi, _ = _lane_runs([lane], image, width, scale)
    mask = np.zeros((h, w), dtype=bool)
    lengths = hi - lo + 1
    mask.reshape(-1)[np.repeat(lo, lengths) + _ranks(lengths)] = True
    return mask


def _canvas(image: ImageSpec, scale: float) -> tuple[int, int]:
    """Rows and columns of the raster canvas at the given scale."""
    return int(round(image.height * scale)), int(round(image.width * scale))


def _lane_runs(lanes: list[Lane2D], image: ImageSpec, width: float, scale: float):
    """The masks of all lanes of a frame as merged runs of flat canvas indices.

    Returns (lo, hi, starts): lane n covers the pixels lo[r] .. hi[r]
    (row-major indices into the canvas) for r in starts[n]:starts[n + 1];
    a lane's runs are sorted and no two of them overlap or touch.

    The widened segment is a capsule, which is convex, so it meets each
    pixel row in one interval of centers. Per (segment, row) pair the
    interval of a capsule slightly narrower than the lane is filled
    outright; the centers between it and a slightly wider capsule's
    interval are decided by the per-pixel test (distance squared to the
    clamped projection onto the segment, against the radius squared), so
    the runs cover the pixels that test accepts, and only those.
    """
    if not 1.0 <= width < np.inf:
        raise ValidationError("width must be finite and >= 1 pixel")
    h, w = _canvas(image, scale)
    radius = (width * scale - 1.0) / 2.0
    n_lanes = len(lanes)
    if radius < 0.0 or n_lanes == 0:
        nothing = np.zeros(0, dtype=np.int64)
        return nothing, nothing, np.zeros(n_lanes + 1, dtype=np.int64)

    pts = [lane.points * scale for lane in lanes]
    a = np.concatenate([p[:-1] for p in pts])
    b = np.concatenate([p[1:] for p in pts])
    lane_of = np.repeat(np.arange(n_lanes), [len(p) - 1 for p in pts])
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

    # Merge each lane's inside intervals and edge pixels, in flat canvas
    # indices.
    inside = ~empty
    edge = dist2 <= radius * radius
    flat = rows * w
    edge_px = (flat[pair] + cols)[edge]
    return _merge_runs(
        np.concatenate([lane_of[seg[inside]], lane_of[k[edge]]]),
        np.concatenate([flat[inside] + in_lo[inside], edge_px]),
        np.concatenate([flat[inside] + in_hi[inside], edge_px]),
        n_lanes,
        h * w,
    )


def _merge_runs(group, lo, hi, n_groups: int, size: int):
    """Each group's runs [lo, hi] merged wherever they overlap or touch.

    Indices lie in [0, size). Returns (lo, hi, starts) with group n's
    merged runs, sorted, at starts[n]:starts[n + 1]. One sort serves all
    groups: keyed group * (size + 1) + index, runs of different groups
    are never adjacent, so they never merge.
    """
    stride = size + 1
    lo, hi = group * stride + lo, group * stride + hi
    order = np.argsort(lo)
    lo, hi = lo[order], hi[order]
    if lo.size:
        reach = np.maximum.accumulate(hi)
        heads = np.flatnonzero(np.concatenate([[True], lo[1:] > reach[:-1] + 1]))
        lo, hi = lo[heads], np.maximum.reduceat(hi, heads)
    group = lo // stride
    base = group * stride
    return lo - base, hi - base, np.searchsorted(group, np.arange(n_groups + 1))


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
    """Pairwise mask IoU between widened prediction and GT lanes.

    Computed from the lanes' runs without building a mask: a pair's
    union is the length of their runs merged, and its intersection is
    |A| + |B| - |A u B|. The integer ratio is mask_iou's on the masks
    rasterize_lane gives, and two empty lanes score 1.
    """
    n_pred, n_gt = len(preds), len(gts)
    if n_pred == 0 or n_gt == 0:
        return np.zeros((n_pred, n_gt))
    lo, hi, starts = _lane_runs([*preds, *gts], image, cfg.lane_width, cfg.raster_scale)
    area = _run_totals(hi - lo + 1, starts)

    # Both lanes' runs for every (pred, GT) pair, merged per pair.
    n_pairs = n_pred * n_gt
    pred_of, gt_of = np.divmod(np.arange(n_pairs), n_gt)
    lanes = np.column_stack([pred_of, n_pred + gt_of]).ravel()
    counts = starts[lanes + 1] - starts[lanes]
    picks = np.repeat(starts[lanes], counts) + _ranks(counts)
    pair_of = np.repeat(np.arange(lanes.size) // 2, counts)
    h, w = _canvas(image, cfg.raster_scale)
    pair_lo, pair_hi, pair_starts = _merge_runs(pair_of, lo[picks], hi[picks], n_pairs, h * w)
    union = _run_totals(pair_hi - pair_lo + 1, pair_starts)

    inter = area[pred_of] + area[n_pred + gt_of] - union
    iou = np.where(union == 0, 1.0, inter / np.maximum(union, 1))
    return iou.reshape(n_pred, n_gt)


def _run_totals(lengths: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sum of lengths[starts[n]:starts[n + 1]] for each n, as integers."""
    cumulative = np.concatenate([[0], np.cumsum(lengths)])
    return cumulative[starts[1:]] - cumulative[starts[:-1]]


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
    gt_u = np.reshape(gt_u, (len(gt_u), row_anchors.size))
    pred_u = resample_lanes(preds, row_anchors)

    n_pred, n_gt = len(preds), len(gts)
    # NaN on either side compares False, so only rows both lanes reach count.
    ok = np.abs(pred_u[:, None, :] - gt_u[None, :, :]) <= cfg.tusimple_pixel_tol
    correct = ok.sum(axis=2)
    totals = np.count_nonzero(~np.isnan(gt_u), axis=1)
    fraction = np.where(totals > 0, correct / np.maximum(totals, 1), 0.0)

    gt_points = int(totals.sum())
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
    """Distance from each point to the nearest spot on a polyline (3D).

    A point's gap in z to a segment's z-interval bounds its distance to
    that segment from below, so the exact test runs only on the segments
    whose gap is within the distance to the nearest-in-z segment (plus a
    slack for rounding). Nothing assumes z is monotone; when the bound
    rules nothing out, every segment is tested.
    """
    points = np.asarray(points, dtype=float)
    polyline = np.asarray(polyline, dtype=float)
    if polyline.shape[0] < 2:
        raise ValidationError("polyline needs at least 2 points")
    if points.shape[0] == 0:
        return np.zeros(0)
    a = polyline[:-1]
    d = polyline[1:] - a
    seg_len2 = np.einsum("kd,kd->k", d, d)
    seg_len2 = np.where(seg_len2 == 0.0, 1.0, seg_len2)

    z = points[:, -1:]
    z_lo = np.minimum(polyline[:-1, -1], polyline[1:, -1])
    z_hi = np.maximum(polyline[:-1, -1], polyline[1:, -1])
    gap = np.maximum(np.maximum(z_lo - z, z - z_hi), 0.0)
    each = np.arange(points.shape[0])
    nearest = gap.argmin(axis=1)
    bound = np.sqrt(_segment_dist2(points, a[nearest], d[nearest], seg_len2[nearest]))
    slack = _EDGE_BAND * (bound + np.abs(points).max() + np.abs(polyline).max())
    tested = gap <= (bound + slack)[:, None]
    tested[each, nearest] = True  # every point keeps at least one segment
    p, k = np.nonzero(tested)
    dist2 = _segment_dist2(points[p], a[k], d[k], seg_len2[k])
    return np.sqrt(np.minimum.reduceat(dist2, np.searchsorted(p, each)))


def _segment_dist2(points, a, d, seg_len2):
    """Squared distance from each point to the closest spot of its segment a + t d.

    The squares are summed coordinate by coordinate, in order, so a square
    root of the minimum is the same number as the minimum norm of the
    point-to-closest-spot vectors, since sqrt is monotone.
    """
    t = np.clip(np.einsum("nd,nd->n", points - a, d) / seg_len2, 0.0, 1.0)
    return sum((points[:, c] - (a[:, c] + t * d[:, c])) ** 2 for c in range(points.shape[1]))


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
