"""Benchmark-style metrics: segmentation-IoU F1, row-anchor accuracy,
and 3D curve distance.

Lanes are widened to a fixed pixel width and rasterized into runs of
pixels per row; detection F1 counts one-to-one matches whose IoU, taken
from the runs, clears a threshold, swept over thresholds 0.50 to 0.95.
Row-anchor accuracy follows the fraction-of-correct-points convention
with a pixel tolerance. Curve distance is a symmetric mean
point-to-polyline distance in meters between matched 3D lanes.
evaluate is the one pass over a dataset and its predictions: it samples
and projects every predicted 3D lane once (sample_predictions), resamples
each image height's lanes as one stack, counts row-anchor hits and
matching costs for all of that height's frames at once, and per frame
keeps only the F1 raster, the assignments and one curve-distance call.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .assignment import (
    DEFAULT_MATCH_THRESHOLD, by_height, cost_matrix, hungarian_assign, resample_lanes
)
from .camera import ImageSpec, Lane2D, project_stack
from .errors import DimensionMismatchError, NonFiniteError, SchemaError, ValidationError
from .geometry import DEFAULT_SAMPLE_COUNT, sample_lanes
from .io_formats import MAX_PIXEL

DEFAULT_IOU_THRESHOLDS = (0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95)
# Row-anchor accuracy counts a lane pair once this fraction of its points is correct.
TUSIMPLE_MIN_CORRECT = 0.85


@dataclass(frozen=True)
class EvalConfig:
    """Widths, thresholds and tolerances for the metric suite."""

    lane_width: float = 30.0
    iou_thresholds: tuple[float, ...] = DEFAULT_IOU_THRESHOLDS
    tusimple_pixel_tol: float = 20.0

    def __post_init__(self):
        if not 1.0 <= self.lane_width < np.inf:
            raise ValidationError("lane_width must be finite and >= 1 pixel")
        if len(self.iou_thresholds) == 0 or any(
            t2 <= t1 for t1, t2 in zip(self.iou_thresholds, self.iou_thresholds[1:])
        ):
            raise ValidationError("iou_thresholds must be strictly increasing")
        if not self.tusimple_pixel_tol >= 0.0:
            raise ValidationError("tusimple_pixel_tol must be >= 0")


# Margin against rounding, relative to the coordinate magnitudes involved:
# the band around a capsule's edge where _lane_runs evaluates the per-pixel
# test instead of trusting the analytic row interval, and the slack on the
# bound that sets point_polyline_distances' search range. Rounding moves a
# computed distance by a few 1e-16 of those magnitudes, so 1e-9 leaves a
# wide safety factor.
_EDGE_BAND = 1e-9


def rasterize_lane(lane: Lane2D, image: ImageSpec, width: float = EvalConfig.lane_width) -> np.ndarray:
    """Boolean mask of the lane widened to the given pixel width.

    Pixel (row j, column i) has its center at (i + 0.5, j + 0.5) and
    belongs to the lane when that center lies within (width - 1) / 2 of
    the polyline, so a vertical lane through a center covers exactly
    `width` columns. This is the one-lane mask view of the runs that
    _lane_runs builds.
    """
    lo, hi, _ = _lane_runs([lane], image, width)
    mask = np.zeros((image.height, image.width), dtype=bool)
    lengths = hi - lo + 1
    mask.reshape(-1)[np.repeat(lo, lengths) + _ranks(lengths)] = True
    return mask


def _lane_runs(lanes: list[Lane2D], image: ImageSpec, width: float):
    """The masks of all lanes of a frame as merged runs of flat canvas indices.

    Returns (lo, hi, starts): lane n covers the pixels lo[r] .. hi[r]
    (row-major indices into the canvas) for r in starts[n]:starts[n + 1];
    a lane's runs are sorted and no two of them overlap or touch.

    Each lane is split into chains: maximal runs of segments along which
    v never turns back (a chain breaks where the sign of dv flips). On a
    chain, consecutive capsules (the widened segments) share the disk at
    their common vertex, so the chain's union meets each pixel row in one
    interval: a gap on the row would need the chain to cross the gap's
    column within the radius of the row, and the disk around that
    crossing covers the gap. The interval's ends lie on the union's
    boundary: on an offset piece (a segment moved by the radius along its
    normal), on the arc between two adjacent normals at a vertex, or on a
    chain end's cap. So a segment is paired only with the rows of its two
    offset pieces, each joined to the matching arc at its start vertex
    (no arc on a chain turns through the vertical, since dv keeps its
    sign); chain ends and zero-length segments, whose disk holds the arcs
    at its point, get every row their capsule reaches, and no segment
    gets more. A (chain, row)'s interval
    is the hull of its pairs' intervals, counting those that clipping to
    the canvas leaves empty, since they still bound it.

    The hull for a capsule slightly narrower than the lane is filled
    outright; the centers between it and the hull for a slightly wider
    capsule are decided by the per-pixel test (distance squared to the
    clamped projection onto a segment, against the radius squared)
    against every segment of the chain that reaches the row, so the runs
    cover the pixels that test accepts, and only those.
    """
    if not 1.0 <= width < np.inf:
        raise ValidationError("width must be finite and >= 1 pixel")
    h, w = image.height, image.width
    radius = (width - 1.0) / 2.0
    n_lanes = len(lanes)
    if n_lanes == 0:
        nothing = np.zeros(0, dtype=np.int64)
        return nothing, nothing, np.zeros(n_lanes + 1, dtype=np.int64)

    pts = [lane.points for lane in lanes]
    a = np.concatenate([p[:-1] for p in pts])
    b = np.concatenate([p[1:] for p in pts])
    au, av, bu, bv = a[:, 0], a[:, 1], b[:, 0], b[:, 1]
    du, dv = bu - au, bv - av
    seg_len2 = du * du + dv * dv
    band = _EDGE_BAND * (1.0 + radius + h + w + np.maximum.reduce(np.abs([au, av, bu, bv])))
    outer, inner = radius + band, radius - band

    # Chains: a lane's first segment starts one, and so does every segment
    # whose dv has the opposite sign of the last nonzero dv before it.
    n_segs = au.size
    lane_segs = [len(p) - 1 for p in pts]
    starts = np.zeros(n_segs, dtype=bool)
    starts[np.cumsum(lane_segs) - lane_segs] = True
    sign = np.sign(dv)
    held = sign[np.maximum.accumulate(np.where((sign != 0) | starts, np.arange(n_segs), 0))]
    starts[1:] |= sign[1:] * held[:-1] < 0
    chain_first = np.flatnonzero(starts)
    chain = np.cumsum(starts) - 1

    # Rows per segment: every row the wider capsule reaches for chain ends
    # and zero-length segments (whose disk holds the arcs at its point);
    # else the rows of each offset piece joined to its arc at the start
    # vertex, widened by the band and cut to that reach, as one range
    # where the two meet.
    zero = seg_len2 == 0.0
    full = starts | np.append(starts[1:], True) | zero
    reach_first, reach_last = _row_range(np.minimum(av, bv) - outer, np.maximum(av, bv) + outer, h)
    shift = radius * (du / np.where(zero, 1.0, np.hypot(du, dv)))  # v of the radius along the normal
    sides = []
    for side in (shift, -shift):
        ends = (av + np.roll(side, 1), av + side, bv + side)
        lo, hi = np.minimum.reduce(ends) - band, np.maximum.reduce(ends) + band
        first, last = _row_range(np.where(full, -np.inf, lo), np.where(full, np.inf, hi), h)
        sides.append((np.maximum(first, reach_first), np.minimum(last, reach_last)))
    (first, last), (first2, last2) = sides
    join = (first2 <= last + 1) & (first <= last2 + 1)
    first = np.where(join, np.minimum(first, first2), first)
    last = np.where(join, np.maximum(last, last2), last)
    last2 = np.where(join, first2 - 1, last2)
    counts = np.maximum(np.concatenate([last - first, last2 - first2]) + 1, 0)
    firsts = np.concatenate([first, first2])
    rows = np.repeat(firsts, counts) + _ranks(counts)

    pair_seg = np.repeat(np.concatenate([np.arange(n_segs)] * 2), counts)

    def per_pair(*values):
        return [value[pair_seg] for value in values]

    # The hull per (chain, row) goes into a table holding, chain by chain,
    # the rows the chain's capsules reach; each of them is paired, with
    # the segment that bounds the chain's interval there. A segment's row
    # r is slot slot0 + r.
    row0 = np.minimum.reduceat(reach_first, chain_first)
    span = np.maximum(np.maximum.reduceat(reach_last, chain_first) - row0 + 1, 0)
    base = np.cumsum(span) - span
    slot0 = (base - row0)[chain]

    # A radius past 1e154 px overflows to inf here, which still gives the
    # right (whole-row) intervals.
    length = np.sqrt(seg_len2)
    with np.errstate(over="ignore"):
        radii = [(r * length, r * r) for r in (outer, inner)]
    y = rows + 0.5
    ua, va, ub, vb, pair_du, pair_dv, pair_len2, slot, thin = per_pair(
        au, av, bu, bv, du, dv, seg_len2, slot0, inner <= 0.0
    )
    (cand_lo, cand_hi), (in_lo, in_hi) = _capsule_columns(
        ua, ub, y - va, y - vb, pair_du, pair_dv, pair_len2,
        [per_pair(reach, radius2) for reach, radius2 in radii], w,
    )
    # Inner intervals only count where the narrower radius is above 0.
    in_lo[thin], in_hi[thin] = w, -1

    slot += rows
    n_slots = int(span.sum())
    hull = []
    for values, empty, bound in (
        (cand_lo, w, np.minimum), (cand_hi, -1, np.maximum),
        (in_lo, w, np.minimum), (in_hi, -1, np.maximum),
    ):
        table = np.full(n_slots, empty, dtype=np.int64)
        bound.at(table, slot, values)
        hull.append(table)
    cand_lo, cand_hi, in_lo, in_hi = hull
    slot_chain = np.repeat(np.arange(chain_first.size), span)
    slot_row = np.repeat(row0, span) + _ranks(span)
    flat = slot_row * w
    inside = in_lo <= in_hi

    # The per-pixel test, operation for operation, on the edge bands
    # [cand_lo, in_lo) and (in_hi, cand_hi] (all of [cand_lo, cand_hi]
    # when nothing is inside), against every segment of the chain whose
    # capsule reaches the row: the center's projection onto the segment
    # clamped to it (the start point for a zero-length segment), then
    # squared distance against squared radius. Band pixels come sorted by
    # slot, so a segment's pixels are one range of them.
    lengths = np.column_stack([
        np.where(inside, in_lo, cand_hi + 1) - cand_lo,
        np.where(inside, cand_hi - in_hi, 0),
    ]).ravel()
    banded = np.flatnonzero(lengths > 0)
    lengths = lengths[banded]
    at, side = np.divmod(banded, 2)
    cols = np.repeat(np.where(side == 0, cand_lo[at], in_hi[at] + 1), lengths) + _ranks(lengths)
    at = np.repeat(at, lengths)
    first = np.searchsorted(at, slot0 + reach_first, side="left")
    tests = np.searchsorted(at, slot0 + reach_last, side="right") - first
    pixel = np.repeat(first, tests) + _ranks(tests)
    pa, pv, pdu, pdv, len2 = (np.repeat(x, tests) for x in (au, av, du, dv, seg_len2))
    uu, vv = cols[pixel] + 0.5, slot_row[at[pixel]] + 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(((uu - pa) * pdu + (vv - pv) * pdv) / len2, 0.0, 1.0)
    t = np.where(len2 == 0.0, 0.0, t)
    dist2 = (uu - (pa + t * pdu)) ** 2 + (vv - (pv + t * pdv)) ** 2
    hit = pixel[dist2 <= radius * radius]

    # Merge each lane's inside intervals and edge pixels, in flat canvas
    # indices.
    lane_of = np.repeat(np.arange(n_lanes), lane_segs)[chain_first][slot_chain]
    edge_px = (flat[at] + cols)[hit]
    return _merge_runs(
        np.concatenate([lane_of[inside], lane_of[at[hit]]]),
        np.concatenate([flat[inside] + in_lo[inside], edge_px]),
        np.concatenate([flat[inside] + in_hi[inside], edge_px]),
        n_lanes,
        h * w,
    )


def _row_range(v_lo, v_hi, h: int):
    """The first and last pixel rows (or columns) with centers in [v_lo, v_hi], cut to [0, h)."""
    first = np.ceil(np.clip(v_lo - 0.5, 0, h)).astype(np.int64)
    last = np.floor(np.clip(v_hi - 0.5, -1, h - 1)).astype(np.int64)
    return first, last


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


def _capsule_columns(ua, ub, rel_a, rel_b, du, dv, seg_len2, radii, w):
    """Per pair and radius, the columns [lo, hi] whose centers on row y lie in the capsule.

    Pair arrays: segment a-b's end columns ua and ub, the row's offsets
    rel_a = y - v_a and rel_b = y - v_b, the segment's direction (du,
    dv) and squared length; radii holds a (radius * length, radius^2)
    pair of arrays per radius. The capsule is every point within the
    radius of the segment: the disks at both ends and the slab between
    them, so its interval on a row is the hull of theirs. Columns are
    clipped to [0, w - 1]; lo > hi marks an empty range.
    """
    # The slab, relative to a: 0 <= X du + Y dv <= L^2 and |X dv - Y du| <= r L.
    along_dv, across_du = rel_a * dv, rel_a * du
    along_lo, along_hi = _linear_range(du, -along_dv, seg_len2 - along_dv)
    rel_a2, rel_b2 = rel_a * rel_a, rel_b * rel_b
    has_slab = seg_len2 > 0.0
    columns = []
    for reach, radius2 in radii:
        across_lo, across_hi = _linear_range(dv, across_du - reach, across_du + reach)
        lo = ua + np.maximum(along_lo, across_lo)
        hi = ua + np.minimum(along_hi, across_hi)
        slab = (lo <= hi) & has_slab
        lo, hi = np.where(slab, lo, np.inf), np.where(slab, hi, -np.inf)
        # Disk chords; the square root of a negative (a missed disk) is NaN,
        # which fmin and fmax skip.
        with np.errstate(invalid="ignore"):
            for end, rel2 in ((ua, rel_a2), (ub, rel_b2)):
                half = np.sqrt(radius2 - rel2)
                lo, hi = np.fmin(lo, end - half), np.fmax(hi, end + half)
        columns.append(_row_range(lo, hi, w))
    return columns


def _linear_range(slope, low, high):
    """The x-interval where low <= slope * x <= high (whole or empty at slope 0).

    A bound that overflows to inf is still the right one.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x1, x2 = low / slope, high / slope
    rising = slope > 0
    lo, hi = np.where(rising, x1, x2), np.where(rising, x2, x1)
    flat = np.flatnonzero(slope == 0.0)
    whole = (low[flat] <= 0.0) & (0.0 <= high[flat])
    lo[flat] = np.where(whole, -np.inf, np.inf)
    hi[flat] = np.where(whole, np.inf, -np.inf)
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
    lo, hi, starts = _lane_runs([*preds, *gts], image, cfg.lane_width)
    area = _run_totals(hi - lo + 1, starts)

    # Both lanes' runs for every (pred, GT) pair, merged per pair.
    n_pairs = n_pred * n_gt
    pred_of, gt_of = np.divmod(np.arange(n_pairs), n_gt)
    lanes = np.column_stack([pred_of, n_pred + gt_of]).ravel()
    counts = starts[lanes + 1] - starts[lanes]
    picks = np.repeat(starts[lanes], counts) + _ranks(counts)
    pair_of = np.repeat(np.arange(lanes.size) // 2, counts)
    n_pixels = image.height * image.width
    pair_lo, pair_hi, pair_starts = _merge_runs(pair_of, lo[picks], hi[picks], n_pairs, n_pixels)
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
    return _f1_result(f1_counts(preds, gts, image, cfg))


def _f1_result(counts: dict[float, tuple[int, int, int]]) -> F1Result:
    """Scores per threshold from raw (tp, fp, fn), and their mean F1, for
    f1_suite's frame and evaluate's dataset alike."""
    scores = {t: counts_to_f1(*c) for t, c in counts.items()}
    return F1Result(counts=scores, mf1=float(np.mean([c.f1 for c in scores.values()])))


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
    preds: list[np.ndarray],
    gts: list[np.ndarray],
    row_anchors: np.ndarray,
    cfg: EvalConfig = EvalConfig(),
) -> TuSimpleResult:
    """Accuracy = correct points / GT points over matched lane pairs.

    Predicted and GT lanes arrive as u per row anchor with NaN at rows
    the lane does not reach, as resample_lanes gives them. A predicted
    point is correct within cfg.tusimple_pixel_tol; lanes pair up
    one-to-one maximizing the correct fraction and a pair only counts
    once its fraction reaches TUSIMPLE_MIN_CORRECT. This is the one-frame
    view of the stacks evaluate scores.
    """
    row_anchors = np.asarray(row_anchors, dtype=float)
    pred_u, gt_u = (_row_stack(lanes, row_anchors) for lanes in (preds, gts))
    correct, totals, fraction = _anchor_hits(pred_u[None], gt_u[None], cfg.tusimple_pixel_tol)
    correct_points, matched = _anchor_matches(correct[0], fraction[0])
    gt_points = int(totals.sum())
    n_pred, n_gt = len(pred_u), len(gt_u)
    return TuSimpleResult(
        accuracy=correct_points / gt_points if gt_points > 0 else 0.0,
        fp_rate=(n_pred - matched) / n_pred if n_pred > 0 else 0.0,
        fn_rate=(n_gt - matched) / n_gt if n_gt > 0 else 0.0,
        correct_points=correct_points,
        gt_points=gt_points,
        matched_pairs=matched,
        pred_lanes=n_pred,
        gt_lanes=n_gt,
    )


def _anchor_hits(pred_u: np.ndarray, gt_u: np.ndarray, tol: float):
    """Row-anchor counts of stacks (F, P, anchors) and (F, G, anchors), NaN where absent.

    Returns correct (F, P, G), the anchors where prediction p lies within
    tol of GT g (NaN on either side compares False, so only rows both
    lanes reach count); totals (F, G), the anchors each GT lane reaches;
    and the correct fraction (F, P, G), 0 for a GT lane that reaches
    none. Each prediction slot meets every frame's GT lanes at once,
    which keeps memory at one (F, G, anchors) array.
    """
    correct = np.zeros((pred_u.shape[0], pred_u.shape[1], gt_u.shape[1]), dtype=np.int64)
    for i in range(pred_u.shape[1]):
        correct[:, i] = np.count_nonzero(np.abs(pred_u[:, i, None] - gt_u) <= tol, axis=-1)
    totals = np.count_nonzero(~np.isnan(gt_u), axis=-1)
    fraction = np.where(totals[:, None] > 0, correct / np.maximum(totals, 1)[:, None], 0.0)
    return correct, totals, fraction


def _anchor_matches(correct: np.ndarray, fraction: np.ndarray) -> tuple[int, int]:
    """One frame's correct points and matched pairs from its (P, G) slices of _anchor_hits."""
    if not fraction.size:
        return 0, 0
    result = hungarian_assign(1.0 - fraction, match_threshold=float("inf"))
    matched = [(i, j) for i, j, _ in result.pairs if fraction[i, j] >= TUSIMPLE_MIN_CORRECT]
    return int(sum(correct[i, j] for i, j in matched)), len(matched)


def _row_stack(lanes: list[np.ndarray], row_anchors: np.ndarray) -> np.ndarray:
    """The lanes' u arrays as one (lanes, rows) stack, each checked against the row anchors."""
    lanes = [np.asarray(u, dtype=float) for u in lanes]
    for u in lanes:
        if u.shape != row_anchors.shape:
            raise DimensionMismatchError("each lane needs one u per row anchor")
    return np.reshape(lanes, (len(lanes), row_anchors.size))


@np.errstate(over="ignore", invalid="ignore")
def point_polyline_distances(
    points: np.ndarray,
    polyline: np.ndarray,
    point_counts: np.ndarray | None = None,
    vertex_counts: np.ndarray | None = None,
) -> np.ndarray:
    """Distance from each point to the nearest spot on a polyline (3D).

    One call measures a stack of queries: points holds every query's
    points and polyline every query's vertices, each concatenated in
    query order, and point_counts and vertex_counts give each query's
    share. Without them, all points form one query against the one
    polyline. A point is measured against its own query's segments only,
    and its distance does not depend on the other queries.

    A point's gap in z to a segment's z-interval [z_lo, z_hi] bounds its
    distance to that segment from below. With each query's segments
    sorted by z_lo, a point at height z takes as its bound r the distance
    to the segment with the last z_lo at or below z (the first segment
    for a point below them all), plus a slack for rounding of _EDGE_BAND
    times the magnitudes of its query's points and polyline. A segment
    whose gap is within r has z_lo <= z + r and z_hi >= z - r, and
    z_hi - z_lo is at most reach, the largest |dz| of a segment of the
    query, so its z_lo lies in [z - r - reach, z + r]: one range of the
    query's sorted order, found by binary search. The exact test runs on
    that range, which holds every segment that can be nearest, so each
    distance is the minimum over all segments; when every range holds
    only the bound's segment, the bounds are the distances. Nothing
    assumes z is monotone. Input that overflows gives inf or NaN without
    a warning; the range always keeps the bound's segment, so a NaN bound
    gives NaN, not a distance over an empty range.
    """
    points = np.asarray(points, dtype=float)
    polyline = np.asarray(polyline, dtype=float)
    if point_counts is None:
        point_counts, vertex_counts = [points.shape[0]], [polyline.shape[0]]
    point_counts = np.asarray(point_counts, dtype=np.int64)
    vertex_counts = np.asarray(vertex_counts, dtype=np.int64)
    if (vertex_counts < 2).any():
        raise ValidationError("polyline needs at least 2 points")
    if (
        point_counts.shape != vertex_counts.shape
        or (point_counts < 0).any()
        or point_counts.sum() != points.shape[0]
        or vertex_counts.sum() != polyline.shape[0]
    ):
        raise DimensionMismatchError("point and vertex counts must split the points and polyline")
    if points.shape[0] == 0:
        return np.zeros(0)
    n_queries = vertex_counts.size
    query = np.repeat(np.arange(n_queries), point_counts)
    seg_counts = vertex_counts - 1
    n_segs = int(seg_counts.sum())
    seg_first = np.cumsum(seg_counts) - seg_counts
    seg_query = np.repeat(np.arange(n_queries), seg_counts)
    # Segment s of query q runs from vertex s + q of the concatenation, so
    # no segment joins two queries' polylines.
    start = np.arange(n_segs) + seg_query
    a, b = polyline[start], polyline[start + 1]
    d = b - a
    seg_len2 = np.einsum("kd,kd->k", d, d)
    seg_len2[seg_len2 == 0.0] = 1.0
    reach = np.maximum.reduceat(np.abs(d[:, -1]), seg_first)
    # Each query's largest coordinate magnitude, of its points plus of its polyline.
    size = np.zeros(n_queries)
    np.maximum.at(size, query, np.abs(points).max(axis=1))
    size += np.maximum.reduceat(np.abs(polyline).max(axis=1), np.cumsum(vertex_counts) - vertex_counts)

    # The segments sorted by (query, z_lo): keys query * S + rank, where
    # rank is a segment's place among all S segments of the call sorted by
    # z_lo. A z value's place among its own query's z_lo is then a search
    # of the z_lo of every query, for its rank, and of the keys, which
    # never leaves the query's range.
    z = points[:, -1]
    z_lo = np.minimum(a[:, -1], b[:, -1])
    by_value = np.argsort(z_lo, kind="stable")
    rank = np.empty(n_segs, dtype=np.int64)
    rank[by_value] = np.arange(n_segs)
    keys = seg_query * n_segs + rank
    order = np.argsort(keys)
    keys, z_sorted, query_key = keys[order], z_lo[by_value], query * n_segs

    def place(values, side):
        """Where each point's value goes among its query's sorted z_lo, as a sorted index."""
        return np.searchsorted(keys, query_key + np.searchsorted(z_sorted, values, side=side))

    # Each point's range [first, stop) of its query's sorted segments.
    below = np.maximum(place(z, "right") - 1, seg_first[query])
    nearest = order[below]
    bound = np.sqrt(_segment_dist2(points, a[nearest], d[nearest], seg_len2[nearest]))
    r = bound + _EDGE_BAND * (bound + size[query])
    first = np.minimum(place(z - r - reach[query], "left"), below)
    stop = np.maximum(place(z + r, "right"), below + 1)
    counts = stop - first
    if counts.max() == 1:
        # Every window holds only its bound's segment, whose distance is the bound.
        return bound
    p = np.repeat(np.arange(z.size), counts)
    k = order[np.repeat(first, counts) + _ranks(counts)]
    dist2 = _segment_dist2(points[p], a[k], d[k], seg_len2[k])
    return np.sqrt(np.minimum.reduceat(dist2, np.cumsum(counts) - counts))


def _segment_dist2(points, a, d, seg_len2):
    """Squared distance from each point to the closest spot of its segment a + t d.

    The squares are summed coordinate by coordinate, in order, so a square
    root of the minimum is the same number as the minimum norm of the
    point-to-closest-spot vectors, since sqrt is monotone.
    """
    t = np.clip(np.einsum("nd,nd->n", points - a, d) / seg_len2, 0.0, 1.0)
    offset = points - (a + t[:, None] * d)
    return (offset * offset).sum(axis=1)


def cd_error_per_pair(
    preds: list[np.ndarray],
    gts: list[np.ndarray],
    pairs: list[tuple[int, int]],
) -> np.ndarray:
    """Symmetric mean point-to-polyline distance per matched pair, meters.

    Both sides are (m, 3) point arrays: predicted lanes as sample_lane
    gives them, GT lanes as their labels. Every pair's two directions
    (its predicted points to its GT polyline, and back) are measured in
    one point_polyline_distances call, and each direction's mean is the
    number that direction measured alone gives. A pair whose distance
    overflows raises NonFiniteError.
    """
    if not pairs:
        return np.zeros(0)
    # Query 2k reads pair k's predicted points against its GT lane, 2k + 1 the reverse.
    lanes = [(np.asarray(preds[i], dtype=float), np.asarray(gts[j], dtype=float)) for i, j in pairs]
    points = [lane for pair in lanes for lane in pair]
    polylines = [lane for pred, gt in lanes for lane in (gt, pred)]
    counts = [len(lane) for lane in points]
    distances = point_polyline_distances(
        np.concatenate(points), np.concatenate(polylines), counts, [len(lane) for lane in polylines]
    )
    means = np.array([d.mean() for d in np.split(distances, np.cumsum(counts)[:-1])]).reshape(-1, 2)
    values = 0.5 * (means[:, 0] + means[:, 1])
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i, j = pairs[bad[0]]
        raise NonFiniteError(f"curve distance of pair (pred {i}, gt {j}) is not finite")
    return values


def sample_predictions(frames: list, lanes3d: list, sample_count: int = DEFAULT_SAMPLE_COUNT):
    """The predicted Lane3Ds of each frame (datagen.FrameRecord) in lanes3d,
    sampled at sample_count points and projected through the frame's camera
    in one pass: per frame, an (L, sample_count, 3) array and L Lane2Ds.

    evaluate and every render view read predicted 3D lanes here alone. A
    non-finite projection is refused as a Lane2D, then one past MAX_PIXEL,
    naming its frame and lane; overflow warns nothing.
    """
    n_lanes = [len(lanes) for lanes in lanes3d]
    splits = np.cumsum(n_lanes)[:-1]
    cameras = [[f.intrinsics.fx, f.intrinsics.fy, f.intrinsics.ox, f.intrinsics.oy] for f in frames]
    cameras = np.repeat(np.reshape(cameras, (-1, 4)), n_lanes, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        samples = sample_lanes([lane for lanes in lanes3d for lane in lanes], sample_count)
        uv = project_stack(cameras, samples)
    projected = [list(map(Lane2D, frame_uv)) for frame_uv in np.split(uv, splits)]
    far = np.flatnonzero((np.abs(uv) > MAX_PIXEL).any(axis=(1, 2)))
    if far.size:
        n = int(np.searchsorted(np.cumsum(n_lanes), far[0], side="right"))
        raise SchemaError(
            f"frame {frames[n].frame_id}: predicted lane {far[0] - sum(n_lanes[:n])} "
            f"projects past |u| or |v| = {MAX_PIXEL:g} px"
        )
    return np.split(samples, splits), projected


def evaluate(
    frames: list,
    preds: list,
    cfg: EvalConfig = EvalConfig(),
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    match_threshold: float = DEFAULT_MATCH_THRESHOLD,
    row_step: int = 10,
) -> dict:
    """The report of predictions against a dataset's frames.

    frames are datagen.FrameRecords and preds prediction records (frame_id
    with lanes3d or lanes2d), at most one per frame; a frame without one
    predicts no lanes. Before any frame is scored, sample_predictions
    samples and projects every predicted 3D lane at sample_count points,
    so its 2D lane and its curve distance read the same points, and
    refuses one that overflows or projects past MAX_PIXEL. Each image
    height's lanes of each side are resampled in one call on
    every row of that height and padded to one (frames, lanes, rows)
    stack. Row-anchor hits (every row_step-th row from mid-image down)
    and matching costs come from those stacks in one pass per prediction
    slot. Per frame, F1 counts come from f1_counts, lanes pair up for
    row-anchor accuracy on the frame's slices, and 3D pairs matched on
    the rows within match_threshold give curve distances, the report's
    mean over all of them.
    """
    by_id = {p.frame_id: p for p in preds}
    preds = [by_id.get(frame.frame_id) for frame in frames]
    lanes3d = [pred.lanes3d if pred else () for pred in preds]
    samples, projected = sample_predictions(frames, lanes3d, sample_count)
    pred2d = [[*(pred.lanes2d if pred else ()), *lanes] for pred, lanes in zip(preds, projected)]

    totals = {t: [0, 0, 0] for t in cfg.iou_thresholds}
    correct_points = gt_points = matched = 0
    cd_values = [np.zeros(0)] * len(frames)
    for rows, members in by_height([frame.image for frame in frames]):
        pred_u, gt_u = (
            _padded(resample_lanes([lane for lanes in side for lane in lanes], rows),
                    [len(lanes) for lanes in side])
            for side in ([pred2d[n] for n in members], [frames[n].lanes2d for n in members])
        )
        anchors = slice(rows.size // 2, None, row_step)
        correct, anchor_totals, fraction = _anchor_hits(
            pred_u[..., anchors], gt_u[..., anchors], cfg.tusimple_pixel_tol
        )
        gt_points += int(anchor_totals.sum())
        scored3d = [bool(lanes3d[n] and frames[n].lanes3d) for n in members]
        costs = cost_matrix(pred_u, gt_u, rows) if any(scored3d) else None
        del pred_u, gt_u  # the frames below read only their slices of the counts and costs
        for k, n in enumerate(members):
            frame = frames[n]
            for t, counts in f1_counts(pred2d[n], list(frame.lanes2d), frame.image, cfg).items():
                totals[t] = [a + b for a, b in zip(totals[t], counts)]
            own = (k, slice(len(pred2d[n])), slice(len(frame.lanes2d)))
            hits, pairs = _anchor_matches(correct[own], fraction[own])
            correct_points, matched = correct_points + hits, matched + pairs
            if scored3d[k]:
                match = hungarian_assign(costs[own], match_threshold)
                try:
                    cd_values[n] = cd_error_per_pair(
                        samples[n], frame.lanes3d, [(i, j) for i, j, _ in match.pairs]
                    )
                except NonFiniteError as exc:
                    raise NonFiniteError(f"frame {frame.frame_id}: {exc}") from exc

    f1 = _f1_result(totals)
    n_pred = sum(len(lanes) for lanes in pred2d)
    n_gt = sum(len(frame.lanes2d) for frame in frames)
    cd_values = np.concatenate([np.zeros(0), *cd_values])
    return {
        "frames": len(frames),
        "pred_lanes": n_pred,
        "gt_lanes": n_gt,
        "f1": {f"{t:.2f}": asdict(c) for t, c in f1.counts.items()},
        "mf1": f1.mf1,
        "tusimple": {
            "accuracy": correct_points / gt_points if gt_points else 0.0,
            "fp_rate": (n_pred - matched) / n_pred if n_pred else 0.0,
            "fn_rate": (n_gt - matched) / n_gt if n_gt else 0.0,
            "correct_points": correct_points,
            "gt_points": gt_points,
        },
        "cd_error": float(np.mean(cd_values)) if cd_values.size else None,
    }


def _padded(u: np.ndarray, counts: list[int]) -> np.ndarray:
    """The rows of u, counts[f] lanes per frame in order, as one (frames, lanes, rows)
    stack, NaN in the slots past a frame's own lanes."""
    counts = np.asarray(counts, dtype=np.int64)
    out = np.full((counts.size, counts.max(initial=0), u.shape[1]), np.nan)
    out[np.repeat(np.arange(counts.size), counts), _ranks(counts)] = u
    return out
