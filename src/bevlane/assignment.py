"""Row-grid resampling of 2D lanes and one-to-one lane assignment.

Reading a 2D polyline at image rows lives here alone: fitting targets,
matching, row-anchor accuracy and anchor descriptors all sample lanes
through resample_lanes, and are compared as its row arrays (u per row,
NaN where absent) on a shared grid of image rows: cost_matrix scores
every pair at once. Assignment minimizes total cost one-to-one and drops
pairs at or above a cost threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .camera import ImageSpec, Lane2D
from .errors import DegenerateLaneError, GridMismatchError, ValidationError

DEFAULT_MATCH_THRESHOLD = 30.0


def first_crossings(points: np.ndarray, rows: np.ndarray):
    """Find where a polyline first crosses each of the given image rows.

    Scanning segments in point order, a segment [p_i, p_i+1] covers row r
    when r lies within its v-interval (inclusive). The first covering
    segment wins; within it the crossing sits at fraction
    t = (r - v_i) / (v_i+1 - v_i), with t = 0 for a segment lying exactly
    on the row. Returns (found, seg_index, t) arrays over rows; rows no
    segment covers read seg 0.
    """
    found, seg, t = first_crossings_batch(np.asarray(points)[None, :, 1], rows)
    return found[0], seg[0], t[0]


def first_crossings_batch(v: np.ndarray, rows: np.ndarray):
    """first_crossings for a stack of polylines given by their rows v, shape (L, m).

    Each segment covers the run of rows between its endpoint rows, found
    by binary search in the sorted rows; the first segment per (lane,
    row) is the minimum over the runs that cover it. Returns (found, seg,
    t), each of shape (L, len(rows)).
    """
    v = np.asarray(v, dtype=float)
    rows = np.asarray(rows, dtype=float)
    order = np.argsort(rows, kind="stable")
    sorted_rows = rows[order]
    n_lanes, n_seg = v.shape[0], v.shape[1] - 1
    va, vb = v[:, :-1], v[:, 1:]
    lo = np.minimum(va, vb).ravel()
    hi = np.maximum(va, vb).ravel()
    first = np.searchsorted(sorted_rows, lo, side="left")
    stop = np.searchsorted(sorted_rows, hi, side="right")
    counts = np.where(lo <= hi, stop - first, 0)  # NaN rows cover nothing

    # One entry per (segment, covered row): its flat (lane, row) cell.
    owner = np.repeat(np.arange(lo.size), counts)
    offset = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
    cell = (owner // n_seg) * rows.size + order[first[owner] + offset]
    seg = np.full(n_lanes * rows.size, n_seg)
    np.minimum.at(seg, cell, owner % n_seg)
    seg = seg.reshape(n_lanes, rows.size)
    found = seg < n_seg
    seg[~found] = 0

    at = (np.arange(n_lanes) * (n_seg + 1))[:, None] + seg
    va_s = v.ravel()[at]
    dv = v.ravel()[at + 1] - va_s
    safe_dv = np.where(dv == 0.0, 1.0, dv)
    t = np.where(dv == 0.0, 0.0, (rows - va_s) / safe_dv)
    t = np.clip(t, 0.0, 1.0)
    return found, seg, t


@dataclass(frozen=True)
class ResampledLane2D:
    """A 2D lane sampled at fixed image rows.

    v_grid is shared across lanes of a frame; present marks rows the lane
    covers and u_values holds the interpolated column there (NaN
    elsewhere). v_first / v_last keep the polyline's own continuous
    endpoint rows for endpoint comparisons that need sub-row precision.
    """

    v_grid: np.ndarray
    u_values: np.ndarray
    present: np.ndarray
    v_first: float
    v_last: float

    def __post_init__(self):
        for name in ("v_grid", "u_values", "present"):
            arr = getattr(self, name)
            arr.setflags(write=False)
        if not (self.v_grid.shape == self.u_values.shape == self.present.shape):
            raise ValidationError("grid, values and presence must share one shape")
        if not self.present.any():
            raise ValidationError("a resampled lane must cover at least one row")


def row_grid(image: ImageSpec, row_step: float = 1.0) -> np.ndarray:
    """Rows 0, row_step, 2*row_step, ... up to the last image row."""
    if row_step <= 0.0:
        raise ValidationError(f"row_step must be > 0, got {row_step}")
    count = int(np.floor((image.height - 1) / row_step + 1e-9)) + 1
    return np.arange(count) * row_step


def resample_lanes(lanes: list[Lane2D], rows: np.ndarray) -> np.ndarray:
    """u of every lane at the given rows, shape (len(lanes), len(rows)).

    Interpolation is linear along the polyline; where uneven ground folds
    the projection so a row is crossed several times, the crossing
    nearest the lane's near end is used. Rows a lane does not cover read
    NaN. Lanes with fewer points are padded with NaN rows, which no row
    crosses, so one first_crossings_batch call serves them all.
    """
    rows = np.asarray(rows, dtype=float)
    if not lanes:
        return np.zeros((0, rows.size))
    m = max(len(lane) for lane in lanes)
    v = np.full((len(lanes), m), np.nan)
    u = np.zeros((len(lanes), m))
    for n, lane in enumerate(lanes):
        v[n, : len(lane)] = lane.v
        u[n, : len(lane)] = lane.u
    found, seg, t = first_crossings_batch(v, rows)
    u_a = np.take_along_axis(u, seg, axis=1)
    u_b = np.take_along_axis(u, seg + 1, axis=1)
    return np.where(found, (1.0 - t) * u_a + t * u_b, np.nan)


def resample_on_grid(
    lanes: list[Lane2D], image: ImageSpec, row_step: float = 1.0
) -> list[ResampledLane2D | None]:
    """Every lane resampled on the image row grid; None for a lane that covers no grid row."""
    rows = row_grid(image, row_step)
    out = []
    for lane, u_values in zip(lanes, resample_lanes(lanes, rows)):
        present = ~np.isnan(u_values)
        if not present.any():
            out.append(None)
            continue
        out.append(
            ResampledLane2D(
                v_grid=rows,
                u_values=u_values,
                present=present,
                v_first=float(lane.v[0]),
                v_last=float(lane.v[-1]),
            )
        )
    return out


def resample_lane(lane: Lane2D, image: ImageSpec, row_step: float = 1.0) -> ResampledLane2D:
    """resample_on_grid for one lane; raises DegenerateLaneError when it covers no grid row."""
    (resampled,) = resample_on_grid([lane], image, row_step)
    if resampled is None:
        raise DegenerateLaneError(
            f"lane spanning v in [{lane.v.min():.2f}, {lane.v.max():.2f}] "
            f"covers no row of a {row_step}-step grid"
        )
    return resampled


def cost_matrix(pred_u: np.ndarray, gt_u: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Pairwise matching costs of two resample_lanes stacks on rows, shape (P, G).

    A cost is the mean |u_p - u_g| over the rows both lanes cover, plus
    the distance between their nearest covered rows and between their
    farthest ones. It is +inf when the pair shares no row, so also when
    either lane covers none. Each prediction meets all ground truths at
    once, which keeps memory at one (G, rows) array.
    """
    rows = np.asarray(rows, dtype=float)

    def ends(u):
        """Nearest and farthest covered row of each lane."""
        return (
            np.where(np.isnan(u), -np.inf, rows).max(axis=1, initial=-np.inf),
            np.where(np.isnan(u), np.inf, rows).min(axis=1, initial=np.inf),
        )

    p_near, p_far = ends(pred_u)
    g_near, g_far = ends(gt_u)
    costs = np.full((len(pred_u), len(gt_u)), np.inf)
    for i, u in enumerate(pred_u):
        gap = np.abs(gt_u - u)
        shared = np.count_nonzero(~np.isnan(gap), axis=1)
        hit = shared > 0
        horizontal = np.nansum(gap[hit], axis=1) / shared[hit]
        costs[i, hit] = horizontal + np.abs(p_near[i] - g_near[hit]) + np.abs(p_far[i] - g_far[hit])
    return costs


def matching_cost(p: ResampledLane2D, g: ResampledLane2D) -> float:
    """cost_matrix for one pair of lanes resampled on the same row grid."""
    if p.v_grid.shape != g.v_grid.shape or not np.array_equal(p.v_grid, g.v_grid):
        raise GridMismatchError("lanes were resampled on different row grids")
    return float(cost_matrix(p.u_values[None], g.u_values[None], p.v_grid)[0, 0])


@dataclass(frozen=True)
class MatchResult:
    """One-to-one assignment: matched (pred, gt, cost) triples and leftovers."""

    pairs: tuple[tuple[int, int, float], ...]
    unmatched_predictions: tuple[int, ...]
    unmatched_ground_truths: tuple[int, ...]

    def pair_map(self) -> dict[int, int]:
        return {i: j for i, j, _ in self.pairs}


def hungarian_assign(costs: np.ndarray, match_threshold: float = DEFAULT_MATCH_THRESHOLD) -> MatchResult:
    """Minimum-total-cost one-to-one assignment with a cost cutoff.

    costs is a (P, G) matrix of non-negative entries; +inf marks
    impossible pairs. Pairs whose cost is >= match_threshold are dropped
    from the result. An empty side yields an all-unmatched result.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 2:
        raise ValidationError(f"cost matrix must be 2-d, got shape {costs.shape}")
    n_pred, n_gt = costs.shape
    if n_pred == 0 or n_gt == 0:
        return MatchResult(
            pairs=(),
            unmatched_predictions=tuple(range(n_pred)),
            unmatched_ground_truths=tuple(range(n_gt)),
        )
    if np.isnan(costs).any() or (costs < 0.0).any():
        raise ValidationError("costs must be non-negative and not NaN")

    # Pad to square with a constant so the rectangular problem keeps its
    # argmin, and stand in for +inf with a finite value that dominates any
    # full assignment.
    side = max(n_pred, n_gt)
    finite = costs[np.isfinite(costs)]
    pad_value = match_threshold if np.isfinite(match_threshold) else 0.0
    top = max(float(finite.max(initial=0.0)), pad_value, 1.0)
    big = (top + 1.0) * (side + 1)
    work = np.full((side, side), pad_value)
    work[:n_pred, :n_gt] = np.where(np.isfinite(costs), costs, big)

    row_idx, col_idx = linear_sum_assignment(work)
    pairs = []
    for i, j in zip(row_idx, col_idx):
        if i < n_pred and j < n_gt and costs[i, j] < match_threshold:
            pairs.append((int(i), int(j), float(costs[i, j])))
    matched_p = {i for i, _, _ in pairs}
    matched_g = {j for _, j, _ in pairs}
    return MatchResult(
        pairs=tuple(pairs),
        unmatched_predictions=tuple(i for i in range(n_pred) if i not in matched_p),
        unmatched_ground_truths=tuple(j for j in range(n_gt) if j not in matched_g),
    )


def match_lanes(
    preds: list[Lane2D],
    gts: list[Lane2D],
    image: ImageSpec,
    match_threshold: float = DEFAULT_MATCH_THRESHOLD,
) -> MatchResult:
    """Resample both lane sets on the image row grid and assign them.

    Lanes that cover no grid row cannot be matched; they are kept in the
    index space and reported unmatched.
    """
    rows = row_grid(image)
    costs = cost_matrix(resample_lanes(preds, rows), resample_lanes(gts, rows), rows)
    return hungarian_assign(costs, match_threshold)
