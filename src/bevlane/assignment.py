"""Row-grid resampling of 2D lanes and one-to-one lane assignment.

Reading a 2D polyline at image rows lives here alone, in _crossed_cells:
the perspective loss takes its crossings from it, and fitting targets,
matching, row-anchor accuracy and anchor descriptors sample lanes
through resample_lanes and are compared as its row arrays (u per row,
NaN where absent) on a shared grid of image rows: cost_matrix scores
every pair at once. Assignment minimizes total cost one-to-one and drops
pairs at or above a cost threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .camera import ImageSpec, Lane2D
from .errors import DegenerateLaneError, DomainError, ValidationError

DEFAULT_MATCH_THRESHOLD = 30.0


def first_crossings(points: np.ndarray, rows: np.ndarray):
    """Find where a polyline first crosses each of the given image rows.

    Scanning segments in point order, a segment [p_i, p_i+1] covers row r
    when r lies within its v-interval (inclusive). The first covering
    segment wins; within it the crossing sits at fraction
    t = (r - v_i) / (v_i+1 - v_i), with t = 0 for a segment lying exactly
    on the row. Returns (found, seg_index, t) arrays over rows; rows no
    segment covers read seg 0 and t 0; it is the one-lane view of _crossed_cells.
    """
    rows = np.asarray(rows, dtype=float)
    _lane, row, at, t_crossed = _crossed_cells(np.asarray(points)[None, :, 1], rows)
    found = np.zeros(rows.size, dtype=bool)
    seg, t = np.zeros(rows.size, dtype=np.int64), np.zeros(rows.size)
    found[row], seg[row], t[row] = True, at, t_crossed
    return found, seg, t


def _crossed_cells(v: np.ndarray, rows: np.ndarray, keep: np.ndarray | None = None):
    """Where a stack of polylines, given by their rows v (L, m), first crosses each row.

    A (lane, row) cell is crossed where first_segments_batch finds a
    segment; keep, a boolean (L, len(rows)) mask, drops the cells it
    does not mark. Per kept crossed cell, in row-major order: its lane,
    its row, the flat index in v of its segment's first point, and its
    crossing_fraction, computed at those cells alone.
    """
    v = np.asarray(v, dtype=float)
    rows = np.asarray(rows, dtype=float)
    found, seg = first_segments_batch(v, rows)
    if keep is not None:
        found &= keep
    lane, row = np.nonzero(found)
    at = lane * v.shape[1] + seg[lane, row]
    va = v.ravel()[at]
    return lane, row, at, crossing_fraction(rows[row], va, v.ravel()[at + 1] - va)


def first_segments_batch(v: np.ndarray, rows: np.ndarray):
    """The first segment of each polyline in a stack (L, m) to cover each row.

    Each segment covers the run of rows between its endpoint rows, found
    by binary search in the sorted rows; the first segment per (lane,
    row) is the minimum over the runs that cover it. Returns (found,
    seg), each of shape (L, len(rows)); rows no segment covers read seg 0.
    """
    v = np.asarray(v, dtype=float)
    rows = np.asarray(rows, dtype=float)
    order = np.argsort(rows, kind="stable")
    sorted_rows = rows[order]
    n_lanes, n_seg = v.shape[0], v.shape[1] - 1
    va, vb = v[:, :-1], v[:, 1:]
    lo = np.minimum(va, vb).ravel()
    first = np.searchsorted(sorted_rows, lo, side="left")
    counts = np.searchsorted(sorted_rows, np.maximum(va, vb).ravel(), side="right")
    counts -= first
    counts[np.isnan(lo)] = 0  # NaN rows cover nothing
    del lo
    # Only segments that cover a row are expanded; covering holds their
    # flat (lane, segment) indices in ascending order.
    covering = np.flatnonzero(counts)
    first, counts = first[covering], counts[covering]

    # One entry per (segment, covered row): its flat (lane, row) cell. The
    # k-th entry of a segment whose entries start at index e holds sorted
    # row first + k, so entry i holds sorted row i + first - e.
    entry = np.repeat(first - (np.cumsum(counts) - counts), counts)
    del first
    entry += np.arange(entry.size)
    cell = order[entry]
    del entry
    lane, segment = np.divmod(covering, n_seg)
    cell += np.repeat(lane * rows.size, counts)
    del lane
    seg = np.full(n_lanes * rows.size, n_seg)
    np.minimum.at(seg, cell, np.repeat(segment, counts))
    seg = seg.reshape(n_lanes, rows.size)
    found = seg < n_seg
    seg[~found] = 0
    return found, seg


def crossing_fraction(r: np.ndarray, va: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Fraction t = (r - va) / dv at which row r crosses a segment from row va
    to row va + dv, clipped to [0, 1]; t = 0 on a segment lying on its row."""
    flat = dv == 0.0
    return np.clip(np.where(flat, 0.0, (r - va) / np.where(flat, 1.0, dv)), 0.0, 1.0)


@dataclass(frozen=True)
class ResampledLane2D:
    """A 2D lane sampled at fixed image rows.

    v_grid is shared across lanes of a frame; u_values holds the
    interpolated column at the rows the lane covers (present) and NaN
    elsewhere. v_first / v_last keep the polyline's own continuous
    endpoint rows for endpoint comparisons that need sub-row precision.
    """

    v_grid: np.ndarray
    u_values: np.ndarray
    v_first: float
    v_last: float

    def __post_init__(self):
        self.v_grid.setflags(write=False)
        self.u_values.setflags(write=False)
        if self.v_grid.shape != self.u_values.shape:
            raise ValidationError("grid and values must share one shape")
        if not self.present.any():
            raise ValidationError("a resampled lane must cover at least one row")

    @property
    def present(self) -> np.ndarray:
        """The rows the lane covers: where u_values is not NaN."""
        return ~np.isnan(self.u_values)


def row_grid(image: ImageSpec) -> np.ndarray:
    """Every image row, 0 to height - 1, as floats."""
    return np.arange(image.height, dtype=float)


def by_height(images: list[ImageSpec]):
    """Each distinct image height, in order of first appearance, as its
    row grid and the indices of the images of that height: fit and eval
    resample and score one height's lanes as one stack."""
    heights = [image.height for image in images]
    for height in dict.fromkeys(heights):
        members = [i for i, h in enumerate(heights) if h == height]
        yield row_grid(images[members[0]]), members


def resample_lanes(lanes: list[Lane2D], rows: np.ndarray) -> np.ndarray:
    """u of every lane at the given rows, shape (len(lanes), len(rows)).

    Interpolation is linear along the polyline; where uneven ground folds
    the projection so a row is crossed several times, the crossing
    nearest the lane's near end is used. Rows a lane does not cover read
    NaN. Lanes with fewer points are padded with NaN rows, which no row
    crosses, so one _crossed_cells call serves them all. Only the
    covered cells are interpolated.
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
    lane, row, at, t = _crossed_cells(v, rows)
    out = np.full((len(lanes), rows.size), np.nan)
    out[lane, row] = (1.0 - t) * u.ravel()[at] + t * u.ravel()[at + 1]
    return out


def resample_lane(lane: Lane2D, image: ImageSpec) -> ResampledLane2D:
    """One lane resampled on the image row grid; raises DegenerateLaneError
    when it covers no grid row."""
    rows = row_grid(image)
    (u_values,) = resample_lanes([lane], rows)
    if np.isnan(u_values).all():
        raise DegenerateLaneError(
            f"lane spanning v in [{lane.v.min():.2f}, {lane.v.max():.2f}] covers no image row"
        )
    return ResampledLane2D(rows, u_values, float(lane.v[0]), float(lane.v[-1]))


def cost_matrix(pred_u: np.ndarray, gt_u: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Pairwise matching costs of two resample_lanes stacks on rows, shape (P, G).

    With a leading frame axis, stacks (F, P, rows) and (F, G, rows) give
    each frame's costs as one (F, P, G) array; the 2-D call is the stack
    of one frame. A cost is the mean |u_p - u_g| over the rows both lanes
    cover, plus the distance between their nearest covered rows and
    between their farthest ones. It is +inf when the pair shares no row,
    so also when either lane covers none, as NaN padding does. Each
    prediction slot meets every frame's ground truths at once, which
    keeps memory at one (F, G, rows) array.
    """
    pred_u, gt_u = np.asarray(pred_u, dtype=float), np.asarray(gt_u, dtype=float)
    if pred_u.ndim == 2:
        return cost_matrix(pred_u[None], gt_u[None], rows)[0]
    rows = np.asarray(rows, dtype=float)

    def ends(u):
        """Nearest and farthest covered row of each lane."""
        return (
            np.where(np.isnan(u), -np.inf, rows).max(axis=-1, initial=-np.inf),
            np.where(np.isnan(u), np.inf, rows).min(axis=-1, initial=np.inf),
        )

    p_near, p_far = ends(pred_u)
    g_near, g_far = ends(gt_u)
    costs = np.full((pred_u.shape[0], pred_u.shape[1], gt_u.shape[1]), np.inf)
    for i in range(pred_u.shape[1]):
        gap = np.abs(gt_u - pred_u[:, i, None])
        shared = np.count_nonzero(~np.isnan(gap), axis=-1)
        hit = shared > 0
        horizontal = np.nansum(gap[hit], axis=-1) / shared[hit]
        f, j = np.nonzero(hit)
        costs[f, i, j] = (
            horizontal + np.abs(p_near[f, i] - g_near[f, j]) + np.abs(p_far[f, i] - g_far[f, j])
        )
    return costs


@dataclass(frozen=True)
class MatchResult:
    """One-to-one assignment: matched (pred, gt, cost) triples and leftovers."""

    pairs: tuple[tuple[int, int, float], ...]
    unmatched_predictions: tuple[int, ...]
    unmatched_ground_truths: tuple[int, ...]


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

    pairs = []
    for i, j in enumerate(_lsap(work.tolist())):
        if i < n_pred and j < n_gt and costs[i, j] < match_threshold:
            pairs.append((i, j, float(costs[i, j])))
    matched_p = {i for i, _, _ in pairs}
    matched_g = {j for _, j, _ in pairs}
    return MatchResult(
        pairs=tuple(pairs),
        unmatched_predictions=tuple(i for i in range(n_pred) if i not in matched_p),
        unmatched_ground_truths=tuple(j for j in range(n_gt) if j not in matched_g),
    )


def _lsap(cost: list[list[float]]) -> list[int]:
    """Column of each row in a minimum-cost assignment of a square cost matrix.

    A port, for the square case, of the shortest-augmenting-path solver
    that linear_sum_assignment runs (Crouse 2016, "On implementing 2D
    rectangular assignment algorithms", IEEE TAES 52(4)). It keeps that
    solver's order of operations and tie rule, so it picks the same
    assignment on every input, ties included. Each row in turn grows a
    shortest-path tree over reduced costs until it reaches an unassigned
    column, then the duals are updated and the path is flipped. Plain
    lists: at a few rows per frame, numpy's per-call overhead would cost
    more than the loop.
    """
    n = len(cost)
    u = [0.0] * n
    v = [0.0] * n
    path = [-1] * n
    col4row = [-1] * n
    row4col = [-1] * n
    for cur_row in range(n):
        shortest = [math.inf] * n
        seen_rows = [False] * n
        seen_cols = [False] * n
        # Reverse order, so that a constant matrix yields the identity.
        remaining = list(range(n - 1, -1, -1))
        num_remaining = n
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            seen_rows[i] = True
            row, u_i = cost[i], u[i]
            index = -1
            lowest = math.inf
            for it in range(num_remaining):
                j = remaining[it]
                r = min_val + row[j] - u_i - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                # On a tie, prefer a column that ends the path.
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] == -1):
                    lowest = shortest[j]
                    index = it
            if lowest == math.inf:
                # Only reached when the costs overflow double precision.
                raise DomainError("assignment costs overflow double precision")
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols[j] = True
            num_remaining -= 1
            remaining[index] = remaining[num_remaining]

        u[cur_row] += min_val
        for i in range(n):
            if seen_rows[i] and i != cur_row:
                u[i] += min_val - shortest[col4row[i]]
        for j in range(n):
            if seen_cols[j]:
                v[j] -= min_val - shortest[j]

        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return col4row


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
