"""Independent reference implementations the tests compare against.

Everything here is deliberately brute force: permutation scans, per-pixel
loops, O(n^2) nearest-neighbor searches. None of it shares code with the
package; agreement between the two routes is the point.
"""

from __future__ import annotations

import itertools
import json

import numpy as np


def assign_brute_force(costs: np.ndarray, match_threshold: float = np.inf) -> float:
    """Total cost of the kept pairs of a minimum-cost injection of the smaller side.

    Injections are ranked by how many +inf (impossible) pairs they use,
    then by the total of their finite costs; the kept pairs of the best
    are those below match_threshold. Without +inf entries or a threshold
    this is the minimum total cost.
    """
    costs = np.asarray(costs, dtype=float)
    p, g = costs.shape
    if p <= g:
        injections = (list(enumerate(cols)) for cols in itertools.permutations(range(g), p))
    else:
        injections = (
            [(r, j) for j, r in enumerate(rows)] for rows in itertools.permutations(range(p), g)
        )
    best_key, best = (np.inf, np.inf), []
    for pairs in injections:
        finite = [costs[i, j] for i, j in pairs if np.isfinite(costs[i, j])]
        key = (len(pairs) - len(finite), sum(finite))
        if key < best_key:
            best_key, best = key, pairs
    return sum(costs[i, j] for i, j in best if costs[i, j] < match_threshold)


def normal_equations_fit(z: np.ndarray, x: np.ndarray, order: int) -> np.ndarray:
    """Ascending-power polynomial coefficients via explicit normal equations."""
    z = np.asarray(z, dtype=float)
    a = np.vander(z, order + 1, increasing=True)
    return np.linalg.solve(a.T @ a, a.T @ np.asarray(x, dtype=float))


def point_segment_distance(p, a, b) -> float:
    px, py = float(p[0]), float(p[1])
    ax, ay = float(a[0]), float(a[1])
    bx, by = float(b[0]), float(b[1])
    dx, dy = bx - ax, by - ay
    den = dx * dx + dy * dy
    if den == 0.0:
        return ((px - ax) ** 2 + (py - ay) ** 2) ** 0.5
    t = ((px - ax) * dx + (py - ay) * dy) / den
    t = min(1.0, max(0.0, t))
    cx, cy = ax + t * dx, ay + t * dy
    return ((px - cx) ** 2 + (py - cy) ** 2) ** 0.5


def raster_oracle(points: np.ndarray, height: int, width_px: int, lane_width: float, scale: float = 1.0) -> np.ndarray:
    """Per-pixel rasterization: center (i+.5, j+.5) within (w*scale-1)/2."""
    h = int(round(height * scale))
    w = int(round(width_px * scale))
    pts = np.asarray(points, dtype=float) * scale
    radius = (lane_width * scale - 1.0) / 2.0
    mask = np.zeros((h, w), dtype=bool)
    if radius < 0.0:
        return mask
    for j in range(h):
        for i in range(w):
            center = (i + 0.5, j + 0.5)
            d = min(
                point_segment_distance(center, pts[s], pts[s + 1])
                for s in range(len(pts) - 1)
            )
            mask[j, i] = d <= radius
    return mask


def dense_raster_oracle(
    points: np.ndarray, height: int, width_px: int, lane_width: float
) -> np.ndarray:
    """raster_oracle in numpy, for frame-sized canvases and long polylines.

    Every pixel center of the lane's bounding box (grown by the radius,
    cut to the canvas) is tested against every segment: projection
    clamped to the segment (its start for a zero-length one), then the
    distance against the radius, operation for operation as in
    point_segment_distance.
    """
    pts = np.asarray(points, dtype=float)
    radius = (lane_width - 1.0) / 2.0
    mask = np.zeros((height, width_px), dtype=bool)
    if radius < 0.0:
        return mask
    i0, j0 = (max(int(np.floor(pts[:, c].min() - radius)) - 1, 0) for c in (0, 1))
    i1 = min(int(np.ceil(pts[:, 0].max() + radius)) + 1, width_px)
    j1 = min(int(np.ceil(pts[:, 1].max() + radius)) + 1, height)
    if i0 >= i1 or j0 >= j1:
        return mask
    px = (np.arange(i0, i1) + 0.5)[None, :]
    py = (np.arange(j0, j1) + 0.5)[:, None]
    hit = np.zeros((j1 - j0, i1 - i0), dtype=bool)
    for (ax, ay), (bx, by) in zip(pts[:-1], pts[1:]):
        dx, dy = bx - ax, by - ay
        den = dx * dx + dy * dy
        if den == 0.0:
            cx, cy = ax, ay
        else:
            t = np.clip(((px - ax) * dx + (py - ay) * dy) / den, 0.0, 1.0)
            cx, cy = ax + t * dx, ay + t * dy
        hit |= np.sqrt((px - cx) ** 2 + (py - cy) ** 2) <= radius
    mask[j0:j1, i0:i1] = hit
    return mask


def point_polyline_distance_3d(p: np.ndarray, poly: np.ndarray) -> float:
    best = np.inf
    for s in range(len(poly) - 1):
        a, b = poly[s], poly[s + 1]
        d = b - a
        den = float(d @ d)
        if den == 0.0:
            t = 0.0
        else:
            t = min(1.0, max(0.0, float((p - a) @ d) / den))
        best = min(best, float(np.linalg.norm(p - (a + t * d))))
    return best


def chamfer_oracle(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric mean point-to-polyline distance between two 3D polylines."""
    fwd = np.mean([point_polyline_distance_3d(p, b) for p in a])
    bwd = np.mean([point_polyline_distance_3d(q, a) for q in b])
    return 0.5 * (fwd + bwd)


def resample_rows_oracle(points: np.ndarray, rows: np.ndarray):
    """First polyline crossing per row, scanning segments in input order."""
    points = np.asarray(points, dtype=float)
    us = np.zeros(len(rows))
    present = np.zeros(len(rows), dtype=bool)
    for idx, r in enumerate(rows):
        for s in range(len(points) - 1):
            (ua, va), (ub, vb) = points[s], points[s + 1]
            if min(va, vb) <= r <= max(va, vb):
                if vb == va:
                    t = 0.0
                else:
                    t = min(1.0, max(0.0, (r - va) / (vb - va)))
                us[idx] = ua + t * (ub - ua)
                present[idx] = True
                break
    return us, present


def first_crossings_oracle(v: np.ndarray, rows: np.ndarray):
    """(found, segment, t) per row: the first segment, in point order, whose
    closed v-interval holds the row, and the row's fraction along it."""
    found, seg, frac = [], [], []
    for r in rows:
        for s in range(len(v) - 1):
            va, vb = float(v[s]), float(v[s + 1])
            if min(va, vb) <= r <= max(va, vb):
                found.append(True)
                seg.append(s)
                frac.append(0.0 if vb == va else min(1.0, max(0.0, (r - va) / (vb - va))))
                break
        else:
            found.append(False)
            seg.append(-1)
            frac.append(np.nan)
    return np.array(found, dtype=bool), np.array(seg), np.array(frac)


def matching_cost_oracle(u_p: np.ndarray, u_g: np.ndarray, rows: np.ndarray) -> float:
    """Row by row: mean |u_p - u_g| over rows both cover (u not NaN), plus
    the gaps between the two lanes' largest covered rows and between
    their smallest; +inf when no row is covered by both."""
    total, shared = 0.0, 0
    near_p = near_g = -np.inf
    far_p = far_g = np.inf
    for r, a, b in zip(rows, u_p, u_g):
        r = float(r)
        if not np.isnan(a):
            near_p, far_p = max(near_p, r), min(far_p, r)
        if not np.isnan(b):
            near_g, far_g = max(near_g, r), min(far_g, r)
        if not np.isnan(a) and not np.isnan(b):
            total += abs(float(a) - float(b))
            shared += 1
    if shared == 0:
        return np.inf
    return total / shared + abs(near_p - near_g) + abs(far_p - far_g)


def lane_iou_oracle(xa, xb, e: float) -> float:
    vals = []
    for p, g in zip(xa, xb):
        lo, hi = min(p, g), max(p, g)
        vals.append((2.0 * e + lo - hi) / (2.0 * e + hi - lo))
    return float(np.mean(vals))


def fd_gradient(f, theta: np.ndarray, scales: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central differences with a per-parameter step h * scales[i].

    High-leverage parameters (cubic coefficients seen through z^3) need
    steps shrunk by their leverage or the stencil jumps across kinks;
    the directional increment stays O(h) either way.
    """
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros_like(theta)
    for i in range(len(theta)):
        hi = h * float(scales[i])
        up = theta.copy()
        dn = theta.copy()
        up[i] += hi
        dn[i] -= hi
        grad[i] = (f(up) - f(dn)) / (2.0 * hi)
    return grad


def kmeans_reference_best(x: np.ndarray, k: int, tries: int = 200, seed: int = 0, iters: int = 200) -> float:
    """Best inertia over many random-init Lloyd runs (no ++ seeding)."""
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=float)
    n = len(x)
    best = np.inf
    for _ in range(tries):
        centers = x[rng.choice(n, size=k, replace=False)].copy()
        for _ in range(iters):
            d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            labels = d2.argmin(axis=1)
            new = centers.copy()
            for c in range(k):
                members = x[labels == c]
                if len(members):
                    new[c] = members.mean(axis=0)
                else:
                    new[c] = x[rng.integers(n)]
            if np.allclose(new, centers):
                break
            centers = new
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        best = min(best, float(d2.min(axis=1).sum()))
    return best


def f1_counts_oracle(pred_points, gt_points, height, width_px, lane_width, thresholds):
    """(tp, fp, fn) per threshold from per-pixel masks + exhaustive matching.

    Lanes arrive as raw (m, 2) point arrays. Every one-to-one assignment
    is enumerated; all assignments within 1e-12 of the best total IoU
    must agree on the per-threshold counts, so a tie can never hide a
    wrong answer.
    """
    masks_p = [raster_oracle(p, height, width_px, lane_width) for p in pred_points]
    masks_g = [raster_oracle(g, height, width_px, lane_width) for g in gt_points]

    def iou(a, b):
        union = np.count_nonzero(a | b)
        return 1.0 if union == 0 else np.count_nonzero(a & b) / union

    n_p, n_g = len(pred_points), len(gt_points)
    iou_m = np.array([[iou(pm, gm) for gm in masks_g] for pm in masks_p]).reshape(n_p, n_g)
    k = min(n_p, n_g)
    best_total, best_assignments = -1.0, [[]]
    for rows in itertools.permutations(range(n_p), k):
        for cols in itertools.permutations(range(n_g), k):
            total = sum(iou_m[i, j] for i, j in zip(rows, cols))
            if total > best_total + 1e-12:
                best_total, best_assignments = total, [list(zip(rows, cols))]
            elif abs(total - best_total) <= 1e-12:
                best_assignments.append(list(zip(rows, cols)))
    out = {}
    for t in thresholds:
        tps = {sum(1 for i, j in a if iou_m[i, j] >= t) for a in best_assignments}
        assert len(tps) == 1, "ambiguous optimal matching; pick a different seed"
        tp = tps.pop()
        out[t] = (tp, n_p - tp, n_g - tp)
    return out


def lane_iou_matrix_oracle(
    pred_points, gt_points, height: int, width_px: int, lane_width: float, scale: float = 1.0
) -> np.ndarray:
    """Pairwise IoU of per-pixel masks, counted in Python ints; two empty masks score 1."""
    masks_p = [raster_oracle(p, height, width_px, lane_width, scale) for p in pred_points]
    masks_g = [raster_oracle(g, height, width_px, lane_width, scale) for g in gt_points]
    iou = np.zeros((len(masks_p), len(masks_g)))
    for i, a in enumerate(masks_p):
        for j, b in enumerate(masks_g):
            union = sum(1 for x, y in zip(a.flat, b.flat) if x or y)
            inter = sum(1 for x, y in zip(a.flat, b.flat) if x and y)
            iou[i, j] = 1.0 if union == 0 else inter / union
    return iou


def dataset_lines_oracle(frames) -> list[str]:
    """A dataset file's lines, each record encoded whole by json.dumps."""

    def dump(obj) -> str:
        return json.dumps(obj, sort_keys=True, allow_nan=False, separators=(",", ":"))

    lines = [dump({"kind": "dataset", "schema_version": "1"})]
    for frame in frames:
        k, image = frame.intrinsics, frame.image
        record = {
            "frame_id": frame.frame_id,
            "tag": frame.tag,
            "seed": frame.seed,
            "camera_height": frame.camera_height,
            "intrinsics": {"fx": k.fx, "fy": k.fy, "ox": k.ox, "oy": k.oy},
            "image": {"width": image.width, "height": image.height},
            "lanes3d": [np.asarray(p, dtype=float).tolist() for p in frame.lanes3d],
            "lanes2d": [lane.points.tolist() for lane in frame.lanes2d],
        }
        lines.append(dump(record))
    return lines


def predictions_lines_oracle(frames) -> list[str]:
    """A predictions file's lines, each record encoded whole by json.dumps."""

    def dump(obj) -> str:
        return json.dumps(obj, sort_keys=True, allow_nan=False, separators=(",", ":"))

    lines = [dump({"kind": "predictions", "schema_version": "1"})]
    for frame in frames:
        lanes3d = [
            {
                "curve": {"a": lane.curve.a, "b": lane.curve.b, "c": lane.curve.c, "d": lane.curve.d},
                "heights": list(lane.profile.heights),
                "z_min": lane.z_min,
                "z_max": lane.z_max,
            }
            for lane in frame.lanes3d
        ]
        lanes2d = [lane.points.tolist() for lane in frame.lanes2d]
        lines.append(dump({"frame_id": frame.frame_id, "lanes3d": lanes3d, "lanes2d": lanes2d}))
    return lines
