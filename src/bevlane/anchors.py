"""Lane anchor mining: descriptor extraction and k-means clustering.

Detection heads start from a small dictionary of anchor lanes instead of
the full continuum of shapes. Each observed 2D lane becomes a fixed-
length descriptor (u at fixed rows plus its vertical extent); k-means
over descriptors yields the dictionary, and recall against a lane set
checks the dictionary covers what actually occurs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import (
    DEFAULT_MATCH_THRESHOLD,
    matching_cost,
    resample_lanes,
    resample_on_grid,
)
from .camera import ImageSpec, Lane2D
from .errors import DegenerateLaneError, ValidationError

MAX_ANCHORS = 50
DEFAULT_DESCRIPTOR_ROWS = 36


def descriptor_rows(image: ImageSpec, m: int = DEFAULT_DESCRIPTOR_ROWS) -> np.ndarray:
    """m sample rows spanning the lower half of the image, where lanes live."""
    if m < 2:
        raise ValidationError("need at least 2 descriptor rows")
    return np.linspace((image.height - 1) / 2.0, image.height - 1.0, m)


@dataclass(frozen=True)
class LaneDescriptor:
    """Fixed-length lane shape summary: u per row plus vertical extent.

    Rows outside the lane's span carry the nearest covered row's u so the
    vector stays dense; v_start / v_end (near and far end rows) record
    the true extent.
    """

    u: np.ndarray
    v_start: float
    v_end: float

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        u.setflags(write=False)
        object.__setattr__(self, "u", u)

    def vector(self) -> np.ndarray:
        return np.concatenate([self.u, [self.v_start, self.v_end]])


def build_descriptor(
    lane: Lane2D, image: ImageSpec, m: int = DEFAULT_DESCRIPTOR_ROWS
) -> LaneDescriptor:
    """Descriptor of one lane at the shared rows for this image size."""
    v_span = float(lane.v.max() - lane.v.min())
    if v_span < 2.0:
        raise DegenerateLaneError(f"lane spans {v_span:.2f} rows; need at least 2")
    rows = descriptor_rows(image, m)
    (u,) = resample_lanes([lane], rows)
    missing = np.isnan(u)
    if missing.all():
        raise DegenerateLaneError("lane covers none of the descriptor rows")
    if missing.any():
        present = np.flatnonzero(~missing)
        gaps = np.flatnonzero(missing)
        nearest = present[np.argmin(np.abs(rows[gaps][:, None] - rows[present][None, :]), axis=1)]
        u[gaps] = u[nearest]
    return LaneDescriptor(u=u, v_start=float(lane.v.max()), v_end=float(lane.v.min()))


def descriptor_from_vector(vec: np.ndarray) -> LaneDescriptor:
    vec = np.asarray(vec, dtype=float)
    return LaneDescriptor(u=vec[:-2].copy(), v_start=float(vec[-2]), v_end=float(vec[-1]))


@dataclass(frozen=True)
class AnchorSet:
    """A clustered anchor dictionary and how it was chosen.

    inertia_histories keeps each restart's per-iteration inertia; every
    history is non-increasing and the kept restart has the lowest final
    inertia (ties resolved toward the earlier restart).
    """

    descriptors: tuple[LaneDescriptor, ...]
    rows: np.ndarray
    image: ImageSpec
    inertia: float
    chosen_restart: int = 0
    inertia_histories: tuple[tuple[float, ...], ...] = ()

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def k(self) -> int:
        return len(self.descriptors)


def _kmeans_once(data: np.ndarray, k: int, rng: np.random.Generator, max_iters: int):
    """One seeded k-means run with greedy distance-weighted init.

    Returns (centers, inertia, history); history is the inertia after
    each assignment-update round and never increases.
    """
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]))
    centers[0] = data[rng.integers(n)]
    d2 = np.sum((data - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total == 0.0:
            centers[i:] = data[rng.integers(n, size=k - i)]
            break
        centers[i] = data[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((data - centers[i]) ** 2, axis=1))

    def assignment(cs):
        dist2 = ((data[:, None, :] - cs[None, :, :]) ** 2).sum(axis=2)
        labels = dist2.argmin(axis=1)
        inertia = float(dist2[np.arange(n), labels].sum())
        return labels, inertia, dist2

    history = []
    assign = None
    for _ in range(max_iters):
        new_assign, inertia, dist2 = assignment(centers)
        history.append(inertia)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            members = data[assign == c]
            if members.shape[0] > 0:
                centers[c] = members.mean(axis=0)
            else:
                # An empty cluster served no point, so replacing it with the
                # current worst-served point cannot raise any distance.
                worst = int(dist2[np.arange(n), assign].argmax())
                centers[c] = data[worst]
    else:
        _, inertia, _ = assignment(centers)
        history.append(inertia)
    return centers, history[-1], history


def cluster_anchors(
    descriptors: list[LaneDescriptor],
    k: int,
    image: ImageSpec,
    rows: np.ndarray | None = None,
    seed: int = 0,
    restarts: int = 10,
    max_iters: int = 100,
) -> AnchorSet:
    """Cluster lane descriptors into k anchors.

    Runs k-means from several seeded restarts and keeps the lowest final
    inertia. k is capped at 50: past that the dictionary stops being a
    compact prior.
    """
    if not 1 <= k <= MAX_ANCHORS:
        raise ValidationError(f"k must be in [1, {MAX_ANCHORS}], got {k}")
    if k > len(descriptors):
        raise ValidationError(f"k={k} exceeds the {len(descriptors)} descriptors")
    if restarts < 1:
        raise ValidationError("restarts must be >= 1")
    if rows is None:
        m = descriptors[0].u.size
        rows = descriptor_rows(image, m)
    data = np.stack([d.vector() for d in descriptors])

    best = None
    histories = []
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), r]))
        centers, inertia, history = _kmeans_once(data, k, rng, max_iters)
        histories.append(tuple(history))
        if best is None or inertia < best[0]:
            best = (inertia, r, centers)
    inertia, chosen, centers = best
    anchors = tuple(descriptor_from_vector(c) for c in centers)
    return AnchorSet(
        descriptors=anchors,
        rows=np.asarray(rows, dtype=float),
        image=image,
        inertia=inertia,
        chosen_restart=chosen,
        inertia_histories=tuple(histories),
    )


def anchor_to_lane(descriptor: LaneDescriptor, rows: np.ndarray) -> Lane2D:
    """Materialize a descriptor as a 2D polyline over its covered rows."""
    rows = np.asarray(rows, dtype=float)
    inside = (rows >= descriptor.v_end) & (rows <= descriptor.v_start)
    if inside.sum() < 2:
        # Span narrower than the row spacing: use the two nearest rows.
        center = 0.5 * (descriptor.v_start + descriptor.v_end)
        inside = np.zeros_like(inside)
        inside[np.argsort(np.abs(rows - center), kind="stable")[:2]] = True
    u = descriptor.u[inside]
    v = rows[inside]
    order = np.argsort(-v, kind="stable")
    return Lane2D(np.column_stack([u[order], v[order]]))


def anchor_recall(
    anchors: AnchorSet,
    gts: list[Lane2D],
    match_threshold: float = DEFAULT_MATCH_THRESHOLD,
    row_step: float = 1.0,
) -> float:
    """Fraction of lanes whose nearest anchor costs under the threshold.

    Uses the same lane matching cost as assignment; anchors may cover
    several lanes each. An empty lane list is vacuously covered.
    """
    if len(gts) == 0:
        return 1.0
    if anchors.k == 0:
        return 0.0
    anchor_rl = resample_on_grid(
        [anchor_to_lane(d, anchors.rows) for d in anchors.descriptors], anchors.image, row_step
    )
    if any(a is None for a in anchor_rl):
        raise DegenerateLaneError("an anchor covers no row of the matching grid")
    covered = 0
    for gt_rl in resample_on_grid(gts, anchors.image, row_step):
        if gt_rl is None:
            continue
        best = min(matching_cost(a, gt_rl) for a in anchor_rl)
        if best < match_threshold:
            covered += 1
    return covered / len(gts)
