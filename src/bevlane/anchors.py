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

from .assignment import DEFAULT_MATCH_THRESHOLD, cost_matrix, resample_lanes, row_grid
from .camera import ImageSpec, Lane2D
from .errors import DegenerateLaneError, ValidationError
from .geometry import MAX_SAMPLE_COUNT

MAX_ANCHORS = 50
DEFAULT_DESCRIPTOR_ROWS = 36
# Seeded k-means runs per clustering; the one with the lowest final inertia wins.
KMEANS_RESTARTS = 10
# Assignment-update rounds per k-means restart, unless the assignment settles first.
KMEANS_MAX_ITERS = 100


def descriptor_rows(image: ImageSpec, m: int = DEFAULT_DESCRIPTOR_ROWS) -> np.ndarray:
    """m sample rows spanning the lower half of the image, where lanes live."""
    if not 2 <= m <= MAX_SAMPLE_COUNT:
        raise ValidationError(f"descriptor rows must be in [2, {MAX_SAMPLE_COUNT}], got {m}")
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


def build_descriptors(
    lanes: list[Lane2D], image: ImageSpec, m: int = DEFAULT_DESCRIPTOR_ROWS
) -> list[LaneDescriptor | None]:
    """Descriptors of a stack of lanes at the shared rows for this image size.

    All lanes are sampled in one resample_lanes call. A lane that spans
    fewer than 2 rows, or covers none of the descriptor rows, gets None.
    """
    rows = descriptor_rows(image, m)
    out = []
    for lane, u in zip(lanes, resample_lanes(lanes, rows)):
        missing = np.isnan(u)
        if lane.v.max() - lane.v.min() < 2.0 or missing.all():
            out.append(None)
            continue
        # A lane covers one run of rows; the rows past either end take its end u.
        u[missing] = np.interp(rows[missing], rows[~missing], u[~missing])
        out.append(LaneDescriptor(u=u, v_start=float(lane.v.max()), v_end=float(lane.v.min())))
    return out


def build_descriptor(
    lane: Lane2D, image: ImageSpec, m: int = DEFAULT_DESCRIPTOR_ROWS
) -> LaneDescriptor:
    """build_descriptors for one lane; raises DegenerateLaneError where that gives None."""
    (descriptor,) = build_descriptors([lane], image, m)
    if descriptor is None:
        raise DegenerateLaneError("lane spans under 2 rows or covers no descriptor row")
    return descriptor


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


def _kmeans_once(data: np.ndarray, k: int, rng: np.random.Generator):
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
    for _ in range(KMEANS_MAX_ITERS):
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
    seed: int = 0,
) -> AnchorSet:
    """Cluster lane descriptors into k anchors.

    Runs k-means from KMEANS_RESTARTS seeded restarts and keeps the
    lowest final inertia. k is capped at 50: past that the dictionary
    stops being a compact prior. The anchors' rows are the
    descriptor_rows of image that the descriptors were built at.
    """
    if not 1 <= k <= MAX_ANCHORS:
        raise ValidationError(f"k must be in [1, {MAX_ANCHORS}], got {k}")
    if k > len(descriptors):
        raise ValidationError(f"k={k} exceeds the {len(descriptors)} descriptors")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    data = np.stack([d.vector() for d in descriptors])

    best = None
    histories = []
    for r in range(KMEANS_RESTARTS):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), r]))
        centers, inertia, history = _kmeans_once(data, k, rng)
        histories.append(tuple(history))
        if best is None or inertia < best[0]:
            best = (inertia, r, centers)
    inertia, chosen, centers = best
    anchors = tuple(descriptor_from_vector(c) for c in centers)
    return AnchorSet(
        descriptors=anchors,
        rows=descriptor_rows(image, descriptors[0].u.size),
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
) -> float:
    """Fraction of lanes whose cheapest anchor costs under the threshold.

    Uses the same cost_matrix as lane matching, on the image row grid;
    anchors may cover several lanes each. An empty lane list is
    vacuously covered.
    """
    if len(gts) == 0:
        return 1.0
    if anchors.k == 0:
        return 0.0
    rows = row_grid(anchors.image)
    anchor_u = resample_lanes([anchor_to_lane(d, anchors.rows) for d in anchors.descriptors], rows)
    if np.isnan(anchor_u).all(axis=1).any():
        raise DegenerateLaneError("an anchor covers no row of the matching grid")
    best = cost_matrix(anchor_u, resample_lanes(gts, rows), rows).min(axis=0)
    return int(np.count_nonzero(best < match_threshold)) / len(gts)
