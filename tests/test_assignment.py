import numpy as np
import pytest

from bevlane.assignment import (
    _lsap,
    cost_matrix,
    first_crossings,
    first_crossings_batch,
    hungarian_assign,
    match_lanes,
    resample_lane,
    resample_lanes,
    row_grid,
)
from bevlane.camera import ImageSpec, Lane2D
from bevlane.errors import DegenerateLaneError, DomainError, ValidationError
from oracles import (
    assign_brute_force,
    first_crossings_oracle,
    matching_cost_oracle,
    resample_rows_oracle,
)

try:
    from hypothesis import example, given
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False


def test_row_grid_counts():
    rows = row_grid(ImageSpec(10, 320))
    assert rows.dtype == float and np.array_equal(rows, np.arange(320.0))


def test_resample_vertical_segment():
    lane = Lane2D(np.array([[100.0, 300.0], [100.0, 100.0]]))
    r = resample_lane(lane, ImageSpec(640, 320))
    assert np.array_equal(r.v_grid, np.arange(320.0))
    assert np.array_equal(np.flatnonzero(r.present), np.arange(100, 301))
    assert np.allclose(r.u_values[r.present], 100.0)
    u = resample_lanes([lane], np.array([0.0, 100.0, 200.0, 300.0]))[0]
    assert np.array_equal(~np.isnan(u), [False, True, True, True])
    assert np.allclose(u[1:], 100.0)


def test_resample_diagonal():
    lane = Lane2D(np.array([[0.0, 0.0], [100.0, 100.0]]))
    r = resample_lane(lane, ImageSpec(640, 320))
    rows_present = np.asarray(r.v_grid)[r.present]
    assert np.array_equal(rows_present, np.arange(101.0))
    assert np.allclose(r.u_values[r.present], rows_present)
    u = resample_lanes([lane], np.array([0.0, 50.0, 100.0, 150.0]))[0]
    assert np.allclose(u[:3], [0.0, 50.0, 100.0]) and np.isnan(u[3])


def test_resample_narrow_span_degenerate():
    lane = Lane2D(np.array([[5.0, 10.8], [9.0, 10.2]]))  # between two image rows
    with pytest.raises(DegenerateLaneError):
        resample_lane(lane, ImageSpec(640, 320))


def test_resample_keeps_continuous_endpoints():
    lane = Lane2D(np.array([[10.0, 250.7], [40.0, 120.2]]))
    r = resample_lane(lane, ImageSpec(640, 320))
    assert r.v_first == 250.7 and r.v_last == 120.2


def test_first_crossings_picks_first_branch():
    # a fold: v goes 200 -> 100 -> 180; rows in [100, 180] have two branches
    pts = np.array([[0.0, 200.0], [10.0, 100.0], [30.0, 180.0]])
    found, seg, t = first_crossings(pts, np.array([150.0]))
    assert found[0] and seg[0] == 0
    us, present = resample_rows_oracle(pts, np.array([150.0]))
    assert present[0] and us[0] == pytest.approx(0.0 + 10.0 * (200.0 - 150.0) / 100.0)


def _assert_crossings_match_oracle(v, rows):
    found, seg, t = first_crossings_batch(v, rows)
    for lane, lane_v in enumerate(v):
        want_found, want_seg, want_t = first_crossings_oracle(lane_v, rows)
        one = first_crossings(np.column_stack([np.zeros(lane_v.size), lane_v]), rows)
        assert np.array_equal(found[lane], want_found)
        assert np.array_equal(seg[lane][want_found], want_seg[want_found])
        assert np.array_equal(t[lane][want_found], want_t[want_found])
        for got, alone in zip((found[lane], seg[lane], t[lane]), one):
            assert np.array_equal(got, alone)


def test_batched_crossings_on_folds_flats_and_vertices_on_rows():
    v = np.array(
        [
            [200.0, 100.0, 180.0, 150.0],  # folds back twice
            [150.0, 150.0, 120.0, 120.0],  # flat segments lying on rows
            [130.5, 125.0, 125.0, 110.25],  # vertices exactly on rows, one flat
            [-40.0, -10.0, -30.0, -20.0],  # entirely above the grid
        ]
    )
    _assert_crossings_match_oracle(v, np.arange(60) * 2.5 + 90.0)
    _assert_crossings_match_oracle(v, np.arange(321.0))


if HAVE_HYPOTHESIS:
    _ROW_VALUES = st.one_of(
        st.integers(-5, 45).map(float),  # on unit rows
        st.integers(-10, 90).map(lambda i: i / 4.0),  # on or between quarter rows
        st.floats(-10.0, 50.0, allow_nan=False),
        st.sampled_from([-1e3, 1e3]),  # far off the grid
    )
    _STACKS = st.integers(2, 8).flatmap(
        lambda m: st.lists(st.lists(_ROW_VALUES, min_size=m, max_size=m), min_size=1, max_size=4)
    )

    @given(
        stack=_STACKS,
        step=st.sampled_from([1.0, 0.5, 0.25, 2.5, 3.0]),
        count=st.integers(1, 40),
        start=st.sampled_from([0.0, -2.0, 0.25]),
    )
    def test_batched_crossings_equal_first_crossings(stack, step, count, start):
        _assert_crossings_match_oracle(np.array(stack), start + np.arange(count) * step)


def test_resample_matches_oracle_on_folded_polylines(rng):
    img = ImageSpec(640, 320)
    for _ in range(25):
        m = rng.integers(3, 9)
        v = rng.uniform(5.0, 315.0, size=m)
        u = rng.uniform(0.0, 640.0, size=m)
        if abs(v.max() - v.min()) < 3.0:
            continue
        lane = Lane2D(np.column_stack([u, v]))
        r = resample_lane(lane, img)
        us, present = resample_rows_oracle(lane.points, np.asarray(r.v_grid))
        assert np.array_equal(r.present, present)
        assert np.allclose(r.u_values[present], us[present])


class TestResampleLanes:
    def test_matches_first_crossing_oracle(self, rng):
        rows = np.arange(4.0, 60.0, 3.0)
        for _ in range(10):
            # Unsorted v makes folded polylines, exercising the
            # first-crossing rule rather than plain interpolation.
            pts = np.column_stack(
                [rng.uniform(0, 64, size=7), rng.uniform(0, 64, size=7)]
            )
            lane = Lane2D(pts)
            (got,) = resample_lanes([lane], rows)
            want_u, want_present = resample_rows_oracle(pts, rows)
            np.testing.assert_array_equal(np.isnan(got), ~want_present)
            np.testing.assert_allclose(got[want_present], want_u[want_present], atol=1e-12)

    def test_nan_outside_span(self):
        lane = Lane2D([[10.0, 50.0], [20.0, 30.0]])
        (got,) = resample_lanes([lane], np.array([60.0, 40.0, 10.0]))
        assert np.isnan(got[0]) and np.isnan(got[2])
        assert got[1] == pytest.approx(15.0)


if HAVE_HYPOTHESIS:
    _POINTS = st.lists(
        st.tuples(st.floats(-50.0, 100.0, allow_nan=False), _ROW_VALUES), min_size=2, max_size=8
    )

    @given(stack=st.lists(_POINTS, min_size=1, max_size=5), step=st.sampled_from([1.0, 0.5, 2.5]))
    @example(
        stack=[
            [(0.0, 200.0), (1.0, 10.0), (2.0, 30.0), (3.0, 15.0)],  # folds back twice
            [(5.0, 15.0), (6.0, 15.0), (7.0, 12.0), (8.0, 12.0), (9.0, 3.0)],  # flat on rows
            [(1.0, 13.5), (2.0, 12.5), (3.0, 12.5)],  # vertices on half rows, one flat
            [(4.0, -40.0), (5.0, -10.0)],  # entirely above the grid
        ],
        step=0.5,
    )
    def test_resample_lanes_equals_resample_lane_and_oracle(stack, step):
        image = ImageSpec(64, 40)
        rows = np.arange(0.0, 40.0, step)
        lanes = [Lane2D(points) for points in stack]
        on_grid = resample_lanes(lanes, row_grid(image))
        for lane, got, full in zip(lanes, resample_lanes(lanes, rows), on_grid):
            found, seg, t = first_crossings_oracle(lane.v, rows)
            want = np.full(rows.size, np.nan)
            a, b = lane.u[seg[found]], lane.u[seg[found] + 1]
            want[found] = (1.0 - t[found]) * a + t[found] * b
            assert np.array_equal(got, want, equal_nan=True)
            try:
                alone = resample_lane(lane, image).u_values
            except DegenerateLaneError:
                alone = np.full(image.height, np.nan)
            assert np.array_equal(full, alone, equal_nan=True)

    _LANE_SETS = st.lists(_POINTS, max_size=4)

    @given(
        preds=_LANE_SETS,
        gts=_LANE_SETS,
        holes=st.lists(st.integers(0, 200), max_size=12),
        step=st.sampled_from([1.0, 0.5, 2.5]),
    )
    @example(
        preds=[
            [(0.0, 200.0), (1.0, 10.0), (2.0, 30.0), (3.0, 15.0)],  # folds back twice
            [(4.0, -40.0), (5.0, -10.0)],  # covers no row
            [(9.0, 39.0), (9.0, 30.0)],
        ],
        gts=[[(9.0, 20.0), (9.0, 2.0)], [(2.0, 35.0), (6.0, 12.5)]],  # disjoint from the third
        holes=[3, 17, 40, 41, 60],  # NaN rows inside spans
        step=0.5,
    )
    def test_cost_matrix_equals_row_loop_oracle(preds, gts, holes, step):
        rows = np.arange(0.0, 40.0, step)
        pred_u = resample_lanes([Lane2D(points) for points in preds], rows)
        gt_u = resample_lanes([Lane2D(points) for points in gts], rows)
        for n, row in enumerate(holes):
            stack = (pred_u, gt_u)[n % 2]
            if len(stack):
                stack[n % len(stack), row % rows.size] = np.nan
        costs = cost_matrix(pred_u, gt_u, rows)
        assert costs.shape == (len(preds), len(gts))
        for i, u_p in enumerate(pred_u):
            for j, u_g in enumerate(gt_u):
                want = matching_cost_oracle(u_p, u_g, rows)
                assert costs[i, j] == want or abs(costs[i, j] - want) <= 1e-12 * want


def test_stacked_cost_matrix_equals_its_2d_calls_frame_by_frame(rng):
    # frames hold different lane counts, padded with NaN lanes (which cover
    # no row) to one (frames, lanes, rows) stack per side; each frame's
    # slice of the stacked costs equals the 2-D call on its own lanes, and
    # a pad pairs with nothing
    image = ImageSpec(120, 90)
    rows = row_grid(image)
    counts = [(3, 2), (0, 2), (1, 0), (4, 4), (2, 3)]

    def lanes(n):
        return [
            Lane2D(np.column_stack([rng.uniform(5.0, 115.0, 6), np.sort(rng.uniform(-5.0, 95.0, 6))]))
            for _ in range(n)
        ]

    frames = [(resample_lanes(lanes(p), rows), resample_lanes(lanes(g), rows)) for p, g in counts]
    stacks = []
    for side, width in ((0, 4), (1, 4)):
        stack = np.full((len(frames), width, rows.size), np.nan)
        for f, frame in enumerate(frames):
            stack[f, : len(frame[side])] = frame[side]
        stacks.append(stack)
    costs = cost_matrix(*stacks, rows)
    assert costs.shape == (len(frames), 4, 4)
    for f, (pred_u, gt_u) in enumerate(frames):
        alone = cost_matrix(pred_u, gt_u, rows)
        assert np.array_equal(costs[f, : len(pred_u), : len(gt_u)], alone)
        padded = np.ones(costs[f].shape, dtype=bool)
        padded[: len(pred_u), : len(gt_u)] = False
        assert np.isposinf(costs[f][padded]).all()


def pair_cost(a: Lane2D, b: Lane2D, image: ImageSpec) -> float:
    """cost_matrix of one-row stacks: the matching cost of lane a against lane b."""
    rows = row_grid(image)
    return float(cost_matrix(resample_lanes([a], rows), resample_lanes([b], rows), rows)[0, 0])


def test_matching_cost_identical_is_zero(image):
    lane = Lane2D(np.array([[300.0, 310.0], [350.0, 50.0]]))
    assert pair_cost(lane, lane, image) == 0.0


def test_matching_cost_pure_shift(image):
    a = Lane2D(np.array([[300.0, 310.0], [300.0, 50.0]]))
    b = Lane2D(np.array([[305.0, 310.0], [305.0, 50.0]]))
    assert pair_cost(a, b, image) == pytest.approx(5.0)
    assert pair_cost(b, a, image) == pytest.approx(5.0)


def test_matching_cost_disjoint_spans_is_inf(image):
    a = Lane2D(np.array([[300.0, 310.0], [300.0, 200.0]]))
    b = Lane2D(np.array([[300.0, 150.0], [300.0, 50.0]]))
    assert pair_cost(a, b, image) == np.inf


def test_matching_cost_endpoint_terms(image):
    a = Lane2D(np.array([[300.0, 300.0], [300.0, 100.0]]))
    b = Lane2D(np.array([[300.0, 290.0], [300.0, 110.0]]))
    # same u on common rows; endpoint gaps 10 + 10
    assert pair_cost(a, b, image) == pytest.approx(20.0)


def test_hungarian_diagonal():
    res = hungarian_assign(np.array([[1.0, 10.0], [10.0, 1.0]]), 50.0)
    assert sorted((i, j) for i, j, _ in res.pairs) == [(0, 0), (1, 1)]
    assert sum(c for _, _, c in res.pairs) == 2.0


def test_hungarian_beats_greedy():
    res = hungarian_assign(np.array([[1.0, 2.0], [2.0, 100.0]]), 50.0)
    assert sorted((i, j) for i, j, _ in res.pairs) == [(0, 1), (1, 0)]
    assert sum(c for _, _, c in res.pairs) == 4.0


def test_hungarian_rectangular_vs_oracle(rng):
    for _ in range(60):
        p = int(rng.integers(1, 6))
        g = int(rng.integers(1, 6))
        costs = rng.uniform(0.0, 40.0, size=(p, g))
        res = hungarian_assign(costs, match_threshold=1e9)
        total = sum(c for _, _, c in res.pairs)
        assert len(res.pairs) == min(p, g)
        assert total == pytest.approx(assign_brute_force(costs), abs=1e-9)


def test_hungarian_threshold_drops_pairs(rng):
    # square case: the optimal full assignment is found first, then pairs
    # at or over the cutoff fall out
    import itertools

    for _ in range(40):
        n = int(rng.integers(1, 5))
        costs = rng.uniform(0.0, 60.0, size=(n, n))
        thr = 30.0
        res = hungarian_assign(costs, match_threshold=thr)
        assert all(c < thr for _, _, c in res.pairs)
        best = min(
            (sum(costs[i, p[i]] for i in range(n)), p)
            for p in itertools.permutations(range(n))
        )[1]
        expected = sorted((i, best[i]) for i in range(n) if costs[i, best[i]] < thr)
        assert sorted((i, j) for i, j, _ in res.pairs) == expected


def test_hungarian_rectangular_kept_pairs_below_threshold(rng):
    for _ in range(30):
        p = int(rng.integers(1, 5))
        g = int(rng.integers(1, 5))
        costs = rng.uniform(0.0, 60.0, size=(p, g))
        res = hungarian_assign(costs, match_threshold=30.0)
        assert all(c < 30.0 for _, _, c in res.pairs)
        matched = {i for i, _, _ in res.pairs}
        assert set(res.unmatched_predictions) == set(range(p)) - matched


def test_hungarian_handles_inf(rng):
    costs = np.array([[np.inf, 3.0], [4.0, np.inf]])
    res = hungarian_assign(costs, 30.0)
    assert sorted((i, j) for i, j, _ in res.pairs) == [(0, 1), (1, 0)]


def test_hungarian_empty_sides():
    res = hungarian_assign(np.zeros((0, 3)), 30.0)
    assert res.pairs == () and res.unmatched_ground_truths == (0, 1, 2)
    res = hungarian_assign(np.zeros((2, 0)), 30.0)
    assert res.pairs == () and res.unmatched_predictions == (0, 1)


def test_hungarian_rejects_bad_input():
    with pytest.raises(ValidationError):
        hungarian_assign(np.array([1.0, 2.0]), 30.0)
    with pytest.raises(ValidationError):
        hungarian_assign(np.array([[1.0, np.nan]]), 30.0)
    with pytest.raises(ValidationError):
        hungarian_assign(np.array([[-1.0]]), 30.0)


def test_hungarian_vs_brute_force_with_inf_and_thresholds(rng):
    # +inf pairs are avoided whenever an injection can, then dropped;
    # pairs at or over the threshold are dropped after the assignment
    for k in range(300):
        p, g = (int(n) for n in rng.integers(1, 7, size=2))
        costs = rng.uniform(0.0, 60.0, size=(p, g))
        if k % 2:
            costs[rng.random((p, g)) < 0.3] = np.inf
        thr = (np.inf, 30.0, float(rng.uniform(5.0, 60.0)))[k % 3]
        res = hungarian_assign(costs, match_threshold=thr)
        total = sum(c for _, _, c in res.pairs)
        assert total == pytest.approx(assign_brute_force(costs, thr), abs=1e-9)


def test_lsap_equals_linear_sum_assignment():
    # the port picks the reference solver's assignment, ties included
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(1602)
    for k in range(6000):
        n = int(rng.integers(1, 9))
        costs = [
            rng.uniform(0.0, 40.0, size=(n, n)),
            rng.integers(0, 3, size=(n, n)).astype(float),
            np.full((n, n), float(rng.integers(0, 5))),
            rng.integers(0, 10, size=(n, n)) / 8.0,
        ][k % 4]
        _, cols = optimize.linear_sum_assignment(costs)
        assert _lsap(costs.tolist()) == cols.tolist(), costs


def test_hungarian_overflowing_costs_raise():
    # 1e308 leaves no finite stand-in for +inf, so the second row has no
    # finite path; the solver stops instead of walking a stale path
    with pytest.raises(DomainError):
        hungarian_assign(np.array([[1e308, 1e308], [np.inf, np.inf]]), 30.0)


def test_constant_shift_keeps_argmin(rng):
    costs = rng.uniform(0.0, 20.0, size=(4, 4))
    base = hungarian_assign(costs, match_threshold=1e9)
    shifted = hungarian_assign(costs + 7.5, match_threshold=1e9)
    assert [(i, j) for i, j, _ in base.pairs] == [(i, j) for i, j, _ in shifted.pairs]


def test_match_lanes_end_to_end(image):
    gts = [
        Lane2D(np.array([[200.0, 310.0], [250.0, 60.0]])),
        Lane2D(np.array([[500.0, 310.0], [450.0, 60.0]])),
    ]
    preds = [
        Lane2D(np.array([[503.0, 310.0], [453.0, 60.0]])),
        Lane2D(np.array([[206.0, 310.0], [256.0, 60.0]])),
        Lane2D(np.array([[700.0, 310.0], [700.0, 200.0]])),
    ]
    res = match_lanes(preds, gts, image)
    assert [(i, j) for i, j, _cost in res.pairs] == [(0, 1), (1, 0)]
    assert res.unmatched_predictions == (2,)


def test_match_lanes_degenerate_pred_unmatched(image):
    gts = [Lane2D(np.array([[200.0, 310.0], [250.0, 60.0]]))]
    preds = [Lane2D(np.array([[200.0, 100.2], [200.0, 100.8]]))]  # sub-row span
    res = match_lanes(preds, gts, image)
    assert res.pairs == ()
    assert res.unmatched_predictions == (0,)


if HAVE_HYPOTHESIS:

    @given(
        p=st.integers(1, 4),
        g=st.integers(1, 4),
        seed=st.integers(0, 2**31),
    )
    def test_hungarian_optimality_property(p, g, seed):
        costs = np.random.default_rng(seed).uniform(0.0, 50.0, size=(p, g))
        res = hungarian_assign(costs, match_threshold=1e9)
        total = sum(c for _, _, c in res.pairs)
        assert total == pytest.approx(assign_brute_force(costs), abs=1e-9)
