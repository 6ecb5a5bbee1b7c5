"""Finite-difference verification of every analytic loss gradient.

Each term is differenced per its own contract: the sampled targets are
held fixed and only the parameters the returned gradient covers are
stepped. The frame total is differenced end to end in the 2D-only
branch (where every target is a genuine constant input) and checked as
an exact recombination of the term gradients in the 3D branch, whose
resample-then-compare targets are constants by definition.
"""

import numpy as np
import pytest

from bevlane.assignment import MatchResult, match_lanes, resample_lane
from bevlane.camera import CameraIntrinsics, project_lane
from bevlane.fitting import power_to_bernstein
from bevlane.geometry import lane_from_vector, lane_to_vector, sample_lane
from bevlane.losses import (
    LaneTargets,
    LossWeights,
    bev_iou_loss,
    classification_loss,
    endpoint_z_loss,
    height_loss,
    height_variance_reg,
    lane_loss,
    lane_losses,
    perspective_losses,
    total_loss,
)
from gradcheck import (
    assert_grad_close,
    curve_scales,
    draw_perspective_pair,
    full_scales,
    geo_scales,
    geo_to_lane,
    sample_geo,
)
from oracles import fd_gradient

N_CONFIGS = 25


def signed_margin(rng, size, lo, hi):
    return rng.choice([-1.0, 1.0], size) * rng.uniform(lo, hi, size)


def test_bev_iou_gradient(rng):
    for _ in range(N_CONFIGS):
        geo = sample_geo(rng)
        lane = geo_to_lane(geo)
        xs = sample_lane(lane, 72)[:, 0]
        gt_xs = xs - signed_margin(rng, 72, 0.01, 0.9)

        def f(curve, geo=geo, gt_xs=gt_xs):
            return bev_iou_loss(geo_to_lane(np.concatenate([curve, geo[4:]])), gt_xs)[0]

        _, grad = bev_iou_loss(lane, gt_xs)
        fd = fd_gradient(f, geo[:4], curve_scales(geo[-1]))
        assert_grad_close(grad, fd, label="l_bev")


def test_height_gradient(rng):
    for _ in range(N_CONFIGS):
        geo = sample_geo(rng)
        lane = geo_to_lane(geo)
        gt_h = geo[4:-2] - signed_margin(rng, 72, 0.01, 0.5)

        def f(h, geo=geo, gt_h=gt_h):
            return height_loss(geo_to_lane(np.concatenate([geo[:4], h, geo[-2:]])), gt_h)[0]

        _, grad = height_loss(lane, gt_h)
        fd = fd_gradient(f, geo[4:-2], np.ones(72))
        assert_grad_close(grad, fd, label="l_h")


def test_endpoint_z_gradient(rng):
    for _ in range(N_CONFIGS):
        geo = sample_geo(rng)
        lane = geo_to_lane(geo)
        gt_span = geo[-2:] - signed_margin(rng, 2, 0.01, 2.0)

        def f(span, geo=geo, gt_span=gt_span):
            lane = geo_to_lane(np.concatenate([geo[:-2], span]))
            return endpoint_z_loss(lane, gt_span[0], gt_span[1])[0]

        _, grad = endpoint_z_loss(lane, gt_span[0], gt_span[1])
        fd = fd_gradient(f, geo[-2:], np.ones(2))
        assert_grad_close(np.asarray(grad), fd, label="l_z")


def test_classification_gradient(rng):
    for _ in range(N_CONFIGS):
        m = rng.integers(1, 8)
        scores = rng.uniform(0.05, 0.95, m)
        labels = (rng.uniform(size=m) > 0.5).astype(float)
        _, grad = classification_loss(scores, labels)
        fd = fd_gradient(lambda s: classification_loss(s, labels)[0], scores, np.ones(m))
        assert_grad_close(grad, fd, label="l_cls")


def test_height_variance_gradient(rng):
    for _ in range(N_CONFIGS):
        geo = sample_geo(rng)
        sigma, grad = height_variance_reg(geo_to_lane(geo))
        assert sigma > 1e-3

        def f(h, geo=geo):
            return height_variance_reg(geo_to_lane(np.concatenate([geo[:4], h, geo[-2:]])))[0]

        fd = fd_gradient(f, geo[4:-2], np.ones(72))
        assert_grad_close(grad, fd, label="sigma_h")


def test_perspective_gradients(rng, k, image):
    for _ in range(N_CONFIGS):
        geo, gt = draw_perspective_pair(rng, k, image)
        lane = geo_to_lane(geo)
        out = perspective_losses(lane, k, gt)
        assert out.overlap
        scales = geo_scales(72, geo[-1])
        fd_per = fd_gradient(
            lambda g: perspective_losses(lane, k, gt, geo_params=g).l_per, geo, scales
        )
        assert_grad_close(out.grad_per, fd_per, label="l_per")
        fd_v = fd_gradient(
            lambda g: perspective_losses(lane, k, gt, geo_params=g).l_v, geo, scales
        )
        assert_grad_close(out.grad_v, fd_v, label="l_v")


def test_total_loss_gradient_2d_branch(rng, k, image):
    """End-to-end difference of the 2D-only total over the full vector."""
    for _ in range(8):
        geo, gt = draw_perspective_pair(rng, k, image)
        score = rng.uniform(0.05, 0.95)
        theta = np.concatenate([geo, [score]])
        matches = MatchResult(pairs=((0, 0, 1.0),), unmatched_predictions=(),
                              unmatched_ground_truths=())

        def f(vec):
            out = total_loss([lane_from_vector(vec)], [gt], matches, k, gts_3d=None)
            assert out.matched == ((0, 0),)
            return out.total

        out = total_loss([lane_from_vector(theta)], [gt], matches, k, gts_3d=None)
        fd = fd_gradient(f, theta, full_scales(72, geo[-1]))
        assert_grad_close(out.gradient[0], fd, label="total_2d")


def test_lane_loss_gradient_2d_bernstein(rng, k, image):
    """The 2D-only objective in the Bernstein basis, as fit_lane_2d(order="bezier") descends it."""
    for _ in range(8):
        geo, gt = draw_perspective_pair(rng, k, image)
        theta = geo.copy()
        theta[:4] = power_to_bernstein(geo[3::-1], geo[-2], geo[-1])

        def f(t):
            return lane_loss(t, k, gt, basis="bernstein")[0]

        _, grad, terms = lane_loss(theta, k, gt, basis="bernstein")
        assert terms["l_reg"] > 1e-3
        fd = fd_gradient(f, theta, np.ones(theta.size))
        assert_grad_close(grad, fd, label="lane_loss_2d_bernstein")


@pytest.mark.parametrize("basis", ["power", "bernstein"])
def test_lane_losses_2d_gradient_over_a_stack(rng, k, image, basis):
    """Each lane's row of the batched gradient against differences of its own loss."""
    cams = [k, CameraIntrinsics(fx=900.0, fy=950.0, ox=380.0, oy=150.0)] * 2
    pairs = [draw_perspective_pair(rng, cam, image) for cam in cams]
    theta = np.stack([geo for geo, _gt in pairs])
    if basis == "bernstein":
        for row in theta:
            row[:4] = power_to_bernstein(row[3::-1], row[-2], row[-1])
    targets = LaneTargets.stack([gt for _geo, gt in pairs], cams)
    loss, grad, terms, overlap = lane_losses(theta, targets, basis=basis)
    assert overlap.all() and (terms[:, 2] > 1e-3).all()
    for lane in range(theta.shape[0]):

        def f(row, lane=lane):
            stack = theta.copy()
            stack[lane] = row
            return lane_losses(stack, targets, basis=basis)[0][lane]

        scales = geo_scales(72, theta[lane, -1]) if basis == "power" else np.ones(theta.shape[1])
        fd = fd_gradient(f, theta[lane], scales)
        assert_grad_close(grad[lane], fd, label=f"lane_losses[{lane}] {basis}")
        # the stack is a batch of independent lanes: each row is its lane alone
        alone = lane_loss(theta[lane], cams[lane], pairs[lane][1], basis=basis)
        assert alone[0] == loss[lane] and np.array_equal(alone[1], grad[lane])


def test_lane_losses_gradient_with_labels_over_a_stack(rng, k, image):
    """The labelled objective on a stack with two cameras, lane by lane.

    The label targets are read at the lane's own samples, so they slide
    with its span and are held fixed by contract: the curve and heights
    are differenced, and every column, the span's included, must equal
    the weighted sum of the one-lane term gradients exactly.
    """
    cams = [k, CameraIntrinsics(fx=900.0, fy=950.0, ox=380.0, oy=150.0)] * 2
    pairs = [draw_perspective_pair(rng, cam, image) for cam in cams]
    theta = np.stack([geo for geo, _gt in pairs])
    gts = [gt for _geo, gt in pairs]
    labels = []
    for geo in theta:
        other = geo.copy()
        other[3] += 0.3
        other[4:-2] += signed_margin(rng, 72, 0.02, 0.1)
        other[-2:] += [0.4, -1.5]
        labels.append(sample_lane(geo_to_lane(other), 300)[::-1])  # decreasing z
    weights = LossWeights(alpha=0.7, beta=1.3)
    targets = LaneTargets.stack(gts, cams, labels)
    loss, grad, terms, overlap = lane_losses(theta, targets, weights=weights)
    assert overlap.all() and terms.shape == (4, 5) and (terms > 1e-3).all()
    for lane in range(theta.shape[0]):

        def f(row, lane=lane):
            stack = theta.copy()
            stack[lane, :-2] = row
            return lane_losses(stack, targets, weights=weights)[0][lane]

        fd = fd_gradient(f, theta[lane, :-2], geo_scales(72, theta[lane, -1])[:-2])
        assert_grad_close(grad[lane, :-2], fd, label=f"lane_losses[{lane}] labelled")

        alone = lane_loss(theta[lane], cams[lane], gts[lane], labels[lane], weights=weights)
        assert alone[0] == loss[lane] and np.array_equal(alone[1], grad[lane])

        pred = geo_to_lane(theta[lane])
        g3 = labels[lane][::-1]
        per = perspective_losses(pred, cams[lane], gts[lane])
        z = np.linspace(pred.z_min, pred.z_max, 72)
        l_bev, g_bev = bev_iou_loss(pred, np.interp(z, g3[:, 2], g3[:, 0]))
        l_h, g_h = height_loss(pred, np.interp(pred.profile.keypoint_z(), g3[:, 2], g3[:, 1]))
        l_z, g_z = endpoint_z_loss(pred, g3[0, 2], g3[-1, 2])
        assert np.array_equal(terms[lane], [per.l_per, per.l_v, l_bev, l_h, l_z])
        assert loss[lane] == weights.alpha * (l_bev + l_h + l_z) + weights.beta * (
            per.l_per + per.l_v
        )
        want = weights.beta * (per.grad_per + per.grad_v)
        want[:4] += weights.alpha * g_bev
        want[4:-2] += weights.alpha * g_h
        want[-2:] += weights.alpha * np.array(g_z)
        assert np.array_equal(grad[lane], want)


def test_total_loss_gradient_recombines_terms(rng, k, image):
    """3D-branch gradient rows equal the assembled term gradients exactly."""
    gt_geos = [sample_geo(rng) for _ in range(2)]
    gt_lanes = [geo_to_lane(g) for g in gt_geos]
    preds = []
    for g in gt_geos:
        p = g.copy()
        p[3] += 0.2
        p[4:-2] += 0.03
        preds.append(lane_from_vector(np.concatenate([p, [0.8]])))
    gt2d = [project_lane(k, l, 72) for l in gt_lanes]
    pred2d = [project_lane(k, l, 72) for l in preds]
    gts = [resample_lane(l, image) for l in gt2d]
    matches = match_lanes(pred2d, gt2d, image)
    assert len(matches.pairs) == 2
    gts3 = [sample_lane(l, 300) for l in gt_lanes]
    weights = LossWeights(alpha=1.0, beta=1.0)

    out = total_loss(preds, gts, matches, k, gts_3d=gts3, weights=weights)
    dim = lane_to_vector(preds[0]).size
    expected = np.zeros((len(preds), dim))
    for i, j, _cost in matches.pairs:
        pred = preds[i]
        per = perspective_losses(pred, k, gts[j])
        geo = np.zeros(dim)
        geo[:-1] += weights.beta * (per.grad_per + per.grad_v)
        g3 = np.asarray(gts3[j], dtype=float)
        z = np.linspace(pred.z_min, pred.z_max, 72)
        _, g_bev = bev_iou_loss(pred, np.interp(z, g3[:, 2], g3[:, 0]))
        gt_h = np.interp(pred.profile.keypoint_z(), g3[:, 2], g3[:, 1])
        _, g_h = height_loss(pred, gt_h)
        _, (g_zmin, g_zmax) = endpoint_z_loss(pred, float(g3[:, 2].min()), float(g3[:, 2].max()))
        geo[0:4] += weights.alpha * g_bev
        geo[4:-3] += weights.alpha * g_h
        geo[-3] += weights.alpha * g_zmin
        geo[-2] += weights.alpha * g_zmax
        expected[i] += geo / len(matches.pairs)
    labels = np.array([1.0, 1.0])
    _, g_cls = classification_loss(np.array([p.score for p in preds]), labels)
    expected[:, -1] += g_cls
    assert np.array_equal(out.gradient, expected)


def test_fd_rejects_nothing_systematically(rng, k, image):
    # the sampler should find configurations quickly; a starved sampler
    # would silently weaken the perspective checks
    for _ in range(5):
        draw_perspective_pair(rng, k, image, max_tries=60)
