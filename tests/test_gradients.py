"""Finite-difference verification of every analytic loss gradient.

Each term is differenced per its own contract: the sampled targets are
held fixed and only the parameters the returned gradient covers are
stepped. The objective lane_losses is differenced lane by lane over a
stack in both branches; in the labelled branch, whose label targets
slide with the span and are constants by contract, it is also checked
as an exact recombination of the one-lane term gradients.
"""

import numpy as np

from bevlane.camera import CameraIntrinsics
from bevlane.geometry import sample_lane
from bevlane.losses import (
    LaneTargets,
    _height_spread,
    _span_term,
    bev_iou_loss,
    height_loss,
    lane_losses,
    perspective_losses,
)
from gradcheck import (
    assert_grad_close,
    curve_scales,
    draw_perspective_pair,
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
    # l_z, lane_losses' span term, on a stack of one
    for _ in range(N_CONFIGS):
        geo = sample_geo(rng)
        gt_span = geo[-2:] - signed_margin(rng, 2, 0.01, 2.0)

        def f(span, gt_span=gt_span):
            return _span_term(span[None], gt_span[None])[0][0]

        _, grad = _span_term(geo[None, -2:], gt_span[None])
        fd = fd_gradient(f, geo[-2:], np.ones(2))
        assert_grad_close(grad[0], fd, label="l_z")


def test_height_variance_gradient(rng):
    # l_reg, lane_losses' height spread, of one lane's keypoints
    for _ in range(N_CONFIGS):
        geo = sample_geo(rng)
        sigma, grad = _height_spread(geo[4:-2])
        assert sigma > 1e-3
        fd = fd_gradient(lambda h: _height_spread(h)[0], geo[4:-2], np.ones(72))
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


def test_lane_losses_2d_gradient_over_a_stack(rng, k, image):
    """Each lane's row of the batched gradient against differences of its own loss."""
    cams = [k, CameraIntrinsics(fx=900.0, fy=950.0, ox=380.0, oy=150.0)] * 2
    pairs = [draw_perspective_pair(rng, cam, image) for cam in cams]
    theta = np.stack([geo for geo, _gt in pairs])
    targets = LaneTargets.stack([gt for _geo, gt in pairs], cams)
    loss, grad, terms, overlap = lane_losses(theta, targets)
    assert overlap.all() and (terms[:, 2] > 1e-3).all()
    for lane in range(theta.shape[0]):

        def f(row, lane=lane):
            stack = theta.copy()
            stack[lane] = row
            return lane_losses(stack, targets)[0][lane]

        fd = fd_gradient(f, theta[lane], geo_scales(72, theta[lane, -1]))
        assert_grad_close(grad[lane], fd, label=f"lane_losses[{lane}]")
        # the stack is a batch of independent lanes: each row is its lane alone
        alone = lane_losses(theta[lane][None], LaneTargets.stack([pairs[lane][1]], [cams[lane]]))
        assert alone[0][0] == loss[lane] and np.array_equal(alone[1][0], grad[lane])


def test_lane_losses_gradient_with_labels_over_a_stack(rng, k, image):
    """The labelled objective on a stack with two cameras, lane by lane.

    The label targets are read at the lane's own samples, so they slide
    with its span and are held fixed by contract: the curve and heights
    are differenced, and every column, the span's included, must equal
    the sum of the one-lane term gradients exactly.
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
    targets = LaneTargets.stack(gts, cams, labels)
    loss, grad, terms, overlap = lane_losses(theta, targets)
    assert overlap.all() and terms.shape == (4, 5) and (terms > 1e-3).all()
    for lane in range(theta.shape[0]):

        def f(row, lane=lane):
            stack = theta.copy()
            stack[lane, :-2] = row
            return lane_losses(stack, targets)[0][lane]

        fd = fd_gradient(f, theta[lane, :-2], geo_scales(72, theta[lane, -1])[:-2])
        assert_grad_close(grad[lane, :-2], fd, label=f"lane_losses[{lane}] labelled")

        one = LaneTargets.stack([gts[lane]], [cams[lane]], [labels[lane]])
        alone = lane_losses(theta[lane][None], one)
        assert alone[0][0] == loss[lane] and np.array_equal(alone[1][0], grad[lane])

        pred = geo_to_lane(theta[lane])
        g3 = labels[lane][::-1]
        per = perspective_losses(pred, cams[lane], gts[lane])
        z = np.linspace(pred.z_min, pred.z_max, 72)
        l_bev, g_bev = bev_iou_loss(pred, np.interp(z, g3[:, 2], g3[:, 0]))
        l_h, g_h = height_loss(pred, np.interp(pred.profile.keypoint_z(), g3[:, 2], g3[:, 1]))
        (l_z,), (g_z,) = _span_term(np.array([[pred.z_min, pred.z_max]]), g3[None, [0, -1], 2])
        assert np.array_equal(terms[lane], [per.l_per, per.l_v, l_bev, l_h, l_z])
        assert loss[lane] == (l_bev + l_h + l_z) + (per.l_per + per.l_v)
        want = per.grad_per + per.grad_v
        want[:4] += g_bev
        want[4:-2] += g_h
        want[-2:] += g_z
        assert np.array_equal(grad[lane], want)


def test_fd_rejects_nothing_systematically(rng, k, image):
    # the sampler should find configurations quickly; a starved sampler
    # would silently weaken the perspective checks
    for _ in range(5):
        draw_perspective_pair(rng, k, image, max_tries=60)
