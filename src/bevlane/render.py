"""Deterministic SVG rendering of frames and predictions.

Three views: the image plane (perspective), the top-down x-z plane
(bev), and the side y-z plane (profile). Output is a plain SVG string
with fixed float formatting, so identical inputs produce identical
bytes. Predicted 3D lanes are sampled and projected by eval's checked
sampler, metrics.sample_predictions, so every view refuses what eval
refuses.
"""

from __future__ import annotations

import numpy as np

from .camera import Lane2D
from .datagen import FrameRecord
from .errors import ValidationError
from .geometry import DEFAULT_SAMPLE_COUNT, Lane3D
from .metrics import sample_predictions

VIEWS = ("perspective", "bev", "profile")

_GT_STYLE = "fill:none;stroke:#1a9850;stroke-width:2"
_PRED_STYLE = "fill:none;stroke:#d73027;stroke-width:1.2;stroke-dasharray:6 3"
_FRAME_STYLE = "fill:#fafafa;stroke:#444;stroke-width:1"
_AXIS_STYLE = "stroke:#bbb;stroke-width:0.5"


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _polyline(points: np.ndarray, style: str) -> str:
    coords = " ".join(f"{_fmt(u)},{_fmt(v)}" for u, v in points)
    return f'<polyline style="{style}" points="{coords}"/>'


def _pred_points(frame, preds, sample_count):
    """The 3D samples of the predicted Lane3Ds, and the 2D points of every
    predicted lane in order: a Lane3D's projection or a Lane2D's own."""
    preds = list(preds or [])
    for lane in preds:
        if not isinstance(lane, (Lane3D, Lane2D)):
            raise ValidationError(f"cannot render prediction of type {type(lane).__name__}")
    lanes3d = [lane for lane in preds if isinstance(lane, Lane3D)]
    (samples,), (projected,) = sample_predictions([frame], [lanes3d], sample_count)
    projected = iter(projected)
    return samples, [(next(projected) if isinstance(lane, Lane3D) else lane).points
                     for lane in preds]


def _svg(width: float, height: float, body: list[str], label: str) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    return "\n".join([head, f"<desc>{label}</desc>", *body, "</svg>"]) + "\n"


def _planar_view(frame, samples, axes):
    """Shared scaffolding for the bev and profile views, given the predicted samples.

    axes maps 3D points to (horizontal, vertical) data coordinates; the
    vertical axis is drawn increasing upward for bev (far away = top)
    and downward for profile (depth below camera grows downward).
    """
    h_idx, v_idx, flip_v, canvas_w, canvas_h = axes
    groups = [np.asarray(pts) for pts in frame.lanes3d] + list(samples)
    if not groups:
        raise ValidationError("nothing to render")
    allpts = np.vstack(groups)
    h_lo, h_hi = float(allpts[:, h_idx].min()), float(allpts[:, h_idx].max())
    v_lo, v_hi = float(allpts[:, v_idx].min()), float(allpts[:, v_idx].max())
    h_pad = max(0.5, 0.05 * (h_hi - h_lo))
    v_pad = max(0.5, 0.05 * (v_hi - v_lo))
    h_lo, h_hi = h_lo - h_pad, h_hi + h_pad
    v_lo, v_hi = v_lo - v_pad, v_hi + v_pad
    margin = 20.0
    sx = (canvas_w - 2 * margin) / (h_hi - h_lo)
    sy = (canvas_h - 2 * margin) / (v_hi - v_lo)

    def to_canvas(pts):
        x = margin + (pts[:, h_idx] - h_lo) * sx
        if flip_v:
            y = canvas_h - margin - (pts[:, v_idx] - v_lo) * sy
        else:
            y = margin + (pts[:, v_idx] - v_lo) * sy
        return np.column_stack([x, y])

    body = [f'<rect x="0" y="0" width="{_fmt(canvas_w)}" height="{_fmt(canvas_h)}" style="{_FRAME_STYLE}"/>']
    body += [
        f'<line x1="{_fmt(margin)}" y1="{_fmt(margin)}" x2="{_fmt(margin)}" '
        f'y2="{_fmt(canvas_h - margin)}" style="{_AXIS_STYLE}"/>',
        f'<line x1="{_fmt(margin)}" y1="{_fmt(canvas_h - margin)}" '
        f'x2="{_fmt(canvas_w - margin)}" y2="{_fmt(canvas_h - margin)}" style="{_AXIS_STYLE}"/>',
    ]
    for pts in frame.lanes3d:
        body.append(_polyline(to_canvas(np.asarray(pts)), _GT_STYLE))
    for pts in samples:
        body.append(_polyline(to_canvas(pts), _PRED_STYLE))
    return body, canvas_w, canvas_h


def render_svg(
    frame: FrameRecord,
    preds=None,
    view: str = "perspective",
    sample_count: int = DEFAULT_SAMPLE_COUNT,
) -> str:
    """Render one frame (and optional predicted lanes) to an SVG string.

    preds may hold Lane3D (projected or sampled as the view needs) or,
    for the perspective view, Lane2D polylines. A Lane3D that eval would
    refuse raises as there.
    """
    if view not in VIEWS:
        raise ValidationError(f"view must be one of {VIEWS}, got {view!r}")
    label = f"frame {frame.frame_id} {frame.tag} ({view})".strip()
    samples, points2d = _pred_points(frame, preds, sample_count)

    if view == "perspective":
        w, h = float(frame.image.width), float(frame.image.height)
        body = [f'<rect x="0" y="0" width="{_fmt(w)}" height="{_fmt(h)}" style="{_FRAME_STYLE}"/>']
        for lane in frame.lanes2d:
            body.append(_polyline(lane.points, _GT_STYLE))
        for pts in points2d:
            body.append(_polyline(pts, _PRED_STYLE))
        return _svg(w, h, body, label)

    if view == "bev":
        body, w, h = _planar_view(frame, samples, (0, 2, True, 400.0, 600.0))
    else:
        body, w, h = _planar_view(frame, samples, (2, 1, False, 600.0, 200.0))
    return _svg(w, h, body, label)
