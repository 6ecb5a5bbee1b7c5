"""In-memory spans around the calls into bevlane's public functions.

The tracer wraps functions from outside the package: each target is
replaced in every loaded ``bevlane`` module that binds it, because
``from module import name`` copies the binding (``fitting`` holds its own
``perspective_losses``, ``metrics`` its own ``first_crossings`` and
``sample_lane``, ``cli`` its own ``match_lanes``, ``resample_lane`` and
``project_lane``). Patching only the defining module would miss those
calls.

A span is (name, start, end, parent index). Spans stay in a list until
``write`` dumps them as JSON lines; self time is derived from them as a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import types
from collections import Counter, defaultdict
from functools import partial

# Functions timed with a span on every call, by module.
TIMED = {
    "io_formats": ("read_dataset", "write_dataset", "read_predictions", "write_predictions"),
    "datagen": ("generate_dataset",),
    "fitting": (
        "fit_lane_3d",
        "fit_lane_2d",
        "ipm_init",
        "fit_perspective_baseline",
        "fit_bev_polynomial",
        "fit_heights_direct",
    ),
    "losses": ("perspective_losses", "project_with_jacobian", "bev_iou_loss", "height_loss"),
    "assignment": ("first_crossings", "resample_lane", "hungarian_assign", "match_lanes"),
    "camera": ("project_lane",),
    "geometry": ("sample_lane",),
    "metrics": (
        "rasterize_lane",
        "mask_iou",
        "f1_counts",
        "tusimple_accuracy",
        "cd_error_per_pair",
        "point_polyline_distances",
    ),
    "anchors": ("build_descriptor", "cluster_anchors", "anchor_recall"),
    "render": ("render_svg",),
}

# Hot leaves that are only counted: ipm_init calls invert_to_ground once
# per label point (about 72k calls on the 100-frame set), so a timing
# wrapper there would cost more than the work it measures.
COUNTED = {"camera": ("invert_to_ground",)}


def _lane_key(curve, profile) -> tuple:
    return (curve.a, curve.b, curve.c, curve.d, *profile.heights, profile.z_min, profile.z_max)


class Tracer:
    """Span recorder plus the fit outcomes and work counts read at the same calls."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls = Counter()
        self.work = Counter()
        # (mode, iterations, converged, returned lane differs from its start)
        self.fits: list[tuple[str, int, bool, bool]] = []
        self._open: list[tuple[int, str]] = []
        self._children_returns: dict[int, dict[str, object]] = defaultdict(dict)

    def _enter(self, name: str) -> tuple[int, int]:
        idx = len(self.spans)
        parent = self._open[-1][0] if self._open else -1
        self.spans.append(None)
        self._open.append((idx, name))
        return idx, parent

    def _exit(self, idx: int, name: str, start: float, parent: int) -> None:
        self._open.pop()
        self.spans[idx] = (name, start, time.perf_counter(), parent)

    def stage(self, name: str, fn, *args):
        """Run fn(*args) as a span called name."""
        return self._timed(name, fn, None)(*args)

    def _timed(self, name: str, fn, observe):
        def wrapper(*args, **kwargs):
            idx, parent = self._enter(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx, name, start, parent)
            if observe is not None:
                observe(idx, parent, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # Observers read arguments and results; they run after the span closes.

    def _keep_return(self, idx, parent, args, kwargs, result, *, name):
        if self._open and self._open[-1][1] == "fitting.fit_lane_3d":
            self._children_returns[parent][name] = result

    def _fit_3d(self, idx, parent, args, kwargs, result):
        captured = self._children_returns.pop(idx, {})
        init = kwargs.get("init")
        if init is not None:
            start = _lane_key(init.curve, init.profile)
        else:
            poly = captured["fitting.fit_bev_polynomial"]
            start = _lane_key(poly.to_curve(), captured["fitting.fit_heights_direct"])
        self._record_fit("3d", result, start)

    def _fit_2d(self, idx, parent, args, kwargs, result):
        init = args[2] if len(args) > 2 else kwargs["init"]
        self._record_fit("2d", result, _lane_key(init.curve, init.profile))

    def _record_fit(self, mode, report, start):
        moved = _lane_key(report.lane.curve, report.lane.profile) != start
        self.fits.append((mode, int(report.iterations), bool(report.converged), moved))

    def _raster(self, idx, parent, args, kwargs, result):
        self.work["raster_mask_bytes"] += int(result.nbytes)

    def _f1(self, idx, parent, args, kwargs, result):
        self.work["iou_pairs"] += len(args[0]) * len(args[1])

    def _cd_pairs(self, idx, parent, args, kwargs, result):
        points, polyline = args[0], args[1]
        self.work["cd_point_segment_pairs"] += len(points) * (len(polyline) - 1)

    def install(self) -> None:
        """Replace every target in every loaded bevlane module that binds it."""
        observers = {
            "fitting.fit_bev_polynomial": partial(
                self._keep_return, name="fitting.fit_bev_polynomial"
            ),
            "fitting.fit_heights_direct": partial(
                self._keep_return, name="fitting.fit_heights_direct"
            ),
            "fitting.fit_lane_3d": self._fit_3d,
            "fitting.fit_lane_2d": self._fit_2d,
            "metrics.rasterize_lane": self._raster,
            "metrics.f1_counts": self._f1,
            "metrics.point_polyline_distances": self._cd_pairs,
        }
        modules = [m for n, m in sys.modules.items() if n == "bevlane" or n.startswith("bevlane.")]
        wrappers = {}
        for module, names in TIMED.items():
            for fname in names:
                name = f"{module}.{fname}"
                orig = getattr(sys.modules[f"bevlane.{module}"], fname)
                wrappers[orig] = self._timed(name, orig, observers.get(name))
        for module, names in COUNTED.items():
            for fname in names:
                orig = getattr(sys.modules[f"bevlane.{module}"], fname)
                wrappers[orig] = self._counted(f"{module}.{fname}", orig)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(mod, attr, wrappers[value])

    def write(self, path: str) -> None:
        """Dump the spans as JSON lines: name, start, end, parent, run."""
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent in self.spans:
                f.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "run": self.run_id}
                    )
                    + "\n"
                )

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, and duration percentiles."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        durations = defaultdict(list)
        self_time = Counter()
        for idx, (name, start, end, parent) in enumerate(self.spans):
            durations[name].append(end - start)
            self_time[name] += (end - start) - child_time[idx]
        out = {}
        for name, durs in durations.items():
            out[name] = {
                "calls": len(durs),
                "s": sum(durs),
                "self_s": self_time[name],
                "p50_ms": 1e3 * _percentile(durs, 50),
                "p90_ms": 1e3 * _percentile(durs, 90),
                "p95_ms": 1e3 * _percentile(durs, 95),
            }
        for name, n in self.calls.items():
            out[name] = {"calls": n}
        return out


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
