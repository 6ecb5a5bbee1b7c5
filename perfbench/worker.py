"""One repetition of a benchmark workload, in a fresh process.

    PYTHONPATH=src python3 perfbench/worker.py --workload mixed-3d --seed 1 --workdir DIR \
        [--cpu N] [--trace]

Imports bevlane, writes the scene spec into DIR and prints ``ready``;
run.py times process start to that line as set-up. Then it calls
``bevlane.cli.main`` once per stage, with the stage's stdout kept in
DIR/<stage>.log, and prints one JSON line: per-stage exit code and wall
seconds, three timings of reference_seconds() before each stage and
after the last, peak RSS, the library versions, and with --trace the
span summary, fit outcomes and computed work counts. --stages A,B runs
just those stages, in pipeline order.

This module's top level imports only the standard library, so run.py can
read WORKLOADS without importing numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
import time
import traceback

# Acceptance criterion 2's mixed-ground recipe: flat, slope, bump and rough
# scenes with jitter, 25 frames each, so 100 frames and 400 lanes.
MIXED_SPEC = {
    "scenes": [
        {"preset": "flat"},
        {"preset": "slope"},
        {"preset": "bump"},
        {"preset": "rough", "seed": 3},
    ],
    "jitter": {
        "curve_delta": [0.0, 0.0005, 0.02, 0.5],
        "amplitude_delta": 0.05,
        "grade_delta": 0.01,
        "wavelength_delta": 3.0,
    },
}
FRAMES_PER_SCENE = 25
ANCHOR_K = 8
RENDER_FRAME = 4

STAGE_NAMES = ("generate", "fit", "eval", "anchors", "render")
# Workload name -> fit mode. Only mixed-3d adds the anchors and render stages.
WORKLOADS = {"mixed-3d": "3d", "mixed-2d": "2d", "mixed-baseline": "baseline"}

ARTIFACTS = {
    "dataset": "dataset.jsonl",
    "predictions": "preds.jsonl",
    "report": "report.json",
    "anchors": "anchors.json",
    "render": "frame.svg",
}


def stages(workload: str, seed: int, workdir: str) -> list[tuple[str, list[str]]]:
    """The CLI argument lists of one pipeline, in order."""
    path = {key: os.path.join(workdir, name) for key, name in ARTIFACTS.items()}
    mode = WORKLOADS[workload]
    out = [
        (
            "generate",
            ["generate", "--spec", os.path.join(workdir, "spec.json"),
             "--frames", str(FRAMES_PER_SCENE), "--seed", str(seed % 2**32),
             "--out", path["dataset"]],
        ),
        ("fit", ["fit", "--dataset", path["dataset"], "--mode", mode, "--out", path["predictions"]]),
        (
            "eval",
            ["eval", "--dataset", path["dataset"], "--pred", path["predictions"],
             "--out", path["report"]],
        ),
    ]
    if mode == "3d":
        out.append(
            ("anchors", ["anchors", "--dataset", path["dataset"], "-k", str(ANCHOR_K),
                         "--out", path["anchors"]])
        )
        out.append(
            (
                "render",
                ["render", "--dataset", path["dataset"], "--pred", path["predictions"],
                 "--frame", str(RENDER_FRAME), "--view", "perspective", "--out", path["render"]],
            )
        )
    return out


def artifact_keys(workload: str) -> list[str]:
    """The files one pipeline of this workload leaves, as keys of ARTIFACTS."""
    keys = ["dataset", "predictions", "report"]
    if WORKLOADS[workload] == "3d":
        keys += ["anchors", "render"]
    return keys


def reference_seconds() -> float:
    """Wall seconds of a fixed mix of Python and numpy work: the host-speed yardstick.

    Python dict and float work (as in JSON handling and per-lane loops),
    many calls on 72-sample arrays (as in fitting) and row writes into a
    frame-sized mask (as in rasterization); 14 to 60 ms on a 2-vCPU
    virtual machine, with a median of 27.5 ms, as other tenants let it
    run. run.py divides each stage's time by the host factor around it:
    the mean of the median timings just before and just after the stage,
    over run.REFERENCE_S.
    """
    import numpy as np

    start = time.perf_counter()
    table = {}
    acc = 0.0
    for i in range(30000):
        key = i % 97
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += table[key]
    x = np.linspace(0.0, 1.0, 72)
    for k in range(1200):
        y = ((0.1 * x - 0.2) * x + 0.3) * x + k
        acc += float(np.sqrt((y * y).sum()))
    mask = np.zeros((360, 640), dtype=np.uint8)
    for r in range(0, 360 * 8, 2):
        mask[r % 360, 100:540] += 1
    acc += int(mask.sum())
    return time.perf_counter() - start


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": nproc,
        "cpu": sorted(os.sched_getaffinity(0)),
    }


def _call(cli, tracer, name: str, cli_args: list[str]) -> tuple[int, float]:
    """One stage call through cli.main: (exit code, wall seconds)."""
    start = time.perf_counter()
    try:
        if tracer is None:
            code = cli.main(cli_args)
        else:
            code = tracer.stage(f"cli.{name}", cli.main, cli_args)
    except Exception:  # a crash is a failed stage, reported like a bad exit
        traceback.print_exc()
        code = -1
    return code, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--run-id", default="run")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpu", type=int, help="pin this process to one CPU before importing")
    parser.add_argument("--stages", type=lambda text: text.split(","), default=list(STAGE_NAMES))
    args = parser.parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    from bevlane import cli

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(args.run_id)
        tracer.install()
    with open(os.path.join(args.workdir, "spec.json"), "w", encoding="utf-8") as f:
        json.dump(MIXED_SPEC, f)
    print("ready", flush=True)

    results = []
    references = []
    for name, cli_args in stages(args.workload, args.seed, args.workdir):
        if name not in args.stages:
            continue
        references.append([reference_seconds() for _ in range(3)])
        with open(os.path.join(args.workdir, f"{name}.log"), "w", encoding="utf-8") as log:
            with contextlib.redirect_stdout(log):
                code, seconds = _call(cli, tracer, name, cli_args)
        results.append({"stage": name, "exit": code, "s": seconds})
        if code != 0:
            break

    references.append([reference_seconds() for _ in range(3)])
    out = {
        "stages": results,
        "reference_s": references,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(nproc),
    }
    if tracer is not None:
        tracer.write(os.path.join(args.workdir, "spans.jsonl"))
        out["spans"] = tracer.summary()
        out["fits"] = tracer.fits
        out["work"] = dict(tracer.work)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
