"""The benchmark's traced path runs on the package as it is.

perfbench/spans.py wraps bevlane's public functions and reads the first
two positional arguments of metrics.f1_counts and
metrics.point_polyline_distances, so a changed signature or a stage that
stops calling them would only surface in a traced benchmark run. This
runs that path in a subprocess, with spans.py imported from perfbench/
through PYTHONPATH and no bytecode written next to it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
from spans import Tracer
from bevlane import cli

workdir = sys.argv[1]
tracer = Tracer("smoke")
tracer.install()
spec = {"scenes": [{"preset": p} for p in ("flat", "slope", "bump", "rough")]}
with open(f"{workdir}/spec.json", "w") as f:
    json.dump(spec, f)
stages = [
    ["generate", "--spec", f"{workdir}/spec.json", "--frames", "1", "--out", f"{workdir}/d.jsonl"],
    ["fit", "--dataset", f"{workdir}/d.jsonl", "--mode", "3d", "--out", f"{workdir}/p.jsonl"],
    ["eval", "--dataset", f"{workdir}/d.jsonl", "--pred", f"{workdir}/p.jsonl",
     "--out", f"{workdir}/r.json"],
]
codes = [tracer.stage("cli." + argv[0], cli.main, argv) for argv in stages]
summary = tracer.summary()
print(json.dumps({"codes": codes, "calls": {k: v["calls"] for k, v in summary.items()},
                  "work": dict(tracer.work)}))
"""


def test_traced_generate_fit_eval_records_metric_spans(tmp_path):
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]),
    }
    out = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    calls = result["calls"]
    assert calls["metrics.f1_counts"] == 4  # one per frame
    assert calls["metrics.point_polyline_distances"] > 0
    assert result["work"]["iou_pairs"] == 4 * 4 * 4
    assert result["work"]["cd_point_segment_pairs"] > 0
