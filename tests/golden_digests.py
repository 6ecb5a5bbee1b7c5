"""The pipeline's artifacts as sha256 digests, and the script that pins them.

Runs the CLI on acceptance criterion 2's MIXED_SPEC (25 frames per
scene) at each seed of SEEDS: generate, fit and eval in the 3d, 2d and
baseline modes, anchors -k 8 and render --frame 4 of the 3d
predictions in each view. Each file written and each stage's stdout is
hashed; in the stdout the run's directory reads <dir>, so the digests
do not depend on where the run happened. test_golden.py compares a
fresh run with tests/golden/manifest.json. After a change that moves
artifacts on purpose, rewrite the manifest with

    PYTHONPATH=src python tests/golden_digests.py

and say which digests moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from bevlane.cli import main
from test_acceptance import MIXED_SPEC

MANIFEST = Path(__file__).resolve().parent / "golden" / "manifest.json"
SEEDS = (1, 2, 9001)
FRAMES_PER_SCENE = 25
MODES = ("3d", "2d", "baseline")


def environment() -> dict:
    """What the digests may depend on besides the code: LAPACK's least
    squares and float formatting come with numpy and the platform."""
    return {
        "numpy": np.__version__,
        "platform": f"{sys.platform}-{platform.machine()}",
        "python": platform.python_version(),
    }


def _stages(seed: int) -> list[tuple[str, list[str]]]:
    """(name, argv) of each stage, in pipeline order, with file names relative to the run."""
    stages = [
        ("generate", ["generate", "--spec", "spec.json", "--frames", str(FRAMES_PER_SCENE),
                      "--seed", str(seed), "--out", "dataset.jsonl"]),
    ]
    for mode in MODES:
        stages.append((f"fit-{mode}", ["fit", "--dataset", "dataset.jsonl", "--mode", mode,
                                       "--out", f"preds-{mode}.jsonl"]))
        stages.append((f"eval-{mode}", ["eval", "--dataset", "dataset.jsonl",
                                        "--pred", f"preds-{mode}.jsonl",
                                        "--out", f"report-{mode}.json"]))
    stages.append(("anchors", ["anchors", "--dataset", "dataset.jsonl", "-k", "8",
                               "--out", "anchors.json"]))
    for view, name, out in (("perspective", "render", "frame.svg"),
                            ("bev", "render-bev", "frame-bev.svg"),
                            ("profile", "render-profile", "frame-profile.svg")):
        stages.append((name, ["render", "--dataset", "dataset.jsonl", "--pred", "preds-3d.jsonl",
                              "--frame", "4", "--view", view, "--out", out]))
    return stages


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pipeline_digests(seed: int, workdir: Path) -> dict[str, str]:
    """Run every stage at seed in workdir; the digest of each file and stdout, by name."""
    workdir = Path(workdir)
    (workdir / "spec.json").write_text(json.dumps(MIXED_SPEC))
    root = str(workdir)
    digests = {}
    for name, argv in _stages(seed):
        argv = [str(workdir / a) if a.endswith((".json", ".jsonl", ".svg")) else a for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"seed {seed}: stage {name} exited {code}")
        digests[f"stdout:{name}"] = _sha256(out.getvalue().replace(root, "<dir>").encode())
    for path in sorted(workdir.iterdir()):
        if path.name != "spec.json":
            digests[path.name] = _sha256(path.read_bytes())
    return dict(sorted(digests.items()))


def write_manifest() -> None:
    seeds = {}
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as workdir:
            seeds[str(seed)] = pipeline_digests(seed, Path(workdir))
    manifest = {**environment(), "seeds": seeds}
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")


if __name__ == "__main__":
    write_manifest()
    print(f"wrote {MANIFEST}")
