"""Every pipeline artifact matches its pinned digest in tests/golden/manifest.json.

A mismatch names the seed and the artifact, with the numpy version and
platform of this run and of the manifest: the least squares and float
formatting behind the bytes may differ on another numpy build, so a
mismatch there is reported, not skipped. golden_digests.py says how to
rewrite the manifest after a change that moves artifacts on purpose.
"""

import json

from golden_digests import MANIFEST, SEEDS, environment, pipeline_digests


def test_artifacts_match_the_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    assert sorted(manifest["seeds"]) == sorted(str(seed) for seed in SEEDS)
    mismatches = []
    for seed in SEEDS:
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        got = pipeline_digests(seed, workdir)
        want = manifest["seeds"][str(seed)]
        for name in sorted(set(got) | set(want)):
            if got.get(name) != want.get(name):
                mismatches.append(
                    f"seed {seed}: {name}: this run {got.get(name)}, manifest {want.get(name)}"
                )
    here = environment()
    pinned = {key: manifest[key] for key in here}
    assert not mismatches, (
        f"{len(mismatches)} digests differ from {MANIFEST.name} "
        f"(this run {here}, manifest {pinned}):\n" + "\n".join(mismatches)
    )
