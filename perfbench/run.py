"""bevlane pipeline benchmark: generate -> fit -> eval (-> anchors -> render).

    python3 perfbench/run.py --workload mixed-3d --seed 1 --seconds 45 --trace 0

Run from the repository root. Each repetition is a fresh worker process
(perfbench/worker.py) that imports bevlane from src/ and calls
``bevlane.cli.main`` once per stage on the 100-frame mixed-ground dataset
generated from --seed. Each of two CPUs runs workers back to back, pinned
to it with OpenBLAS at one thread and writing to its own directory: full
pipelines until another would end after --seconds (at least two per CPU),
the second CPU starting 0.2 x --seconds late and running generate-only
workers until then. Set-up is timed from process start to the worker's
``ready`` line over every worker (at least ten).

Other tenants change the host's speed by up to 1.6 times within minutes,
so every end-to-end timing is divided by the host factor around it: each
worker times a fixed piece of reference work (worker.reference_seconds)
three times before each stage and after the last, and the factor for a
stage is the mean of the median timings just before and after it, over
REFERENCE_S. A stage's time is the median of its scaled times over the
workers that ran it.

Every repetition is checked: each stage exits 0, the predictions hold one
lane per dataset lane (any other count is a failed operation), the report
agrees with the files, and the dataset, predictions, report, anchors and
SVG hash the same in every repetition and in every earlier run of the
same workload, seed and source tree (recorded under .bench_out/).

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
starts both CPUs at once, traces every second full pipeline, taking the
CPUs in turn, and reports the per-layer metrics (not scaled). Every
metric is printed by name with its unit and better direction; the last
line of stdout is the JSON result. The full record, with library
versions and dataset sizes, goes to
.bench_out/results/<workload>-seed<seed>-trace<t>.json, and a traced
repetition's spans to .bench_out/<workload>/seed-<seed>/spans.jsonl.

Seeds 1 to 10 were used while this benchmark was written; seed 9001 is
held out for checking a performance claim on unseen inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import spans
import worker

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
HELD_OUT_SEED = 9001
# Each of two CPUs runs full pipelines back to back, at least MIN_FULL, the
# second starting STAGGER x --seconds later (running generate-only workers
# until then), so that a stage's repetitions start at four different times.
CPUS = sorted(os.sched_getaffinity(0))[:2]
MIN_FULL = 2
STAGGER = 0.2
# No full pipeline starts that would end after MAX_RUN x --seconds, so that
# on a slower host the runs still end in about the time they are given.
MAX_RUN = 1.5
# The median of 378 timings of worker.reference_seconds() (each the median
# of three) on the 2-vCPU virtual machine the benchmark was written on.
# End-to-end timings are scaled to the host running it this fast.
REFERENCE_S = 0.0275
# Set-up and generate get at least this many samples.
MIN_SAMPLES = 10
SHORT_STAGES = ["generate"]
# Every run must end within 180 s; stop starting work well before that.
DEADLINE_S = 160.0
# Counts derived from array sizes and call arguments, not timed.
COMPUTED = {"metrics.raster_mask_bytes", "metrics.iou_pairs", "metrics.cd_point_segment_pairs"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def median(values):
    return statistics.median(values) if values else 0.0


def spawn_worker(args, workdir: Path, cpu: int, *, traced=False, stages=None, run_id="",
                 timeout=60.0):
    """Run one worker on one CPU; return (setup seconds, its JSON output or None, exit code)."""
    cmd = [
        sys.executable, str(Path(__file__).with_name("worker.py")),
        "--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir),
        "--run-id", run_id, "--cpu", str(cpu),
    ]
    if traced:
        cmd.append("--trace")
    if stages is not None:
        cmd += ["--stages", ",".join(stages)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=str(ROOT))
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()
    if ready.strip() != "ready":
        return None, None, proc.returncode
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines and proc.returncode == 0 else None
    return setup, result, proc.returncode


def launch(args, cpu: int, slot_dir: Path, started: float, *, stages=None, traced=False,
           run_id="") -> dict:
    """One worker, then the hashes of the artifacts it wrote if every stage exited 0.

    stages=None runs the full pipeline. The hashes are taken before the
    slot's next worker can rewrite the files.
    """
    begun = time.perf_counter()
    setup, out, code = spawn_worker(
        args, slot_dir, cpu, traced=traced, stages=stages, run_id=run_id,
        timeout=max(DEADLINE_S - (begun - started), 1.0),
    )
    if out is None:
        raise BenchError(f"worker on CPU {cpu} exited {code} without a result")
    rec = {"full": stages is None, "traced": traced, "cpu": cpu, "setup": setup, "out": out,
           "s": time.perf_counter() - begun}
    if all(s["exit"] == 0 for s in out["stages"]):
        keys = worker.artifact_keys(args.workload) if stages is None else ["dataset"]
        rec["hashes"] = {key: sha256(slot_dir / worker.ARTIFACTS[key]) for key in keys}
    return rec


def run_slot(args, index: int, cpu: int, slot_dir: Path, started: float) -> list[dict]:
    """The workers one CPU runs back to back in a run, as launch() records.

    CPU number `index` starts its first full pipeline index x STAGGER x
    --seconds late and runs generate-only workers until then, and again
    after its full pipelines until the last CPU's share of --seconds is
    over (none with --trace). With --trace, every second full pipeline is
    traced, taking the CPUs in turn.
    """
    offset = 0.0 if args.trace else index * STAGGER * args.seconds
    end = 0.0 if args.trace else (len(CPUS) - 1) * STAGGER * args.seconds + args.seconds
    records = []

    def go(**kwargs) -> bool:
        run_id = f"{args.workload}:{args.seed}:cpu{cpu}:{len(records)}"
        records.append(launch(args, cpu, slot_dir, started, run_id=run_id, **kwargs))
        return "hashes" in records[-1]

    while time.perf_counter() - started < offset:
        if not go(stages=SHORT_STAGES):
            return records
    full = 0
    while True:
        if not go(traced=bool(args.trace) and (full + index) % 2 == 1):
            return records
        full += 1
        ends = time.perf_counter() - started + records[-1]["s"]
        if (full >= MIN_FULL and ends > offset + args.seconds) or (
            ends > min(MAX_RUN * args.seconds, DEADLINE_S - 20)
        ):
            break
    while time.perf_counter() - started < end:
        if not go(stages=SHORT_STAGES):
            break
    return records


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def source_fingerprint() -> str:
    """Hash of the package and benchmark sources: artifacts must repeat per fingerprint."""
    h = hashlib.sha256()
    for base in (ROOT / "src", Path(__file__).parent):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_history(key: str, hashes: dict) -> bool:
    """Compare artifact hashes with earlier runs of the same key; record them if new."""
    path = OUT / "hashes.json"
    history = json.loads(path.read_text()) if path.exists() else {}
    runs = history.setdefault(source_fingerprint(), {})
    if key in runs:
        return runs[key] == hashes
    runs[key] = hashes
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(history, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return True


def read_facts(workload: str, workdir: Path) -> dict:
    """Counts and quality read from one repetition's files."""
    paths = {key: workdir / name for key, name in worker.ARTIFACTS.items()}
    gt_lanes = {}
    with open(paths["dataset"], encoding="utf-8") as f:
        next(f)
        for line in f:
            rec = json.loads(line)
            gt_lanes[rec["frame_id"]] = len(rec["lanes2d"])
    lane_key = "lanes2d" if worker.WORKLOADS[workload] == "baseline" else "lanes3d"
    pred_lanes = {}
    with open(paths["predictions"], encoding="utf-8") as f:
        next(f)
        for line in f:
            rec = json.loads(line)
            pred_lanes[rec["frame_id"]] = len(rec[lane_key])
    mismatched = sum(abs(n - pred_lanes.get(fid, 0)) for fid, n in gt_lanes.items())
    mismatched += sum(n for fid, n in pred_lanes.items() if fid not in gt_lanes)
    report = json.loads(paths["report"].read_text())
    facts = {
        "frames": len(gt_lanes),
        "lanes": sum(gt_lanes.values()),
        "pred_lanes": sum(pred_lanes.values()),
        "dataset_bytes": paths["dataset"].stat().st_size,
        "lanes_mismatched": mismatched,
        "mf1": float(report["mf1"]),
        "row_anchor_acc": float(report["tusimple"]["accuracy"]),
        "cd_error_m": float(report["cd_error"] or 0.0),
        "anchor_recall": 0.0,
    }
    consistent = (
        report["frames"] == facts["frames"]
        and report["gt_lanes"] == facts["lanes"]
        and report["pred_lanes"] == facts["pred_lanes"]
        and 0.0 <= facts["mf1"] <= 1.0
        and 0.0 <= facts["row_anchor_acc"] <= 1.0
    )
    if "anchors" in worker.artifact_keys(workload):
        found = re.search(r"recall@\S+ ([0-9.]+)", (workdir / "anchors.log").read_text())
        consistent = consistent and found is not None
        facts["anchor_recall"] = float(found.group(1)) if found else 0.0
    facts["report_consistent"] = consistent
    return facts


def stage_samples(workers: list[dict], name: str) -> list[float]:
    return [s["s"] for out in workers for s in out["stages"] if s["stage"] == name]


def host_factor(brackets: list[list[float]], i: int) -> float:
    """How much slower than REFERENCE_S the host ran the reference work around stage i.

    brackets[i] and brackets[i + 1] are the worker's timings of
    worker.reference_seconds() just before and just after stage i.
    """
    return (statistics.median(brackets[i]) + statistics.median(brackets[i + 1])) / 2 / REFERENCE_S


def stage_seconds(workers: list[dict], name: str) -> float:
    """Median over workers of a stage's wall time divided by the host factor around it."""
    return median([
        s["s"] / host_factor(out["reference_s"], i)
        for out in workers for i, s in enumerate(out["stages"]) if s["stage"] == name
    ])


def end_to_end(untraced: list[dict], extra: list[dict], facts: dict) -> dict:
    """The end-to-end metrics; every timing is scaled by the host factor around it."""
    workers = untraced + extra
    seconds = {s["stage"]: stage_seconds(workers, s["stage"]) for s in untraced[0]["stages"]}
    return {
        # Set-up ends just before the first reference timing.
        "setup_s": median([
            out["setup_s"] * REFERENCE_S / statistics.median(out["reference_s"][0])
            for out in workers
        ]),
        "pipeline_s": sum(seconds.values()),
        "generate_frames_per_s": facts["frames"] / seconds["generate"],
        "fit_lanes_per_s": facts["lanes"] / seconds["fit"],
        "eval_frames_per_s": facts["frames"] / seconds["eval"],
        "peak_rss_mb": median([rep["peak_rss_mb"] for rep in untraced]),
        "mf1": facts["mf1"],
        "row_anchor_acc": facts["row_anchor_acc"],
    }


def per_layer(traced: list[dict], untraced: list[dict], facts: dict, failed_ratio: float) -> dict:
    """Per-layer metrics from the traced repetitions (median where there are several)."""

    def one(rep):
        summary = rep["spans"]
        out = {}
        for module, names in spans.TIMED.items():
            for fname in names:
                stats = summary.get(f"{module}.{fname}", {})
                for stat in ("s", "calls", "self_s", "p50_ms", "p90_ms", "p95_ms"):
                    out[f"{module}.{fname}.{stat}"] = stats.get(stat, 0)
        for module, names in spans.COUNTED.items():
            for fname in names:
                out[f"{module}.{fname}.calls"] = summary.get(f"{module}.{fname}", {}).get("calls", 0)
        for stage in worker.STAGE_NAMES:
            out[f"cli.{stage}.self_s"] = summary.get(f"cli.{stage}", {}).get("self_s", 0.0)
        fits = rep["fits"]
        n = len(fits)
        out["fitting.iterations_mean"] = sum(f[1] for f in fits) / n if n else 0.0
        out["fitting.converged_ratio"] = sum(f[2] for f in fits) / n if n else 0.0
        out["fitting.descent_useful_ratio"] = sum(f[3] for f in fits) / n if n else 0.0
        losses_calls = summary.get("losses.perspective_losses", {}).get("calls", 0)
        out["fitting.perspective_losses_per_lane"] = losses_calls / n if n else 0.0
        for name in ("raster_mask_bytes", "iou_pairs", "cd_point_segment_pairs"):
            out[f"metrics.{name}"] = rep["work"].get(name, 0)
        out["trace.pipeline_s"] = sum(s["s"] for s in rep["stages"])
        return out

    rows = [one(rep) for rep in traced]
    metrics = {key: median([row[key] for row in rows]) for key in rows[0]}
    untraced_pipeline = median([sum(s["s"] for s in rep["stages"]) for rep in untraced])
    anchors_s = stage_seconds(untraced, "anchors")
    metrics.update(
        {
            "io_formats.dataset_bytes": facts["dataset_bytes"],
            "trace.overhead_ratio": metrics.pop("trace.pipeline_s") / untraced_pipeline - 1.0,
            "anchors_lanes_per_s": facts["lanes"] / anchors_s if anchors_s else 0.0,
            "cd_error_m": facts["cd_error_m"],
            "anchor_recall": facts["anchor_recall"],
            "failed_ratio": failed_ratio,
        }
    )
    return metrics


def top_self_times(traced: list[dict], n: int = 5) -> list[tuple[str, float]]:
    summary = traced[0]["spans"]
    ranked = sorted(
        ((name, stats["self_s"]) for name, stats in summary.items() if "self_s" in stats),
        key=lambda item: -item[1],
    )
    return ranked[:n]


def run(args) -> tuple[dict, dict, list]:
    if not (ROOT / "src" / "bevlane" / "cli.py").is_file():
        raise BenchError(f"no bevlane sources under {ROOT / 'src'}")
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = OUT / args.workload / f"seed-{args.seed}"
    # One worker per CPU at a time, each pinned to its CPU and writing to
    # its own directory.
    slots = [(cpu, workdir / f"cpu{cpu}") for cpu in CPUS]
    for _, slot_dir in slots:
        slot_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    with ThreadPoolExecutor(len(slots)) as pool:
        futures = [
            pool.submit(run_slot, args, index, cpu, slot_dir, started)
            for index, (cpu, slot_dir) in enumerate(slots)
        ]
        records = [rec for f in futures for rec in f.result()]
    while not args.trace and all("hashes" in r for r in records) and len(records) < MIN_SAMPLES:
        cpu, slot_dir = slots[len(records) % len(slots)]
        records.append(launch(args, cpu, slot_dir, started, stages=SHORT_STAGES))

    full = [r for r in records if r["full"] and "hashes" in r]
    if not full:
        raise BenchError("no full pipeline completed")
    n_stages = len(worker.stages(args.workload, args.seed, str(workdir)))
    attempted = sum(n_stages if r["full"] else len(SHORT_STAGES) for r in records)
    failed = attempted - sum(s["exit"] == 0 for r in records for s in r["out"]["stages"])
    facts = read_facts(args.workload, workdir / f"cpu{full[0]['cpu']}")
    attempted += facts["lanes"] * len(full)
    failed += facts["lanes_mismatched"] * len(full)
    first_hashes = full[0]["hashes"]
    correct = (
        facts["report_consistent"]
        and check_history(f"{args.workload}:{args.seed}", first_hashes)
        and all(
            "hashes" in r and all(first_hashes[k] == h for k, h in r["hashes"].items())
            for r in records
        )
    )
    setups = [r["setup"] for r in records]
    reps = [dict(r["out"], traced=r["traced"], cpu=r["cpu"], setup_s=r["setup"]) for r in full]
    extra = [dict(r["out"], setup_s=r["setup"]) for r in records if not r["full"] and "hashes" in r]

    untraced = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    failed_ratio = failed / attempted
    if args.trace:
        if not traced:
            raise BenchError("no traced repetition completed")
        values = per_layer(traced, untraced, facts, failed_ratio)
        declared = manifest["per_layer"]
    else:
        values = end_to_end(untraced, extra, facts)
        declared = manifest["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "held_out_seed": HELD_OUT_SEED,
        "env": reps[0]["env"],
        "cpus": CPUS,
        "host_factor_median": median([
            host_factor(out["reference_s"], i) for out in untraced + extra
            for i in range(len(out["stages"]))
        ]),
        "dataset": {k: facts[k] for k in ("frames", "lanes", "dataset_bytes")},
        "repetitions": len(reps),
        "traced_repetitions": len(traced),
        "setup_samples_s": setups,
        "stage_s": [{s["stage"]: s["s"] for s in out["stages"]} for out in reps],
        "median_stage_s": {
            s["stage"]: median(stage_samples(untraced + extra, s["stage"])) for s in reps[0]["stages"]
        },
        "short_stage_s": [{s["stage"]: s["s"] for s in out["stages"]} for out in extra],
        "artifact_sha256": first_hashes,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed_ratio,
        "metrics": values,
    }
    if traced:
        record["top_self_s"] = top_self_times(traced)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    return record, result, declared


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(worker.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record, result, declared = run(args)
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    env = record["env"]
    print(
        f"workload {args.workload}  seed {args.seed}  repetitions {record['repetitions']}"
        f" (traced {record['traced_repetitions']})  held-out seed {HELD_OUT_SEED}"
    )
    print(
        f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  {env['blas']}"
        f"  blas threads {env['blas_threads']}  nproc {env['nproc']}"
    )
    ds = record["dataset"]
    print(f"dataset {ds['frames']} frames  {ds['lanes']} lanes  {ds['dataset_bytes']} bytes")
    print(f"host factor, median over stages {record['host_factor_median']:.4f}"
          " (each end-to-end timing is divided by the factor around it)")
    print(
        f"correct {record['correct']}  attempted {record['attempted']}  failed {record['failed']}"
        f"  failed_ratio {record['failed_ratio']:.6g}"
    )
    for m in declared:
        label = "  (computed)" if m["name"] in COMPUTED else ""
        print(f"{m['name']:42s} {record['metrics'][m['name']]:>16.10g} {m['unit']:6s} {m['better']}{label}")
    for name, seconds in record.get("top_self_s", []):
        print(f"self time  {name:40s} {seconds:10.4f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
