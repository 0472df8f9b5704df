#!/usr/bin/env python3
"""End-to-end solve benchmark.

Builds the solver libraries and the driver from source (Release) into
.bench_build/perfbench, runs one workload, checks every optimum against its
reference, and prints the metrics. Run from the repository root:

    python3 perfbench/run.py --workload stp-seq --seed 1 --seconds 10 --trace 0

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are a readable report. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones of a traced pass. See perfbench/README.md for the workloads.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import perfmetrics  # noqa: E402

WORKLOADS = ("stp-seq", "stp-ug-sim", "misdp-racing")
RUN_LIMIT_S = 170  # a run must end within 180 s
BUILD_LIMIT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure once, then bring the driver up to date."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release", *gen])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        try:
            out = subprocess.run(cmd, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, text=True,
                                 timeout=BUILD_LIMIT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if out.returncode != 0:
            sys.stderr.write(out.stdout[-4000:])
            fail(f"build step {' '.join(cmd[:2])} exited {out.returncode}")
    return build_dir / "perfbench_driver"


def report(doc, args, nproc, load):
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} nproc={nproc} "
          f"loadavg1={load:.2f} build={doc['build_type']}")
    for name, group in perfmetrics.by_name(doc["records"]).items():
        walls = sorted(r["wall_s"] for r in group)
        ex = " ".join(f"{k}={int(v)}" for k, v in group[0]["exact"].items())
        extra = ""
        if "ug.max_active" in group[0]["layer"]:
            lay = group[0]["layer"]
            extra = (f" makespan_vs={group[0]['makespan_vs']:.4f}"
                     f" max_active={int(lay['ug.max_active'])}"
                     f" idle={lay['ug.idle_ratio']:.3f}"
                     f" winner={int(lay['misdp.racing_winner'])}")
        print(f"  {name:<18} solves={len(group):<2} "
              f"median_wall_s={walls[len(walls) // 2]:.4f} {ex}{extra}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    nproc = len(os.sched_getaffinity(0))
    load = os.getloadavg()[0]
    build_dir = Path.cwd() / ".bench_build" / "perfbench"
    driver = build(build_dir)

    spans_path = build_dir / f"spans-{args.workload}-{args.seed}.json"
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--references", str(HERE / "references.tsv"),
           "--spans", str(spans_path)]
    started = time.monotonic()
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_LIMIT_S} s")
    if out.returncode != 0:
        fail(f"driver exited {out.returncode}")
    doc = json.loads(out.stdout)
    wall = time.monotonic() - started

    records = doc["records"]
    failed = [r for r in records if not r["ok"]]
    drift = perfmetrics.nondeterminism(records)
    report(doc, args, nproc, load)
    print(f"fail_frac {len(failed)}/{len(records)} = "
          f"{perfmetrics.ratio(len(failed), len(records)):.4f}")
    for r in failed:
        print(f"  FAILED {r['name']}: {r['detail']}")
    print("nondeterminism: " + (", ".join(drift) if drift else "none"))

    if args.trace:
        spans = json.loads(spans_path.read_text())["spans"]
        metrics, tails = perfmetrics.per_layer(doc, spans)
        units = perfmetrics.PER_LAYER_UNITS
        print(f"spans {len(spans)} written to {spans_path}")
        for name, n in tails.items():
            rule = "met" if perfmetrics.tail_ok(n, 95) else "NOT met"
            print(f"  {name}: {n} samples, ten-beyond rule {rule}")
    else:
        metrics = perfmetrics.end_to_end(doc)
        units = perfmetrics.END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"  {name:<26} {value:.6g} {units[name]}")
    print(f"driver wall {wall:.1f} s")

    result = {
        "correct": not failed and not drift,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
