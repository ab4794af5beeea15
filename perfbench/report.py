#!/usr/bin/env python3
"""Run every workload, untraced and traced, and print each metric with its unit.

    python3 perfbench/report.py --seed 7 --seconds 40

Each workload runs in its own ``run.py`` process, one after the other, so
peak memory is per workload and only one process generates load at a time.
The untraced run gives the end-to-end metrics, the traced run the per-layer
metrics and the tracing overhead; every run reports its failed operations
against the attempted ones.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0])["meta"], json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40)
    args = parser.parse_args(argv)
    with open(os.path.join(HERE, "workloads.json")) as fh:
        workloads = json.load(fh)["workloads"]
    all_correct = True
    for workload in workloads:
        for trace in (0, 1):
            meta, result = run_once(workload, args.seed, args.seconds, trace)
            kind = "per-layer (traced)" if trace else "end-to-end"
            print(f"== {workload} {kind}: seed {args.seed}, attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}, "
                  f"nproc {meta['nproc']}, numpy {meta['numpy']}, {meta['blas']}")
            for name, metric in result["metrics"].items():
                print(f"{workload:8s} {name:48s} {metric['value']:14.6g} {metric['unit']}")
            all_correct &= result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
