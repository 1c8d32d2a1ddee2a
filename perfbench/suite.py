"""Run every workload of the benchmark, one fresh process each, and print
their tables and a summary.

    python3 perfbench/suite.py --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, per-step times and failed
operations of each workload; ``--trace 1`` prints the per-layer metrics and
``trace.overhead_s``.  Exits 1 if any output check failed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOADS


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    summary = []
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            summary.append((workload, None))
            continue
        print("\n".join(lines[:-1]) + "\n")
        summary.append((workload, json.loads(lines[-1])))
    for workload, result in summary:
        if result is None:
            print(f"{workload:<10} no result")
            continue
        values = "  ".join(f"{k} {v['value']:.6g} {v['unit']}"
                           for k, v in result["metrics"].items()
                           if not args.trace or k == "trace.overhead_s")
        print(f"{workload:<10} failed {result['failed']} of {result['attempted']}  {values}")
    return 0 if all(r is not None and r["correct"] for _, r in summary) else 1


if __name__ == "__main__":
    sys.exit(main())
