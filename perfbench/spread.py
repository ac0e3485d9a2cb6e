"""Run-to-run spread of the end-to-end metrics, against the recorded bounds.

    python3 perfbench/spread.py --seeds 10 [--workloads dual_fuzz,realize_sweep]

Runs the benchmark once per seed on each workload, one run at a time, with
the workload order reversed on every other seed.  For each workload and
metric it prints the median and the distance between the first and third
quartiles as a share of the median, beside the metric's bound from
BENCHMARK.json.  Exits 1 if a spread exceeds its bound or a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    values = {w: {} for w in workloads}
    ok = True
    for n in range(args.seeds):
        seed = args.first_seed + n
        for w in workloads if n % 2 == 0 else workloads[::-1]:
            cmd = [*bench["command"], "--workload", w, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            ok &= done.returncode == 0 and result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed={seed} " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)

    for w in workloads:
        print(f"\n{w} ({args.seeds} seeds)")
        for metric in bench["end_to_end"]:
            xs = values[w][metric["name"]]
            q1, median, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / median
            over = spread > metric["bound"]
            ok &= not over
            print(f"  {metric['name']:14} median {median:12.5g} {metric['unit']:4} "
                  f"spread {spread:6.3f}  bound {metric['bound']:.2f}{'  OVER' if over else ''}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
