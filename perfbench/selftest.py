"""Reduced-size self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout.  On the small inputs of every workload it
checks that an untraced run passes at the default seed (digest included)
and at a second seed, that two traced runs report every per-layer metric
with identical counts, that a wrong recorded digest fails the run, and
that the benchmark refuses to run without the jtlab sources beside it.
Takes about fifteen seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
DEFAULT_SEED = 0


def run(workload, seed=DEFAULT_SEED, trace=0, cwd=ROOT):
    cmd = [*BENCH["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "small"]
    done = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else None, done.stderr


def check(condition, message):
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def main():
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    OUT.mkdir(exist_ok=True)

    for w in (w["name"] for w in BENCH["workloads"]):
        for seed in (DEFAULT_SEED, 7):
            code, result, _ = run(w, seed)
            check(code == 0 and result["correct"] and result["failed"] == 0
                  and result["attempted"] > 0, f"{w} seed {seed} passes its checks")
            check(set(result["metrics"]) == end_to_end, f"{w} reports every end-to-end metric")

        traced = [run(w, trace=1) for _ in range(2)]
        check(all(code == 0 and r["correct"] for code, r, _ in traced), f"{w} traced runs pass")
        metrics = [r["metrics"] for _, r, _ in traced]
        check(set(metrics[0]) == set(per_layer), f"{w} traced run reports every per-layer metric")
        counts = [n for n, unit in per_layer.items() if unit in ("count", "bit") or n.endswith("distinct_ratio")]
        check(all(metrics[0][n] == metrics[1][n] for n in counts), f"{w} traced counts repeat exactly")
        if w == "classify_table":
            zero = [n for n in counts if n.startswith(("linalg.", "algebra.")) and n.endswith(".calls")]
            check(all(metrics[0][n]["value"] == 0 for n in zero), f"{w} makes no linalg or algebra calls")

        wrong = tree("wrong-digest", with_src=True)
        (wrong / "perfbench" / "digests.json").write_text(json.dumps({"small": {w: "0" * 64}}))
        code, result, _ = run(w, cwd=wrong)
        check(code != 0 and not result["correct"], f"{w} fails on a wrong recorded digest")
        shutil.rmtree(wrong)

    bare = tree("bare", with_src=False)
    code, result, _ = run("classify_table", cwd=bare)
    check(code != 0 and result is None, "without the jtlab sources the run fails and prints no result")
    shutil.rmtree(bare)


def tree(name, with_src):
    """A fresh copy of BENCHMARK.json and the benchmark's files under OUT,
    with a copy of the jtlab sources beside them if with_src."""
    root = OUT / name
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", root)
    for path in [*BENCH["paths"], *(["src"] if with_src else [])]:
        shutil.copytree(ROOT / path, root / path, ignore=shutil.ignore_patterns("__pycache__"))
    return root


if __name__ == "__main__":
    main()
