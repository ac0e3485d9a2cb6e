"""jtlab benchmark: one seeded workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload realize_sweep --seed 1 --seconds 20 --trace 0

jtlab is imported from the ``src`` directory beside ``perfbench``.  The
loop is closed: one client, one item at a time, one process at a time.
Every pass over the workload runs in a fresh interpreter, so no in-process
cache carries over from one pass to the next.  The workload's inputs come
from the seed alone; jtlab receives only those inputs.

With ``--trace 0`` passes repeat for about ``--seconds``, each after three
processes that only set up, and the end-to-end metrics are reported as
medians over processes.  Every time is scaled to a nominal host speed by
the reference computations run in the same process (see ``reference.py``).  With
``--trace 1`` one untraced and one traced pass run, and the per-layer
metrics of the traced pass are reported, with both scaled pass times as
the tracing overhead.  The last line of stdout is the JSON result; a
summary goes to stderr.

Every item's outputs are checked.  At the default seed every pass's digest
of canonical outputs must match the one recorded in ``digests.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
DIGESTS = HERE / "digests.json"  # recorded digests at the default seed
DEFAULT_SEED = 0
DEADLINE_S = 170  # a run must end within 180 s
SETUPS_PER_PASS = 3  # processes that only set up, started before each pass


def child_pass(args):
    """One pass in this interpreter; prints the pass record as JSON."""
    import reference

    setup_ref_s = [reference.setup_chunk()]
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import jtlab
    import workloads

    if Path(jtlab.__file__).resolve().parent != SRC / "jtlab":
        raise SystemExit(f"jtlab imported from {jtlab.__file__}, not from {SRC}")
    inputs = workloads.make_inputs(args.workload, args.seed, args.size)
    setup_s = time.perf_counter() - start
    setup_ref_s.append(reference.setup_chunk())
    setup = {
        "setup_s": setup_s,
        "setup_slowdown": reference.slowdown(setup_ref_s, reference.NOMINAL_SETUP_S),
    }
    if args.child == "setup":
        print(json.dumps(setup))
        return

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.child == "traced":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    outputs, item_s, marks, failed = [], [], [], 0
    start = time.perf_counter()
    items = workload.items(inputs)
    build_s = time.perf_counter() - start
    ref_s = [reference.chunk()]
    pass_s = build_s
    due = pass_s + reference.EVERY_S
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item = index
        marks.append(len(ref_s))
        t0 = time.perf_counter()
        try:
            ok, output = workload.run(item)
        except Exception:
            traceback.print_exc()
            ok, output = False, None
        item_s.append(time.perf_counter() - t0)
        pass_s += item_s[-1]
        failed += not ok
        outputs.append(output)
        if pass_s >= due:
            ref_s.append(reference.chunk())
            due = pass_s + reference.EVERY_S
    if tracer is not None:
        tracer.uninstall()
    if not workload.check_pass(inputs, outputs):
        print("pass-level check failed: every item counts as failed", file=sys.stderr)
        failed = len(items)

    # the enumeration in items() is stretch 0, with item i as stretch i + 1
    slowdowns = reference.local_slowdowns([0, *marks], ref_s)
    scaled_item_s = [t / f for t, f in zip(item_s, slowdowns[1:])]
    record = {
        **setup,
        "pass_s": pass_s,
        "slowdown": reference.slowdown(ref_s),
        "scaled_pass_s": build_s / slowdowns[0] + sum(scaled_item_s),
        "scaled_item_s": scaled_item_s,
        "attempted": len(items),
        "failed": failed,
        "digest": workloads.digest(outputs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}-{args.size}-seed{args.seed}.tsv")
        record["layers"] = tracer.metrics(slowdowns)
    print(json.dumps(record))


def run_child(args, mode, deadline):
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
        "--child", mode,
    ]
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise SystemExit("out of time before the pass could start")
    try:
        # on timeout subprocess.run kills the child and waits for it
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{mode} pass did not finish within {DEADLINE_S} s of the run's start")
    if done.returncode != 0:
        raise SystemExit(f"{mode} pass exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by linear interpolation."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median_over(records, value):
    """Median over processes, so that one caught in a slow spell of a
    shared machine does not move the result."""
    return statistics.median(value(r) for r in records)


def end_to_end(passes, setups):
    """The end-to-end metrics, from times scaled to the nominal host speed."""
    return {
        "items_per_s": (median_over(passes, lambda p: p["attempted"] / p["scaled_pass_s"]), "1/s"),
        "item_ms_p50": (median_over(passes, lambda p: 1000 * percentile(p["scaled_item_s"], 50)), "ms"),
        "item_ms_p90": (median_over(passes, lambda p: 1000 * percentile(p["scaled_item_s"], 90)), "ms"),
        "peak_rss_mb": (median_over(passes, lambda p: p["peak_rss_mb"]), "MB"),
        "setup_s": (median_over(setups + passes, lambda p: p["setup_s"] / p["setup_slowdown"]), "s"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("realize_sweep", "dual_fuzz", "classify_table"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    parser.add_argument("--child", choices=("setup", "plain", "traced"), help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "jtlab" / "__init__.py").is_file():
        raise SystemExit(f"no jtlab sources under {SRC}")
    if args.child:
        child_pass(args)
        return

    deadline = time.perf_counter() + DEADLINE_S
    if args.trace:
        passes = [run_child(args, "plain", deadline), run_child(args, "traced", deadline)]
        plain_s, traced_s = (p["scaled_pass_s"] for p in passes)
        metrics = dict(passes[1]["layers"])
        metrics["trace.untraced_pass_s"] = (plain_s, "s")
        metrics["trace.traced_pass_s"] = (traced_s, "s")
        metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    else:
        # start another pass only while it would end less than half a pass
        # past --seconds, so a run lasts --seconds give or take half a pass
        setups, passes = [], []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start + last_s / 2 < args.seconds:
            t0 = time.perf_counter()
            setups += [run_child(args, "setup", deadline) for _ in range(SETUPS_PER_PASS)]
            passes.append(run_child(args, "plain", deadline))
            last_s = time.perf_counter() - t0
        metrics = end_to_end(passes, setups)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0
    digests = {p["digest"] for p in passes}
    if args.seed == DEFAULT_SEED:
        want = json.loads(DIGESTS.read_text()).get(args.size, {}).get(args.workload)
        if digests != {want}:
            print(f"digest mismatch: recorded {want}, got {sorted(digests)}", file=sys.stderr)
            correct = False

    print(f"{args.workload} seed={args.seed} size={args.size} passes={len(passes)} "
          f"attempted={attempted} failed={failed} failed_ratio={failed / attempted:.4f} "
          f"digest={','.join(sorted(digests))}", file=sys.stderr)
    print("  wall pass_s " + " ".join(f"{p['pass_s']:.3f}" for p in passes), file=sys.stderr)
    print("  slowdown    " + " ".join(f"{p['slowdown']:.3f}" for p in passes), file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:48} {value:14.6f} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    if not correct:
        sys.exit(1)


if __name__ == "__main__":
    main()
