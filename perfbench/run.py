"""Run one idsep benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or anywhere: paths are taken from this file).
Workloads: registry, fock-ladder, pair-terms, pair-wide (see README.md).

--trace 0 measures the end-to-end metrics with tracing off.  Set-up time is
the median over seven fresh interpreters, each timed from spawn to the end of
its untimed warm-up operation; three run before the measuring interpreter and
three after it, so that a short burst of load from other processes moves few
of them.  The measuring interpreter runs operations in a closed loop with one
client for whole cycles of the workload's inputs until --seconds of operation
time have passed and at least ten operations lie beyond the workload's fixed
tail percentile (reported as latency_p90_s).

--trace 1 alternates untraced and traced passes over the inputs and reports
the per-layer metrics: self seconds per operation for each layer span, exact
counts per operation, and the tracing overhead (median over pairs of passes
of traced over untraced pass time, minus one).  Spans are written to
perfbench/out/.

Every operation is checked against an oracle that does not use idsep.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the exit code is 0 only when every check
passed.  Without the idsep sources next to this directory the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

#: Set-up samples before and after the measuring interpreter, which gives one more.
SETUP_BEFORE = SETUP_AFTER = 3
#: Every worker must have finished this long after the benchmark started.
DEADLINE_S = 170.0
#: The throughput metric is items per second; an item is what the user of
#: each workload counts.
THROUGHPUT_NAMES = {"cases": "cases_per_s", "verdicts": "verdicts_per_s", "states": "states_per_s"}


class BenchError(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


#: BLAS threads per worker, at most nproc.  One thread: with two on a
#: two-CPU machine the run-to-run spread doubled, because every BLAS call
#: then waits for whichever CPU other tenants slow down.
BLAS_THREADS = 1


def worker_env() -> dict:
    env = dict(os.environ)
    cap = str(min(BLAS_THREADS, nproc()))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    env["PYTHONHASHSEED"] = "0"  # same dict and set layouts in every interpreter
    return env


def spawn(args, mode: str, deadline: float) -> dict:
    t0 = time.monotonic()
    command = [
        sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--mode", mode,
        "--t0", repr(t0),
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics at position q * (n - 1)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def git_sha() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def throughput(run: dict) -> float:
    """Items per second of operation time, over every operation of the run.

    A mean, not a median over passes: on a VM shared with other tenants the
    speed can switch between levels for seconds at a time.  A median over
    passes jumps with the level that held most passes; the mean moves with
    the share of time spent at each.
    """
    return run["items"] / sum(run["latencies"])


def end_to_end(setups: list[float], run: dict) -> tuple[dict, list[str]]:
    lat = run["latencies"]
    n = len(lat)
    q = run["tail_q"]
    rate = throughput(run)
    values = {
        "setup_s": statistics.median(setups),
        "latency_p50_s": percentile(lat, 0.5),
        "latency_p90_s": percentile(lat, q),
        "items_per_s": rate,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    beyond = sum(x > values["latency_p90_s"] for x in lat)
    item = run["item"]
    notes = [
        f"setup_s        {values['setup_s']:.4f} s  (median of {len(setups)} fresh interpreters: "
        + ", ".join(f"{s:.3f}" for s in setups) + ")",
        f"latency_p50_s  {values['latency_p50_s']:.6f} s  ({n} operations)",
        f"latency_p90_s  {values['latency_p90_s']:.6f} s  (percentile {100 * q:.0f}, fixed for "
        f"this workload, of {n} operations; {beyond} beyond it)",
        f"{THROUGHPUT_NAMES[item]:14s} {values['items_per_s']:.4f} {item}/s  (metric items_per_s; "
        f"{run['items']} {item} in {sum(lat):.3f} s of operations, {run['cycles']} whole passes)",
        f"failed_ratio   {run['failed'] / run['attempted']:.4f}  "
        f"({run['failed']} of {run['attempted']} operations)",
        f"peak_rss_mb    {values['peak_rss_mb']:.2f} MiB",
    ]
    return values, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    started = time.monotonic()
    deadline = started + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "idsep", "__init__.py")):
        print(f"error: idsep sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    setups = []
    try:
        for _ in range(0 if args.trace else SETUP_BEFORE):
            setups.append(spawn(args, "setup", deadline)["setup_s"])
        run = spawn(args, "measure", deadline)
        setups.append(run["setup_s"])
        for _ in range(0 if args.trace else SETUP_AFTER):
            setups.append(spawn(args, "setup", deadline)["setup_s"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        declared = [m["name"] for m in bench["per_layer"]]
        unknown = sorted(set(run["layers"]) - set(declared)) if "layers" in run else []
        if unknown:
            print(f"error: layer metrics missing from BENCHMARK.json: {unknown}", file=sys.stderr)
            return 1
        # a layer the workload never calls reads 0; the worker has checked
        # that every layer it does call was recorded
        values = {name: run.get("layers", {}).get(name, 0.0) for name in declared}
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        notes = [
            f"{name:40s} {value:.6g} {units[name]}"
            for name, value in values.items()
            if value or not name.startswith("cases.")
        ]
        notes.append(
            f"tracing overhead: {values['trace.overhead_pct']:+.2f}% (median over pairs of "
            f"passes, traced against the untraced pass before it; "
            f"{run.get('untraced_ops', 0)} untraced, {len(run['latencies'])} traced operations)"
        )
    else:
        values, notes = end_to_end(setups, run)
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        missing = set(units) - set(values)
        if missing:
            print(f"error: end-to-end metrics not measured: {sorted(missing)}", file=sys.stderr)
            return 1

    env = run["env"]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        **env,
        "nproc": nproc(),
        "operations": run["attempted"],
        "operations_per_pass": run["ops_per_pass"],
        "cycles": run["cycles"],
        "cut_short": run["cut_short"],
        "client": "closed loop, one client thread",
        "wall_s": time.monotonic() - started,
    }
    correct = run["failed"] == 0 and not run["problems"]
    result = {
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    with open(
        os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
        "w", encoding="utf-8",
    ) as handle:
        json.dump({**result, "meta": meta, "setup_samples": setups,
                   "latencies": run["latencies"], "problems": run["problems"]}, handle, indent=1)

    print(f"idsep benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print("  " + line)
    for problem in run["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
