"""One fresh interpreter of the benchmark: set up a workload, then run it.

Started by ``run.py``; not meant to be run by hand.  ``--mode setup`` stops
after the warm-up operation and reports only the set-up time.
``--mode measure`` then runs operations in a closed loop with one client
(the next operation starts when the previous one has returned and been
checked) for whole cycles of the workload's input pass, until the timed
seconds are reached and at least ten operations lie beyond the workload's
fixed tail percentile.  The last line of standard output is a JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: A run stops after the current pass once this much wall time has passed,
#: so it ends within the harness limit even when the program gets slow.
WALL_LIMIT_S = 100.0
#: Operations that must lie beyond the reported tail percentile.
TAIL_SAMPLES = 10


def beyond_tail(n: int, q: float) -> int:
    """Samples beyond percentile q of n, interpolated at position q * (n - 1)."""
    return n - 1 - math.floor(q * (n - 1)) if n else 0


def tree_digest(*folders: str) -> str:
    """sha256 over the Python sources under ``folders``."""
    digest = hashlib.sha256()
    for top in folders:
        for folder, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()


class Loop:
    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.items = 0
        self.failed = 0
        self.problems: list[str] = []
        self.cycles = 0
        self.cut_short = False


def run_pass(workload, inputs, tracer, loop: Loop) -> bool:
    """One pass over the inputs; False as soon as an operation fails."""
    first_op = len(loop.latencies)
    for offset, inp in enumerate(inputs):
        tracer.op_id = first_op + offset
        start = time.perf_counter()
        try:
            with tracer.span("bench.op"):
                out = workload.run(inp, tracer)
                elapsed = time.perf_counter() - start
        except Exception as exc:  # an operation that raises is a failed operation
            loop.latencies.append(time.perf_counter() - start)
            loop.failed += 1
            loop.problems.append(f"operation {tracer.op_id} raised {type(exc).__name__}: {exc}")
            return False
        loop.latencies.append(elapsed)
        loop.items += workload.items(inp)
        problems = workload.check(inp, out)
        if tracer.enabled:
            workload.probe(inp, out, tracer)
        if problems:
            loop.failed += 1
            loop.problems += problems
            return False
    loop.cycles += 1
    return True


def run_plain(workload, inputs, seconds: float) -> Loop:
    """Whole passes, tracing off, until ``seconds`` of operation time and
    enough operations for the workload's tail percentile."""
    from spans import NullTracer

    loop, started = Loop(), time.monotonic()
    while run_pass(workload, inputs, NullTracer(), loop):
        enough = beyond_tail(len(loop.latencies), workload.tail_q) >= TAIL_SAMPLES
        if enough and sum(loop.latencies) >= seconds:
            break
        if time.monotonic() - started > WALL_LIMIT_S:
            loop.cut_short = True
            if not enough:
                loop.problems.append(
                    f"cut short after {WALL_LIMIT_S:.0f} s with {len(loop.latencies)} operations, "
                    f"too few for {TAIL_SAMPLES} beyond percentile {100 * workload.tail_q:.0f}"
                )
            break
    return loop


def run_traced(workload, inputs, seconds: float):
    """Untraced and traced passes in turn, so both see the same machine load.

    Runs at least two traced passes and stops once the two together have
    ``seconds`` of operation time.
    """
    from spans import NullTracer, Tracer

    plain, traced, tracer, started = Loop(), Loop(), Tracer(), time.monotonic()
    while run_pass(workload, inputs, NullTracer(), plain) and run_pass(
        workload, inputs, tracer, traced
    ):
        if traced.cycles >= 2 and sum(plain.latencies) + sum(traced.latencies) >= seconds:
            break
        if time.monotonic() - started > WALL_LIMIT_S:
            traced.cut_short = True
            if traced.cycles < 2:
                traced.problems.append(
                    f"cut short after {WALL_LIMIT_S:.0f} s with {traced.cycles} traced passes; "
                    "two are needed to check the counts"
                )
            break
    return plain, traced, tracer


def traced_counts(tracer, per_pass: int, problems: list[str]) -> dict:
    """Per-operation means of the exact counts over the first traced pass.

    There are at least two traced passes; the counts of every input in the
    second must equal those of the first.
    """
    from spans import op_counts

    per_op = op_counts(tracer.spans)
    first = [per_op.get(j, {}) for j in range(per_pass)]
    second = [per_op.get(per_pass + j, {}) for j in range(per_pass)]
    if first != second:
        problems.append(f"counts differ between two passes over the same inputs: {first}, {second}")
    keys = sorted({key for counts in first for key in counts})
    return {key: sum(c.get(key, 0) for c in first) / per_pass for key in keys}


def check_counts_repeat(name: str, seed: int, counts: dict, problems: list[str]) -> None:
    """Counts must repeat exactly across runs of the same code and seed."""
    code = tree_digest(os.path.join(SRC, "idsep"), HERE)[:16]
    path = os.path.join(OUT, f"counts-{name}-seed{seed}-{code}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            previous = json.load(handle)
        if previous != counts:
            problems.append(f"counts differ from an earlier run of this seed: {previous}, {counts}")
    else:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(counts, handle, sort_keys=True)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "src_sha256": tree_digest(os.path.join(SRC, "idsep")),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    import idsep

    if not os.path.abspath(idsep.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"idsep imported from {idsep.__file__}, not from {SRC}")
    import spans
    import workloads

    os.makedirs(OUT, exist_ok=True)
    scratch = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        workload = workloads.make(args.workload, scratch)
        inputs = workload.inputs(args.seed)
        warm = workload.run(inputs[0], spans.NullTracer())
        setup_s = time.monotonic() - args.t0
        problems = workload.check(inputs[0], warm)
        if problems:
            raise SystemExit(f"warm-up operation failed its check: {problems}")
        result = {"setup_s": setup_s}
        if args.mode == "measure":
            result.update(measure(workload, inputs, args))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def measure(workload, inputs, args) -> dict:
    import spans

    per_pass = len(inputs)
    result = {
        "env": environment(),
        "ops_per_pass": per_pass,
        "item": workload.item,
        "tail_q": workload.tail_q,
    }
    if not args.trace:
        loop = run_plain(workload, inputs, args.seconds)
        attempted = len(loop.latencies)
    else:
        plain, loop, tracer = run_traced(workload, inputs, args.seconds)
        attempted = len(plain.latencies) + len(loop.latencies)
        loop.failed += plain.failed
        loop.problems = plain.problems + loop.problems
        tracer.write(os.path.join(OUT, f"spans-{workload.name}-seed{args.seed}.jsonl"))
        layers = spans.layer_seconds(tracer.spans, max(1, len(loop.latencies)))
        if not loop.failed and loop.cycles >= 2:
            counts = traced_counts(tracer, per_pass, loop.problems)
            check_counts_repeat(workload.name, args.seed, counts, loop.problems)
            layers.update(counts)
            # each whole traced pass against the untraced pass just before it
            ratios = [
                sum(loop.latencies[i : i + per_pass]) / sum(plain.latencies[i : i + per_pass])
                for i in range(0, loop.cycles * per_pass, per_pass)
            ]
            layers["trace.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
            missing = sorted(workload.layers(inputs) - set(layers))
            if missing:
                loop.problems.append(f"layer metrics not recorded: {missing}")
        result["layers"] = layers
        result["untraced_ops"] = len(plain.latencies)
    result.update(
        latencies=loop.latencies,
        attempted=attempted,
        items=loop.items,
        failed=loop.failed,
        problems=loop.problems[:20],
        cycles=loop.cycles,
        cut_short=loop.cut_short,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return result


if __name__ == "__main__":
    sys.exit(main())
