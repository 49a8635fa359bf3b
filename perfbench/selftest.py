"""Self-test of the benchmark's own checks (it tests the oracles, not idsep).

    python3 perfbench/selftest.py

1. Each workload passes its oracle over one whole input pass, for two seeds:
   a verdict must not depend on the seed.
2. A deliberately wrong expectation makes the check fail, so failed_ratio
   rises above 0: a flipped stored verdict (registry, fock-ladder) and an
   oracle entropy or expectation moved by 1e-6 (pair-terms, pair-wide).
3. The registry check fails on an operation that wrote no output file, even
   after an earlier operation wrote one.

Exits 0 when every expectation above holds.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys

from worker import OUT, SRC, Loop, run_pass

sys.path.insert(0, SRC)

import spans  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2)


def flip(verdict: str) -> str:
    return workloads.ENTANGLED if verdict == workloads.SEPARABLE else workloads.SEPARABLE


def corrupt(name: str, inputs: list) -> str:
    """Plant one wrong expectation in the inputs; say which."""
    if name == "registry":
        expected = copy.deepcopy(inputs[0].expected)
        expected["leftloc-3"][0][1] = flip(expected["leftloc-3"][0][1])
        for inp in inputs:
            inp.expected = expected
        return "stored verdict of leftloc-3 flipped"
    if name == "fock-ladder":
        state = inputs[2].states[0]
        state.expected = (flip(state.expected[0]), state.expected[1])
        return f"expected spatial-pair verdict of a {state.kind} state flipped"
    key = "entropy" if name == "pair-terms" else "extended"
    inp = inputs[3]
    inp.oracle = dict(inp.expected(), **{key: inp.expected()[key] + 1e-6})
    return f"oracle {key} moved by 1e-6"


def one_pass(name: str, seed: int, scratch: str, wrong: bool):
    workload = workloads.make(name, scratch)
    inputs = workload.inputs(seed)
    what = corrupt(name, inputs) if wrong else "none"
    loop = Loop()
    run_pass(workload, inputs, spans.NullTracer(), loop)
    return what, loop


def main() -> int:
    scratch = os.path.join(OUT, "selftest-tmp")
    os.makedirs(scratch, exist_ok=True)
    ok = True
    try:
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                _, loop = one_pass(name, seed, scratch, wrong=False)
                good = loop.failed == 0
                ok &= good
                ratio = loop.failed / len(loop.latencies)
                print(f"{'ok  ' if good else 'FAIL'} {name:12s} seed {seed}: failed_ratio "
                      f"{ratio:.3f} over {len(loop.latencies)} operations")
            what, loop = one_pass(name, SEEDS[0], scratch, wrong=True)
            good = loop.failed > 0
            ok &= good
            ratio = loop.failed / len(loop.latencies)
            print(f"{'ok  ' if good else 'FAIL'} {name:12s} wrong expectation ({what}): "
                  f"failed_ratio {ratio:.3f}; {loop.problems[:1]}")
        registry = workloads.make("registry", scratch)
        inp = registry.inputs(SEEDS[0])[0]
        first = registry.check(inp, registry.run(inp, spans.NullTracer()))
        # exit codes 0 but nothing written since the first check
        second = registry.check(inp, (0, 0))
        good = not first and bool(second)
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} registry     no output file after a good operation: "
              f"{second[:1]}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
