"""In-memory span recorder for the traced benchmark run.

A span has a name, start and end (``time.perf_counter`` seconds), the index
of its parent span, the id of the operation it belongs to, a probe flag and
a dict of exact counts.  Spans are kept in a list and written out once, at
the end of the run.

Probe spans time an inner public call a second time, on the same inputs,
outside the operation it belongs to (for example ``subalgebras_commute``,
which ``factorization_test`` also calls).  They are never subtracted from
a parent's self time and never added to an operation's latency, so nothing
is counted twice.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Tracing off: every hook is a no-op, so untimed code paths stay cheap."""

    enabled = False

    def span(self, name, **counts):
        return nullcontext()

    probe = span

    def count(self, **counts):
        pass


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._root: int | None = None
        self.op_id = -1

    @contextmanager
    def _record(self, name: str, probe: bool, counts: dict):
        index = len(self.spans)
        if self._stack:
            parent = self._stack[-1]
        elif probe:
            parent = self._root  # a probe runs after the operation it belongs to
        else:
            parent, self._root = None, index
        record = {
            "name": name,
            "op": self.op_id,
            "parent": parent,
            "probe": probe,
            "start": time.perf_counter(),
            "end": None,
            "counts": dict(counts),
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def span(self, name: str, **counts):
        return self._record(name, False, counts)

    def probe(self, name: str, **counts):
        return self._record(name, True, counts)

    def count(self, **counts):
        """Add exact counts to the innermost open span."""
        record = self.spans[self._stack[-1]]
        for key, value in counts.items():
            record["counts"][key] = record["counts"].get(key, 0) + value

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def time_metric(span_name: str) -> str:
    """Per-layer metric of a span: "fock.build" -> "fock.build_s",
    "cases.case.leftloc-1" -> "cases.case_s.leftloc-1"."""
    layer, _, rest = span_name.partition(".")
    head, dot, tail = rest.partition(".")
    return f"{layer}.{head}_s{dot}{tail}"


def layer_seconds(spans: list[dict], ops: int) -> dict[str, float]:
    """Self seconds per operation for each span name.

    A span's self time is its duration minus the durations of its direct
    non-probe children; a probe span counts its whole duration.
    """
    child_time = [0.0] * len(spans)
    for record in spans:
        if record["parent"] is not None and not record["probe"]:
            child_time[record["parent"]] += record["end"] - record["start"]
    totals: dict[str, float] = {}
    for index, record in enumerate(spans):
        own = record["end"] - record["start"]
        if not record["probe"]:
            own -= child_time[index]
        metric = time_metric(record["name"])
        totals[metric] = totals.get(metric, 0.0) + own
    return {name: total / ops for name, total in totals.items()}


def op_counts(spans: list[dict]) -> dict[int, dict[str, int]]:
    """Exact counts summed per operation id."""
    per_op: dict[int, dict[str, int]] = {}
    for record in spans:
        bucket = per_op.setdefault(record["op"], {})
        for key, value in record["counts"].items():
            bucket[key] = bucket.get(key, 0) + value
    return per_op
