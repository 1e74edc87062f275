"""Span recording around the library's public calls, from the outside.

A workload op passes every library call through `call`, so the traced and
untraced runs execute the same code; only the tracer differs.  Spans stay
in memory until the run ends.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict


class NullTracer:
    """Untraced runs: calls go straight through and counts are dropped.

    `last_call` names the call in progress, so a failed op can say which
    call raised.
    """

    last_call = None

    def begin_op(self, op_id: int) -> None:
        pass

    def end_op(self, end: float, failure) -> None:
        pass

    def call(self, name, fn, *args):
        self.last_call = name
        return fn(*args)

    def add(self, name: str, value: float) -> None:
        pass

    def peak(self, name: str, value: float) -> None:
        pass


class Tracer(NullTracer):
    """One span per public call: name, start, end, parent op span, op id.

    Counts read off returned values accumulate as sums (`add`) or maxima
    (`peak`) under metric names.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.sums: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = {}
        self._op = None
        self._ids = itertools.count()

    def begin_op(self, op_id: int) -> None:
        self._op = {"id": next(self._ids), "name": "op", "op": op_id, "parent": None,
                    "start": time.perf_counter()}

    def end_op(self, end: float, failure) -> None:
        self._op["end"] = end
        self._op["failure"] = failure
        self.spans.append(self._op)
        self._op = None

    def call(self, name, fn, *args):
        self.last_call = name
        span = {"id": next(self._ids), "name": name, "op": self._op["op"], "parent": self._op["id"]}
        span["start"] = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            span["end"] = time.perf_counter()
            self.spans.append(span)

    def add(self, name: str, value: float) -> None:
        self.sums[name] += value

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def metrics(self) -> dict[str, float]:
        """Busy seconds and failures per call, layer totals, and the counts."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s["name"] == "op":
                continue
            dt = s["end"] - s["start"]
            out[f"{s['name']}.s"] += dt
            out[f"{s['name'].split('.')[0]}.s"] += dt
            out[f"{s['name']}.failed"] += "error" in s
        out.update(self.sums)
        out.update(self.peaks)
        return out
