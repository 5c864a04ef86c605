"""Spans, call counters and the summary statistics of the benchmark.

The wrappers sit on the caller's bindings of trifactor's functions and on
its class methods, so the package itself is measured from outside and is
not edited.  A span records its name, start, end, parent span and run id;
spans are kept in memory and written out once the workload has finished.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Callable, Iterable

#: Percentiles the summaries may report, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL = 10


class Tracer:
    """Records spans and call counts for one run of one workload."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        #: (name, start, end, parent index or -1, run id), in start order.
        self.spans: list[tuple[str, float, float, int, str] | None] = []
        #: Totals that observers of return values add to, by name.
        self.tallies: dict[str, float] = {}
        self._stack: list[int] = []
        self._counters: dict[str, itertools.count] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def spanned(
        self,
        name: str,
        fn: Callable,
        observe: Callable[["Tracer", object], None] | None = None,
    ) -> Callable:
        """fn recording one span per call; observe(tracer, result) if given."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        run_id = self.run_id

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, run_id)
            if observe is not None:
                observe(self, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """fn counting its calls; no span, for methods called millions of times."""
        tick = self._counters.setdefault(name, itertools.count()).__next__

        def wrapper(*args):
            tick()
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def tally(self, name: str, amount: float = 1) -> None:
        self.tallies[name] = self.tallies.get(name, 0) + amount

    def call_counts(self) -> dict[str, int]:
        """Calls seen by each counting wrapper; read once, after the run."""
        return {name: next(c) for name, c in self._counters.items()}

    # -- installing and removing wrappers -------------------------------------

    def patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def patch_bindings(self, modules: Iterable[object], fn: Callable,
                       wrapper: Callable) -> int:
        """Replace every module-level binding of fn; returns how many."""
        n = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, wrapper)
                    n += 1
        return n

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading the spans -----------------------------------------------------

    def closed_spans(self) -> list[tuple[str, float, float, int, str]]:
        if any(s is None for s in self.spans):
            raise RuntimeError("a span is still open")
        return list(self.spans)  # type: ignore[arg-type]


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        reach = start
        for cs, ce in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((end - start) - covered)
    return out


def _rank(n: int, p: float) -> int:
    """Nearest-rank index of percentile p among n sorted samples."""
    # rounded first, so that 99.9% of 10000 is 9990 and not 9990.000000000002
    return max(0, math.ceil(round(p / 100 * n, 6)) - 1)


def percentile(values: Iterable[float], p: float) -> float | None:
    """Nearest-rank percentile, or None unless MIN_TAIL samples lie beyond it."""
    vals = sorted(values)
    idx = _rank(len(vals), p)
    if len(vals) - (idx + 1) < MIN_TAIL:
        return None
    return vals[idx]


def highest_percentile(values: Iterable[float]) -> tuple[float, float] | None:
    """(p, value) for the highest of PERCENTILES with MIN_TAIL samples beyond."""
    vals = sorted(values)
    best = None
    for p in PERCENTILES:
        v = percentile(vals, p)
        if v is not None:
            best = (p, v)
    return best
