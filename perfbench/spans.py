"""In-memory span recorder that wraps quest's public entry points.

Tracing is installed from outside the program: every module attribute
under ``quest`` that refers to one of the wrapped functions is replaced
by a timing wrapper, so calls made through ``quest.cli``,
``quest.engine`` or the package root are all seen.  Nothing inside
``src/`` changes.

A span is ``[name, start, end, parent, request, count]``.  ``parent`` is
the index of the enclosing span (or -1), ``request`` the id set by the
caller with :meth:`Tracer.request`, and ``count`` a per-span quantity:
values returned by a scan, match pairs of a join index, rows of an
evaluate, bytes read by an open.
"""

from __future__ import annotations

import sys
import time

# span names, one per wrapped entry point
OPEN = "store.open"
SCAN = "store.scan"
LOAD = "skiptree.load"
PARSE = "query.parse"
PLAN = "optimizer.plan"
EVALUATE = "engine.evaluate"
JOIN_BUILD = "engine.join_build"
DELIVER = "delivery.deliver"


def _rchar() -> int:
    """Bytes this process has read through read(2) so far."""
    try:
        with open("/proc/self/io", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("rchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = -1

    def request(self, rid: int) -> None:
        self._request = rid

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._request, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, count: int = 0) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = count
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` timed as span ``name``; ``count(result)`` fills the count."""

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            n = 0
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    n = count(result)
                return result
            finally:
                self._close(idx, n)

        return wrapper

    def wrap_open(self, fn):
        """``open_store`` with the bytes it read as the span count."""

        def wrapper(*args, **kwargs):
            idx = self._open(OPEN)
            before = _rchar()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, _rchar() - before)

        return wrapper


def _replace_everywhere(original, replacement) -> None:
    for modname, mod in list(sys.modules.items()):
        if modname != "quest" and not modname.startswith("quest."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap quest's layer entry points; quest must already be imported."""
    from quest import delivery, engine, optimizer, query, skiptree, store

    _replace_everywhere(store.open_store, tracer.wrap_open(store.open_store))
    _replace_everywhere(skiptree.load_skiptree, tracer.wrap(LOAD, skiptree.load_skiptree))
    _replace_everywhere(query.parse_query, tracer.wrap(PARSE, query.parse_query))
    _replace_everywhere(optimizer.plan_query, tracer.wrap(PLAN, optimizer.plan_query))
    _replace_everywhere(engine.evaluate, tracer.wrap(EVALUATE, engine.evaluate, lambda rs: len(rs.rows)))
    _replace_everywhere(delivery.deliver, tracer.wrap(DELIVER, delivery.deliver))
    _replace_everywhere(
        engine.JoinIndex, tracer.wrap(JOIN_BUILD, engine.JoinIndex, lambda ji: int(ji.l_pair.size))
    )
    store.Store.scan_values = tracer.wrap(SCAN, store.Store.scan_values, lambda r: len(r[0]))


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def misnested(spans: list[list]) -> int:
    """Spans not closed inside their parent's interval, or whose children
    cover more than the span itself.

    With none, a request's self times add up to its outermost span, and
    in particular the self times under each ``evaluate`` add up to it.
    """
    bad = sum(1 for t in self_times(spans) if t < 0)
    for _, start, end, parent, _, _ in spans:
        if end < start or (parent >= 0 and not spans[parent][1] <= start <= end <= spans[parent][2]):
            bad += 1
    return bad


def request_split(spans: list[list]) -> dict[int, dict]:
    """Per request id: inclusive seconds, calls and counts by span name.

    ``evaluate_self`` is the evaluate spans' self time (evaluate minus
    its plan, delivery, scan and join-build children) and ``top`` the
    time covered by spans that have no parent.
    """
    selfs = self_times(spans)
    out: dict[int, dict] = {}
    for i, (name, start, end, parent, rid, count) in enumerate(spans):
        d = out.setdefault(rid, {"time": {}, "calls": {}, "count": {}, "evaluate_self": 0.0, "top": 0.0})
        d["time"][name] = d["time"].get(name, 0.0) + (end - start)
        d["calls"][name] = d["calls"].get(name, 0) + 1
        d["count"][name] = d["count"].get(name, 0) + count
        if name == EVALUATE:
            d["evaluate_self"] += selfs[i]
        if parent < 0:
            d["top"] += end - start
    return out
