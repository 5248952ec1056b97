"""In-memory span recorder that times calls into the program from outside.

The tracer never edits the program: :meth:`Tracer.wrap` shadows a method on
one object the benchmark built with a timing wrapper (an instance
attribute), and :meth:`Tracer.patch` swaps an attribute of a module or class
(``repro.core.engine.verify_exit``, the ``CostLedger`` methods) for the
duration of the traced run.  :meth:`Tracer.close` undoes both.

A span is ``(name, start_s, end_s, parent, request_ids)``: ``parent`` is the
index of the span that was open when the call began (-1 at top level), and
``request_ids`` lists the requests the call served when they can be read
from its arguments (None means "those of the nearest ancestor").  Spans stay
in a list until :meth:`Tracer.dump` writes them out at the end of the run.
Counters recorded at the same boundaries (rows, FLOPs, bytes) live in
:attr:`Tracer.counters`.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Span", "Tracer", "fold", "child_time"]

Span = Tuple[str, float, float, int, Optional[List[int]]]


def _child_s(spans: Sequence[Optional[Span]]) -> List[float]:
    """Per span, the time its direct children cover.  Calls on one thread
    nest strictly, so the children of one span never overlap and their
    durations simply add."""
    child_s = [0.0] * len(spans)
    for span in spans:
        if span is not None and span[3] >= 0:
            child_s[span[3]] += span[2] - span[1]
    return child_s


def fold(spans: Sequence[Optional[Span]]) -> Dict[str, List[float]]:
    """Aggregate spans by name into ``[calls, total_s, self_s]``, where a
    span's self time is its duration minus the time its child spans cover.
    Unfinished spans (None) are skipped."""
    child_s = _child_s(spans)
    out: Dict[str, List[float]] = {}
    for index, span in enumerate(spans):
        if span is None:
            continue
        name, start, end = span[0], span[1], span[2]
        agg = out.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += end - start
        agg[2] += end - start - child_s[index]
    return out


def child_time(spans: Sequence[Optional[Span]], parents: str) -> Tuple[float, float]:
    """``(total_s, covered_s)`` of the spans named ``parents``: their summed
    duration and the part of it their direct children cover."""
    covered = _child_s(spans)
    total = cov = 0.0
    for index, span in enumerate(spans):
        if span is not None and span[0] == parents:
            total += span[2] - span[1]
            cov += covered[index]
    return total, cov


class Tracer:
    """Records spans around wrapped calls; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []
        #: Request-id registries the benchmark fills so spans can name the
        #: requests they served: prompt-list id -> request id, and model
        #: state id -> request id.
        self.rid_of_prompt: Dict[int, int] = {}
        self.rid_of_state: Dict[int, int] = {}

    # -- recording -----------------------------------------------------------
    def timed(self, fn: Callable, name: str,
              rids: Optional[Callable] = None,
              count: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped in a span named ``name``.

        ``rids(args, result)`` names the served request ids; ``count(counters,
        args)`` adds to :attr:`counters` before the call runs.
        """
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            if count is not None:
                count(counters, args)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans[index] = (name, start, end, parent,
                            rids(args, result) if rids is not None else None)
            return result

        return traced

    def wrap(self, obj: object, attr: str, name: str,
             rids: Optional[Callable] = None,
             count: Optional[Callable] = None) -> None:
        """Shadow ``obj.attr`` (a method) with a timed instance attribute;
        deleting it on :meth:`close` uncovers the class's method again."""
        setattr(obj, attr, self.timed(getattr(obj, attr), name, rids, count))
        self._undo.append(lambda: delattr(obj, attr))

    def patch(self, owner: object, attr: str, name: str,
              rids: Optional[Callable] = None,
              count: Optional[Callable] = None) -> None:
        """Replace a module function or class method for the traced run."""
        original = vars(owner)[attr]
        setattr(owner, attr, self.timed(original, name, rids, count))
        self._undo.append(lambda: setattr(owner, attr, original))

    def close(self) -> None:
        """Undo every wrap and patch, newest first."""
        while self._undo:
            self._undo.pop()()

    # -- output --------------------------------------------------------------
    def dump(self, path: str, meta: dict) -> int:
        """Write the spans as JSON (names interned, times in microseconds
        from the first span) and return how many were written."""
        origin = min((s[1] for s in self.spans if s is not None), default=0.0)
        names: Dict[str, int] = {}
        rows: List[Optional[list]] = []
        for span in self.spans:
            if span is None:  # a call that raised; kept so parents line up
                rows.append(None)
                continue
            name, start, end, parent, rids = span
            rows.append([names.setdefault(name, len(names)),
                         round((start - origin) * 1e6, 1),
                         round((end - origin) * 1e6, 1), parent, rids])
        with open(path, "w") as handle:
            json.dump({"meta": meta, "names": list(names),
                       "fields": ["name", "start_us", "end_us", "parent",
                                  "request_ids"],
                       "spans": rows}, handle, separators=(",", ":"))
        return len(rows)
