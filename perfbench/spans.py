"""In-memory span recorder used by the traced benchmark runs.

Spans are recorded from the benchmark's own files only: :meth:`Tracer.wrap`
replaces a public function or method of the program with a wrapper that
opens a span around the original call, and :meth:`Tracer.unwrap_all` puts
every original back.  Nothing under ``src/`` is edited.

A span is ``(name, start, end, parent_index)``; ``parent_index`` is the
index of the innermost span open when it started (``-1`` for a root).  A
span's *self time* is its duration minus the time its direct children
cover, so the self times of a root and all its descendants sum to the
root's wall exactly; :func:`breakdown` reports that sum per span name.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple


class Tracer:
    """Records nested spans of the process that created it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []
        # Forked children (shard workers) inherit the wrappers; they must not
        # record into their private copy of this tracer.
        self._pid = os.getpid()

    # -- recording -----------------------------------------------------
    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(float("nan"))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        # Tolerate a child left open by an exception: unwind to ``index``.
        while self._stack:
            if self._stack.pop() == index:
                break

    def inside(self, name: str) -> bool:
        """Whether a span named ``name`` is open right now."""
        return any(self.names[index] == name for index in self._stack)

    def discard_open(self, name: str) -> None:
        """Drop an open root span that turned out to cover no work."""
        if self._stack and self.names[self._stack[-1]] == name:
            index = self._stack.pop()
            self.names[index] = "_discarded"
            self.ends[index] = self.starts[index]

    # -- wrapping ------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, on_result: Optional[Callable] = None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``owner`` is a class or a module.  Class-, static- and plain methods
        keep their binding.  ``on_result(result, args, kwargs)`` runs after
        the call, outside the span, for counters read from the result.
        """
        raw = inspect.getattr_static(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        function = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return function(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(index)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        setattr(owner, attr, kind(traced) if kind is not None else traced)
        self._patched.append((owner, attr, raw))

    def wrap_iterator(self, owner, attr: str, name: str) -> None:
        """Record one span per ``next()`` of the iterator ``owner.attr`` returns."""
        raw = inspect.getattr_static(owner, attr)
        tracer = self

        @functools.wraps(raw)
        def traced(*args, **kwargs):
            iterator = iter(raw(*args, **kwargs))
            while True:
                index = tracer.open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    tracer.close(index)
                    return
                tracer.close(index)
                yield item

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, raw))

    def wrap_value(self, owner, attr: str, value) -> None:
        """Replace ``owner.attr`` with ``value`` until :meth:`unwrap_all`."""
        self._patched.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- analysis ------------------------------------------------------
    def durations(self, name: str) -> List[float]:
        return [
            self.ends[i] - self.starts[i]
            for i, span_name in enumerate(self.names)
            if span_name == name
        ]

    def roots(self, name: str) -> List[int]:
        return [i for i, span_name in enumerate(self.names) if span_name == name]

    def self_times(self) -> List[float]:
        own = [self.ends[i] - self.starts[i] for i in range(len(self.names))]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (name, start, end, parent)."""
        with open(path, "w") as handle:
            for i, name in enumerate(self.names):
                if name == "_discarded":
                    continue
                handle.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": self.starts[i],
                            "end": self.ends[i],
                            "parent": self.parents[i],
                        }
                    )
                    + "\n"
                )


def breakdown(tracer: Tracer, root_name: str, roots: Optional[Iterable[int]] = None) -> Dict:
    """Self time per span name summed over the subtrees of ``root_name`` spans.

    Returns ``{"count": n, "wall_s": total root wall, "self_s": {name: s}}``;
    the root's own self time is the residual, reported under ``residual``.
    By construction ``sum(self_s.values()) == wall_s``.
    """
    own = tracer.self_times()
    children: Dict[int, List[int]] = defaultdict(list)
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            children[parent].append(i)
    selected = list(roots) if roots is not None else tracer.roots(root_name)
    totals: Dict[str, float] = defaultdict(float)
    wall = 0.0
    for root in selected:
        wall += tracer.ends[root] - tracer.starts[root]
        pending = [root]
        while pending:
            index = pending.pop()
            key = "residual" if index == root else tracer.names[index]
            totals[key] += own[index]
            pending.extend(children.get(index, ()))
    return {"count": len(selected), "wall_s": wall, "self_s": dict(totals)}
