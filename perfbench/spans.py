"""Span recorder and operation counter installed around kerr_qlink's public
functions from outside the package.

Wrapping has two traps, and ``replace_everywhere`` handles both:

* ``kerr_qlink/__init__.py`` rebinds ``kerr_qlink.shift`` to the ``shift()``
  function, so the module is fetched from ``sys.modules``, never by attribute.
* modules import functions by name (``from .shift import shift``), so a
  wrapper must replace every binding of the function, not only the one in the
  defining module.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, NamedTuple, Optional

PACKAGE = "kerr_qlink"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    span_id: int
    parent_id: Optional[int]
    op_id: int


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of the span its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(s.span_id, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[s.span_id] = (s.end - s.start) - covered
    return out


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def find_defined(name: str):
    """The function or class called ``name`` where kerr_qlink defines it, or
    None when no module defines it."""
    for module in package_modules():
        obj = vars(module).get(name)
        if obj is not None and getattr(obj, "__module__", None) == module.__name__:
            return obj
    return None


class Patches:
    """Attribute replacements that ``undo`` reverts, newest first."""

    def __init__(self):
        self._undo: list[Callable[[], None]] = []

    def set(self, owner, attr: str, value) -> None:
        missing = object()
        old = vars(owner).get(attr, missing)
        if old is missing:
            self._undo.append(lambda: delattr(owner, attr))
        else:
            self._undo.append(lambda: setattr(owner, attr, old))
        setattr(owner, attr, value)

    def replace_everywhere(self, original, replacement) -> None:
        """Rebind every kerr_qlink module attribute that is ``original``."""
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


class Recorder:
    """Keeps one span per call of each wrapped function, in memory.

    Spans are recorded only between ``begin_op`` and ``end_op``, so output
    checks that call the same functions leave no spans.  The parent of a span
    is the innermost open span on the same thread.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op_id: Optional[int] = None
        self.last_op_id: Optional[int] = None
        self._op_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self._local = threading.local()

    def begin_op(self) -> int:
        self.op_id = self.last_op_id = next(self._op_ids)
        return self.op_id

    def end_op(self) -> None:
        self.op_id = None

    @contextlib.contextmanager
    def span(self, name: str):
        op_id = self.op_id
        if op_id is None:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._span_ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(name, start, end, span_id, parent, op_id))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(Span._fields) + "\n")
            for s in self.spans:
                parent = "" if s.parent_id is None else s.parent_id
                fh.write(f"{s.name},{s.start!r},{s.end!r},{s.span_id},{parent},{s.op_id}\n")


class OpCounter:
    """Counts outermost calls of wrapped functions, across threads.

    A call made from inside another counted call (``a - b`` runs ``__add__``)
    is not counted again, so the count is of operations written in the code.
    """

    def __init__(self):
        self.count = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            depth = getattr(self._local, "depth", 0)
            if depth == 0:
                with self._lock:
                    self.count += 1
            self._local.depth = depth + 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.depth = depth
        return counted
