"""Outside-in tracing: wrap named public functions of the program.

A boundary is named ``"module:Qualified.name"``. Installing it replaces
the function on its class or module (and every ``from ... import`` alias
of a module function already loaded), so calls from anywhere in the
program pass through the wrapper. Nothing under ``src/`` changes.

Spans (name, start, end, parent, thread) are kept in memory and written
out once, when the traced process exits. A boundary that no longer exists
raises :class:`BoundaryMissing` at install time, so a rename in the
program breaks the benchmark visibly instead of reporting zero seconds.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from typing import Callable


#: Exit status of a traced or marked process whose boundary is missing.
MISSING_EXIT = 3


class BoundaryMissing(Exception):
    """A named boundary is not in the program any more."""


def resolve(target: str) -> tuple[object, str, object]:
    """``(owner, attribute, original)`` for ``"module:Qualified.name"``."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise BoundaryMissing(f"{target}: module not importable ({exc})") from exc
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise BoundaryMissing(f"{target}: {part} not found")
    attribute = parts[-1]
    if isinstance(owner, type):
        # Only a method the class itself defines: an inherited one would be
        # wrapped on the wrong class.
        original = owner.__dict__.get(attribute)
    else:
        original = getattr(owner, attribute, None)
    if original is None:
        raise BoundaryMissing(f"{target}: {attribute} not found")
    function = original.__func__ if isinstance(original, staticmethod) else original
    if not callable(function):
        raise BoundaryMissing(f"{target}: not callable")
    if inspect.isgeneratorfunction(function) or inspect.iscoroutinefunction(function):
        raise BoundaryMissing(f"{target}: generators and coroutines cannot be timed")
    return owner, attribute, original


def patch(target: str, make_wrapper: Callable[[Callable], Callable]) -> None:
    """Replace ``target`` with ``make_wrapper(original)`` everywhere it is bound."""
    owner, attribute, original = resolve(target)
    is_static = isinstance(original, staticmethod)
    function = original.__func__ if is_static else original
    wrapped = functools.wraps(function)(make_wrapper(function))
    setattr(owner, attribute, staticmethod(wrapped) if is_static else wrapped)
    if isinstance(owner, type):
        return
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for alias, value in list(vars(module).items()):
            if value is function:
                setattr(module, alias, wrapped)


class Tracer:
    """In-memory span recorder shared by every wrapped boundary."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        """Forget every span and count (in a forked worker: the parent's)."""
        #: Each span is ``[name, start, end, parent_span_or_None, thread]``.
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.extras: dict[str, object] = {}
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(
        self, name: str, key: str, on_return: Callable | None = None
    ) -> Callable:
        """A wrapper factory recording one span per call.

        Each call that returns adds one to ``counts[key]``.
        ``on_return(tracer, span, args, result)`` runs after the span has
        ended, so what it costs is not charged to the boundary.
        """

        def make_wrapper(function: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                stack = self._stack()
                span = [name, 0.0, 0.0, stack[-1] if stack else None, threading.get_ident()]
                stack.append(span)
                span[1] = self.clock()
                try:
                    result = function(*args, **kwargs)
                finally:
                    span[2] = self.clock()
                    stack.pop()
                    self.spans.append(span)
                self.counts[key] += 1
                if on_return is not None:
                    on_return(self, span, args, result)
                return result

            return wrapper

        return make_wrapper

    def hook(self, key: str, on_return: Callable) -> Callable:
        """A wrapper factory that records no span, only the count and
        ``on_return``."""

        def make_wrapper(function: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                result = function(*args, **kwargs)
                self.counts[key] += 1
                on_return(self, None, args, result)
                return result

            return wrapper

        return make_wrapper

    def export(self) -> dict:
        """Spans as compact rows with parent indices, plus counters."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        names: dict[str, int] = {}
        rows = []
        for span in self.spans:
            name_id = names.setdefault(span[0], len(names))
            parent = index.get(id(span[3]), -1) if span[3] is not None else -1
            rows.append([name_id, span[1], span[2], parent, span[4]])
        return {
            "names": list(names),
            "spans": rows,
            "counts": dict(self.counts),
            "extras": self.extras,
        }


def merge_trace(trace: dict, other: dict, process: str) -> None:
    """Add ``other`` (another process's export) into ``trace``.

    Its threads are tagged with ``process``: a forked worker's main thread
    has the same id as the thread that forked it.
    """
    names = trace["names"]
    name_ids = []
    for name in other["names"]:
        if name not in names:
            names.append(name)
        name_ids.append(names.index(name))
    offset = len(trace["spans"])
    for name_id, start, end, parent, thread in other["spans"]:
        trace["spans"].append(
            [
                name_ids[name_id],
                start,
                end,
                parent + offset if parent >= 0 else -1,
                f"{process}:{thread}",
            ]
        )
    for key, value in other["counts"].items():
        trace["counts"][key] = trace["counts"].get(key, 0.0) + value


def summarize(trace: dict) -> dict[str, dict[str, float]]:
    """Per span name: self seconds, and the calls and total seconds of the
    outermost spans (a span nested in one of the same name is not a call)."""
    names = trace["names"]
    rows = trace["spans"]
    child_time = [0.0] * len(rows)
    for row in rows:
        if row[3] >= 0:
            child_time[row[3]] += row[2] - row[1]
    summary: dict[str, dict[str, float]] = {}
    for position, row in enumerate(rows):
        name = names[row[0]]
        entry = summary.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        own = row[2] - row[1] - child_time[position]
        entry["self_s"] += own
        parent = row[3]
        if parent < 0 or rows[parent][0] != row[0]:
            entry["calls"] += 1
            entry["total_s"] += row[2] - row[1]
    return summary


def self_time_within(trace: dict, thread: int, start: float, end: float) -> float:
    """Self seconds of all spans on ``thread`` inside ``[start, end]``."""
    rows = trace["spans"]
    child_time = [0.0] * len(rows)
    for row in rows:
        if row[3] >= 0:
            child_time[row[3]] += row[2] - row[1]
    return sum(
        row[2] - row[1] - child_time[position]
        for position, row in enumerate(rows)
        if row[4] == thread and row[1] >= start and row[2] <= end
    )
