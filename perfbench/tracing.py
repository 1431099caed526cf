"""In-memory spans and counters recorded around calls into the program.

The benchmark never edits the program: it replaces a public function,
method or registry entry with a wrapper that opens a span, calls the
original and closes the span.  Spans live in a list until the process
writes them out (:meth:`Tracer.dump`).  Each span records its name,
monotonic start and end in nanoseconds, the span that was open on the
same thread when it started, and an optional key (the request digest on
the service path), so the spans of one request can be joined.
"""

from __future__ import annotations

import functools
import threading
import time


class Tracer:
    """A span list plus timed counts, safe to use from many threads."""

    def __init__(self) -> None:
        # Each span is [name, start_ns, end_ns, parent_index, key] and
        # each count [name, time_ns, amount].
        self.spans: list[list] = []
        self.counts: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, key: str | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter_ns(), None, parent, key])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack().pop()

    def record(self, name: str, start_ns: int, end_ns: int, key=None) -> None:
        """Add a finished span measured elsewhere (no parent)."""
        with self._lock:
            self.spans.append([name, start_ns, end_ns, None, key])

    def reset(self) -> None:
        """Forget every span and counter; call with no span open."""
        with self._lock:
            self.spans.clear()
            self.counts.clear()

    def tag(self, key: str) -> None:
        """Key every open span of this thread that has no key yet."""
        for index in self._stack():
            if self.spans[index][4] is None:
                self.spans[index][4] = key

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts.append([name, time.perf_counter_ns(), amount])

    def wrap(self, fn, name: str):
        """``fn`` inside a span named ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def patch(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by its traced form.

        ``owner`` is a module, class or instance; class attributes are
        looked up raw so static and class methods keep their kind.
        """
        raw = (
            owner.__dict__[attribute]
            if isinstance(owner, type) and attribute in owner.__dict__
            else getattr(owner, attribute)
        )
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attribute, type(raw)(self.wrap(raw.__func__, name)))
        else:
            setattr(owner, attribute, self.wrap(raw, name))

    def dump(self) -> dict:
        """A JSON-ready copy; a span still open has end ``None``."""
        with self._lock:
            return {
                "spans": [list(span) for span in self.spans],
                "counts": [list(count) for count in self.counts],
            }


def self_ns(span, children) -> int:
    """A span's duration minus its child spans' durations.

    Children come from the same thread's stack and close before their
    parent, so they lie inside it and never overlap one another.
    """
    return (span[2] - span[1]) - sum(child[2] - child[1] for child in children)


def children_of(spans) -> dict[int, list]:
    """Parent index -> its direct child spans."""
    children: dict[int, list] = {}
    for span in spans:
        if span[3] is not None and span[2] is not None:
            children.setdefault(span[3], []).append(span)
    return children


def totals(spans) -> dict[str, tuple[float, int]]:
    """Span name -> (total seconds, call count)."""
    out: dict[str, list] = {}
    for span in spans:
        if span[2] is None:
            continue
        entry = out.setdefault(span[0], [0, 0])
        entry[0] += span[2] - span[1]
        entry[1] += 1
    return {name: (ns / 1e9, calls) for name, (ns, calls) in out.items()}
