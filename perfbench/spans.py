"""In-memory spans recorded from outside the library.

A ``Tracer`` replaces module attributes (``entrodual.stm.dual_gradient``,
``entrodual.harness.run_stm``, ...) with timing wrappers for the duration of
a ``with`` block and puts the original functions back on exit, even when the
block raises.  Nothing inside ``src/`` is changed: a call is only seen when it
goes through the wrapped module attribute, which is how the library's modules
call each other.

Each span records its name (``<module>.<function>`` of the wrapped
function's defining module, so ``entrodual.stm.dual_gradient`` and
``entrodual.acrcd.dual_gradient`` both record ``dual.dual_gradient``), start
and end from ``time.perf_counter``, the index of its parent span and a run id
shared by the spans of one traced call.  Spans nest strictly because the
library is single-threaded, so a span's self time is its duration minus the
durations of its direct children.
"""

import functools
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Wraps ``(module, attribute)`` pairs and records the calls made through them."""

    def __init__(self, targets):
        self.targets = list(targets)
        self.spans = []
        self.run = 0
        self._stack = []
        self._saved = []

    def __enter__(self):
        for module, attr in self.targets:
            original = getattr(module, attr, None)
            if original is None or not callable(original):
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(Span(name, time.perf_counter(), 0.0,
                              stack[-1] if stack else None, self.run))
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index].end = time.perf_counter()

        return wrapper

    def new_run(self):
        """Start a new run id; later spans belong to it."""
        self.run += 1
        return self.run


def self_times(spans):
    """Self time of every span: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child)]


class RunSpans:
    """Query helpers over the spans of one run id."""

    def __init__(self, tracer, run):
        index = [i for i, s in enumerate(tracer.spans) if s.run == run]
        self.spans = [tracer.spans[i] for i in index]
        selfs = self_times(tracer.spans)
        self.self = [selfs[i] for i in index]

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def calls(self, name):
        return len(self.named(name))

    def total(self, name):
        return sum(s.duration for s in self.named(name))

    def self_total(self, name):
        return sum(t for s, t in zip(self.spans, self.self) if s.name == name)

    def mean_self(self, name):
        n = self.calls(name)
        return self.self_total(name) / n if n else 0.0

    def mean(self, name):
        n = self.calls(name)
        return self.total(name) / n if n else 0.0

    def within(self, name, outer):
        """Total duration of ``name`` spans that started inside an ``outer`` span."""
        windows = [(s.start, s.end) for s in self.named(outer)]
        return sum(s.duration for s in self.named(name)
                   if any(a <= s.start and s.end <= b for a, b in windows))
