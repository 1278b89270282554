"""Outside-in layer timing for the benchmark's traced run.

A `Tracer` swaps public layer entry points (module functions, methods,
classmethods) for timing wrappers by attribute replacement, and puts every
original back on `restore`.  No file of the program changes.  Each wrapper
pushes a child-time accumulator on a stack, so a layer's self time is its
own duration minus the time spent in wrapped calls beneath it.

`NULL` is the tracer of untraced passes: its calls are no-ops, so untraced
and traced passes run the same code.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- timing ---------------------------------------------------------------

    def _close(self, name: str, t0: int) -> None:
        dt = _clock() - t0
        child = self._stack.pop()
        self.total_ns[name] += dt
        self.self_ns[name] += dt - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1] += dt

    def begin(self) -> int:
        """Open a call; `end(name, token)` closes it as one call of `name`.
        Calls open and close in stack order."""
        self._stack.append(0)
        return _clock()

    def end(self, name: str, token: int) -> None:
        self._close(name, token)

    @contextlib.contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own code as one call of `name`."""
        t0 = self.begin()
        try:
            yield
        finally:
            self.end(name, t0)

    def seconds(self, name: str) -> float:
        return self.total_ns[name] / 1e9

    def self_seconds(self, name: str) -> float:
        return self.self_ns[name] / 1e9

    # -- attribute replacement -------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *, before=None, after=None) -> None:
        """Replace `owner.attr` (a function in a module or class namespace, a
        classmethod or a staticmethod) by a timed wrapper.

        `before(*args, **kwargs)` runs ahead of the call and its result is
        handed to `after(pre, result, *args, **kwargs)`; neither counts in
        the wrapped layer's time.
        """
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            fn, rewrap = raw.__func__, type(raw)
        else:
            fn, rewrap = raw, None
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            pre = before(*args, **kwargs) if before is not None else None
            tracer._stack.append(0)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, t0)
            if after is not None:
                after(pre, result, *args, **kwargs)
            return result

        self._saved.append((owner, attr, raw))
        setattr(owner, attr, rewrap(timed) if rewrap else timed)

    def restore(self) -> list[tuple[object, str, object]]:
        """Put every replaced attribute back, newest first; returns the
        (owner, attribute, original) triples restored."""
        restored = []
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
            restored.append((owner, attr, raw))
        return restored


class _NullTracer:
    def begin(self) -> int:
        return 0

    def end(self, name: str, token: int) -> None:
        pass

    def span(self, name: str):
        return contextlib.nullcontext()


NULL = _NullTracer()
