"""Span tracer that times the package's layers from outside the package.

A :class:`Tracer` replaces public names in the module namespaces that call
them with timing wrappers and puts the originals back on exit.  Spans nest
through a stack: each wrapper adds its duration to the open parent's child
time, so a span's self time is its duration minus the time of the spans it
caused.  Names a later version of the package no longer has are skipped and
report zero calls.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass


@dataclass
class Span:
    """Totals over every call of one traced name."""

    calls: int = 0
    total_ns: int = 0
    child_ns: int = 0

    @property
    def self_ns(self) -> int:
        return self.total_ns - self.child_ns

    def per_call_us(self, self_only: bool = False) -> float:
        ns = self.self_ns if self_only else self.total_ns
        return ns / self.calls / 1e3 if self.calls else 0.0


class Tracer:
    """Context manager that wraps ``(span name, owner, attribute)`` sites.

    Several sites may share a span name: the same function bound in two
    modules counts as one layer.  ``observers`` maps a span name to a callback
    ``f(args, kwargs, result)`` that reads counts off each completed call.
    """

    def __init__(self, sites, observers=None):
        self.sites = list(sites)
        self.observers = dict(observers or {})
        self.spans: dict[str, Span] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object, bool]] = []

    def span(self, name: str) -> Span:
        return self.spans.setdefault(name, Span())

    def __enter__(self) -> "Tracer":
        for name, owner, attr in self.sites:
            if not hasattr(owner, attr):
                continue
            original = getattr(owner, attr)
            owned = attr in vars(owner)
            self._saved.append((owner, attr, original, owned))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, owned in reversed(self._saved):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()

    def _wrap(self, name, fn):
        span = self.span(name)
        stack = self._stack
        observe = self.observers.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                span.calls += 1
                span.total_ns += elapsed
                span.child_ns += children
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def consistent(self) -> bool:
        """Every span's children fit inside it, so self plus children is its total."""
        return all(0 <= s.child_ns <= s.total_ns for s in self.spans.values())


def span_cost_ns(calls: int = 20000) -> float:
    """Median added cost of one span, from an empty function traced and bare."""

    class Probe:
        @staticmethod
        def empty():
            return None

    def per_call(fn) -> float:
        start = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        return (time.perf_counter_ns() - start) / calls

    samples = []
    for _ in range(5):
        bare = per_call(Probe.empty)
        with Tracer([("probe", Probe, "empty")]):
            traced = per_call(Probe.empty)
        samples.append(traced - bare)
    samples.sort()
    return samples[len(samples) // 2]
