"""Spans around firmopt's public functions, installed from outside.

A span wraps one function.  Installing it replaces the function wherever
a firmopt module binds it (``firmopt.verify`` imports ``integrate_exact``
by name, ``firmopt.solver`` reaches it through ``dynamics.``), so nested
calls between layers become child spans.  A span's self time is its
duration minus the time of the spans it called.  Counters only count
calls; the time they take stays in the caller's self time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


class SpanStats:
    __slots__ = ("calls", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Spans aggregated per name, kept in memory and read after the run."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self._children: list[float] = []

    def reset(self) -> None:
        self.stats.clear()

    def span(self, name, fn):
        stats, children = self.stats, self._children

        def traced(*args, **kwargs):
            children.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = children.pop()
                if children:
                    children[-1] += dt
                entry = stats[name]
                entry.calls += 1
                entry.self_s += dt - child

        return traced

    def counter(self, name, fn):
        stats = self.stats

        def counted(*args, **kwargs):
            stats[name].calls += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, spans, counters=()) -> None:
        """Wrap each ``"module.attr"`` or ``"module.Class.method"`` target.

        Targets are named relative to the ``firmopt`` package, and each
        span or counter takes its target's name.
        """
        for target in spans:
            _replace(target, lambda fn, t=target: self.span(t, fn))
        for target in counters:
            _replace(target, lambda fn, t=target: self.counter(t, fn))


def _replace(target: str, wrap) -> None:
    module_name, _, attr = target.partition(".")
    owner = sys.modules[f"firmopt.{module_name}"]
    if "." in attr:  # a method: the class is shared by every caller
        cls_name, _, attr = attr.partition(".")
        owner = getattr(owner, cls_name)
        setattr(owner, attr, wrap(getattr(owner, attr)))
        return
    original = getattr(owner, attr)
    wrapped = wrap(original)
    for name, module in list(sys.modules.items()):
        if name != "firmopt" and not name.startswith("firmopt."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)
