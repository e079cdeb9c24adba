"""Outside-in tracing shim for the fourval package.

The tracer replaces named functions in every ``fourval`` module namespace
that binds them (``engine`` imports ``is_model`` by name, for example) and
puts the originals back on ``restore``.  It changes no file of the package.

Three kinds of probe exist:

* ``span``: the call is timed.  Spans are aggregated per (span, parent)
  pair, so memory stays bounded however many calls are made; self time is
  the call's duration minus the time covered by traced calls made inside it.
* ``generator``: every resumption of the generator is a span; the number
  of items it yields is counted.
* ``counter``: calls are counted but not timed, for functions too small
  or too frequent for a span to be meaningful.

A span probe may carry a hook ``hook(tracer, args, kwargs, result)`` that
adds work counts derived from the arguments or the result.  A probe whose
function no longer exists is recorded as absent, not raised.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable

ROOT = "<root>"


@dataclass(frozen=True)
class Probe:
    name: str  # "module.function", relative to the package
    kind: str = "span"  # "span", "generator" or "counter"
    hook: Callable | None = None


class Tracer:
    def __init__(self, package: str = "fourval", clock: Callable[[], float] = time.perf_counter):
        self.package = package
        self.clock = clock
        self.stack: list[list] = []  # frames: [span name, time covered by child spans]
        self.spans: dict[tuple[str, str], list] = {}  # (span, parent) -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _enter(self, name: str) -> list:
        frame = [name, 0.0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list, elapsed: float) -> None:
        stack = self.stack
        stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += elapsed
        key = (frame[0], parent[0] if parent is not None else ROOT)
        rec = self.spans.get(key)
        if rec is None:
            rec = self.spans[key] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += elapsed - frame[1]

    def span_totals(self, name: str) -> tuple[int, float, float]:
        """(calls, total seconds, self seconds) of one span over all parents."""
        calls, total, own = 0, 0.0, 0.0
        for (span, _), (c, t, s) in self.spans.items():
            if span == name:
                calls += c
                total += t
                own += s
        return calls, total, own

    # -- wrappers --------------------------------------------------------

    def _wrap_span(self, name: str, fn, hook):
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, clock() - start)
            if hook is not None:
                # the hook is tracing work: keep it out of the caller's self time
                start = clock()
                hook(self, args, kwargs, result)
                if self.stack:
                    self.stack[-1][1] += clock() - start
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        clock = self.clock
        yielded = name + ".yielded"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                frame = self._enter(name)
                start = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._exit(frame, clock() - start)
                self.add(yielded)
                yield item

        return traced

    def _wrap_counter(self, name: str, fn):
        calls = name + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.add(calls)
            return fn(*args, **kwargs)

        return traced

    # -- installation ----------------------------------------------------

    def _modules(self) -> list:
        prefix = self.package + "."
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == self.package or n.startswith(prefix))]

    def install(self, probes: list[Probe]) -> None:
        """Wrap each probe's function wherever the package binds it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = self._modules()
        for probe in probes:
            mod_name, _, attr = probe.name.rpartition(".")
            home = sys.modules.get(f"{self.package}.{mod_name}")
            original = getattr(home, attr, None) if home is not None else None
            if original is None:
                if probe.name not in self.absent:
                    self.absent.append(probe.name)
                continue
            if probe.kind == "span":
                traced = self._wrap_span(probe.name, original, probe.hook)
            elif probe.hook is not None:
                raise ValueError(f"{probe.name}: only span probes take a hook")
            elif probe.kind == "generator":
                traced = self._wrap_generator(probe.name, original)
            else:
                traced = self._wrap_counter(probe.name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._patches.append((module, key, original))

    def restore(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()
