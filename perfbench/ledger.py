"""Self-time span ledger for the traced benchmark run.

A :class:`Ledger` keeps a stack of open spans.  Closing a span adds its
duration to the layer's inclusive time and its duration minus the time
its child spans covered to the layer's self time, so the self times of
all layers partition the interval the outermost spans cover: nothing is
counted twice and nothing inside a span is lost.  Counters ride along
so that ratios are measured where the work happens.

Layers are named after the repository's modules (``corpus.generate``,
``sqlparser.parse``, ``store.put`` ...).  Spans stay in memory and are
written out once, as one JSON document per process.
"""

from __future__ import annotations

import json
import os
import time


class Ledger:
    """Per-process span stack with self/inclusive time per layer."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}

    def _own(self) -> None:
        # a forked pool worker inherits the driver's ledger mid-span;
        # it starts its own from nothing
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.reset()

    def enter(self, layer: str) -> None:
        self._own()
        self.stack.append([layer, self.clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost span; returns its inclusive duration."""
        layer, start, children = self.stack.pop()
        duration = self.clock() - start
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - children
        self.incl_s[layer] = self.incl_s.get(layer, 0.0) + duration
        self.calls[layer] = self.calls.get(layer, 0) + 1
        if self.stack:
            self.stack[-1][2] += duration
        return duration

    def count(self, name: str, amount: float = 1) -> None:
        self._own()
        self.counts[name] = self.counts.get(name, 0) + amount

    @property
    def idle(self) -> bool:
        return not self.stack

    def as_dict(self) -> dict:
        return {
            "pid": self.pid,
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def dump(self, path, **extra) -> None:
        """Write this process's ledger (plus ``extra`` keys) atomically."""
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump({**self.as_dict(), **extra}, fh)
        os.replace(tmp, path)


def merge(documents: list[dict]) -> dict:
    """Sum several per-process ledgers key by key."""
    out = {"self_s": {}, "incl_s": {}, "calls": {}, "counts": {}}
    for doc in documents:
        for section in out:
            for key, value in doc.get(section, {}).items():
                out[section][key] = out[section].get(key, 0) + value
    return out
