"""Deterministic discrete-event simulation core.

One seeded PRNG per simulation; every stochastic draw (link delay, loss,
MID seeding) pulls from it in event order, so identical scenario + seed
yields an identical event trace.
"""

from __future__ import annotations

import heapq
import itertools
import random
from math import inf
from operator import itemgetter
from typing import Callable, Optional

MAX_EVENTS = 2_000_000  # per `Simulator.run` call; more is a runaway simulation


class Event(list):
    """A scheduled call and its own heap entry: `[time, seq, fn, args]`.

    Entries compare as lists, in C: by time, then by `seq`, which is unique,
    so ties pop in scheduling order and a comparison never reaches `fn`.
    `cancel()` clears `fn`; the event loop skips such an entry.
    """

    __slots__ = ()

    time = property(itemgetter(0))

    def cancel(self) -> None:
        self[2] = None


class TraceRecorder:
    """Collects (time, kind, fields) records and renders stable text lines."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self.records: list[tuple[float, str, dict]] = []

    def emit(self, kind: str, **fields) -> None:
        self.records.append((self._clock(), kind, fields))

    def lines(self) -> list[str]:
        out = []
        for t, kind, fields in self.records:
            rendered = " ".join(f"{k}={v}" for k, v in fields.items())
            out.append(f"{t:12.3f} {kind} {rendered}".rstrip())
        return out

    def text(self) -> str:
        return "\n".join(self.lines()) + "\n"

    def find(self, kind: str, **match) -> list[tuple[float, dict]]:
        hits = []
        for t, k, fields in self.records:
            if k != kind:
                continue
            if all(fields.get(key) == value for key, value in match.items()):
                hits.append((t, fields))
        return hits

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.text())


class Simulator:
    """Event loop over simulated milliseconds.  Time never moves backward;
    ties pop in scheduling order."""

    def __init__(self, seed: int = 0) -> None:
        self.now = 0.0
        self.rng = random.Random(seed)
        self._queue: list[Event] = []
        self._seq = itertools.count()
        self.trace = TraceRecorder(lambda: self.now)

    def schedule(self, delay: float, fn: Callable, *args) -> Event:
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable, *args) -> Event:
        if not self.now <= time < inf:
            if time < self.now:
                raise ValueError(f"cannot schedule into the past: {time} < {self.now}")
            raise ValueError(f"cannot schedule at a non-finite time: {time}")
        event = Event((time, next(self._seq), fn, args))
        heapq.heappush(self._queue, event)
        return event

    def run(self, until: Optional[float] = None) -> None:
        """Process events with time <= `until` (all pending when None)."""
        queue, pop = self._queue, heapq.heappop
        limit = inf if until is None else until
        processed = 0
        while queue:
            if queue[0][0] > limit:
                break
            time, _, fn, args = pop(queue)
            if fn is None:
                continue
            processed += 1
            if processed > MAX_EVENTS:
                raise RuntimeError("event budget exhausted; runaway simulation?")
            self.now = time
            fn(*args)
        if until is not None and until > self.now:
            self.now = until
