"""Span tracer that wraps the public functions of each sdgateway layer.

Spans are recorded from the benchmark's own files, around the calls into
each layer; nothing inside the program changes.  A module-level function
is wrapped in every sdgateway module that binds it, because `from .coap
import decode` copies the reference into `lln` and `gateway`.  A method
is wrapped on its class.  Every simulator callback is wrapped where it is
scheduled (`Simulator.schedule_at`), which gives each span the id of the
event that caused it.

A span is (id, name, start, end, parent id, event id), times from
`time.perf_counter`.  Self time is a span's duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import time
from collections import Counter
from typing import Callable

from sdgateway import coap, directory, gateway, harness, lln, recovery, sim

# Span name -> (owner, attribute) of the function or method it wraps.
SPANS = {
    "coap.decode": (coap, "decode"),
    "coap.encode": (coap, "encode"),
    "coap.summarize": (coap, "summarize"),
    "directory.intercept_in": (directory.StateDirectory, "intercept_from_internet"),
    "directory.intercept_lln": (directory.StateDirectory, "intercept_from_lln"),
    "directory.entries_for_server": (directory.StateDirectory, "entries_for_server"),
    "gateway.on_frame": (gateway.Gateway, "on_frame"),
    "gateway.send_replay": (gateway.Gateway, "send_replay"),
    "recovery.on_registration": (recovery.RecoveryCoordinator, "on_registration"),
    "recovery.build_plan": (recovery, "build_plan"),
    "lln.send": (lln.Network, "send"),
    "lln.node_on_frame": (lln.VirtualNode, "on_frame"),
    "lln.client_on_frame": (lln.ScriptedClient, "on_frame"),
    "sim.run": (sim.Simulator, "run"),
    "sim.trace.emit": (sim.TraceRecorder, "emit"),
    "sim.trace.render": (sim.TraceRecorder, "lines"),
    "harness.build_world": (harness, "build_world"),
    "harness.evaluate": (harness, "_evaluate"),
    "harness.collect_metrics": (harness, "collect_metrics"),
}
# One span per executed simulator event, wrapped at scheduling time.
EVENT_SPAN = "sim.event"
SPAN_NAMES = tuple(SPANS) + (EVENT_SPAN,)

_EFFECT_NAMES = {
    directory.EffectKind.CREATED: "created",
    directory.EffectKind.UPDATED: "updated",
    directory.EffectKind.REMOVED: "removed",
    directory.EffectKind.NO_EFFECT: "none",
}


def _binding_sites(owner, attr: str, original) -> list:
    """Every place a call to `original` is looked up: the class for a
    method, else each sdgateway module that binds the same object."""
    if isinstance(owner, type):
        return [owner]
    return [m for name, m in sorted(sys.modules.items())
            if (name == "sdgateway" or name.startswith("sdgateway."))
            and getattr(m, attr, None) is original]


class Tracer:
    """Records spans while installed; `install()`/`uninstall()` bracket a
    traced repeat so untraced repeats run the unwrapped program."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.durations: dict[str, list[float]] = {name: [] for name in SPAN_NAMES}
        self.effects: Counter = Counter()
        self.malformed = 0
        self.entries_max = 0
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span id, child time]
        self._ids = itertools.count()
        self._event_ids = itertools.count()
        self._event = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording -----------------------------------------------------

    def span(self, name: str, fn: Callable) -> Callable:
        stack, spans, ids = self._stack, self.spans, self._ids
        calls, self_s, durations = self.calls, self.self_s, self.durations[name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                calls[name] += 1
                self_s[name] += duration - frame[1]
                durations.append(duration)
                spans.append((frame[0], name, start, end, parent, self._event))

        return traced

    # -- per-layer probes, run inside the layer's span ---------------------------

    def _decode(self, decode: Callable) -> Callable:
        def counted(data):
            try:
                return decode(data)
            except coap.MalformedFrame:
                self.malformed += 1
                raise
        return counted

    def _intercept(self, method: Callable) -> Callable:
        def counted(sd, *args, **kwargs):
            effect = method(sd, *args, **kwargs)
            self.effects[_EFFECT_NAMES[effect.kind]] += 1
            self.entries_max = max(self.entries_max, len(sd.entries))
            return effect
        return counted

    def _schedule_at(self, schedule_at: Callable) -> Callable:
        tracer = self

        def scheduled(simulator, when, fn, *args):
            event_id = next(tracer._event_ids)
            traced = tracer.span(EVENT_SPAN, fn)

            def event(*event_args):
                tracer._event = event_id
                try:
                    return traced(*event_args)
                finally:
                    tracer._event = -1

            return schedule_at(simulator, when, event, *args)
        return scheduled

    # -- installation -------------------------------------------------------------

    def _patch(self, site, attr: str, replacement) -> None:
        # None marks a method the class inherits: uninstall deletes the patch.
        self._patches.append((site, attr, site.__dict__.get(attr)))
        setattr(site, attr, replacement)

    def install(self) -> None:
        for name, (owner, attr) in SPANS.items():
            original = getattr(owner, attr, None)
            sites = _binding_sites(owner, attr, original) if original else []
            if not sites:
                self.missing.append(name)
                continue
            inner = original
            if name == "coap.decode":
                inner = self._decode(original)
            elif name.startswith("directory.intercept_"):
                inner = self._intercept(original)
            wrapped = self.span(name, inner)
            for site in sites:
                self._patch(site, attr, wrapped)
        self._patch(sim.Simulator, "schedule_at",
                    self._schedule_at(sim.Simulator.schedule_at))

    def uninstall(self) -> None:
        while self._patches:
            site, attr, original = self._patches.pop()
            if original is None:
                delattr(site, attr)
            else:
                setattr(site, attr, original)

    # -- results -------------------------------------------------------------------

    def percentiles_us(self) -> dict[str, tuple[float, float]]:
        """Span name -> (p50, p99) of its inclusive durations, in µs."""
        out = {}
        for name, samples in self.durations.items():
            if len(samples) < 2:
                out[name] = (samples[0] * 1e6,) * 2 if samples else (0.0, 0.0)
            else:
                cuts = statistics.quantiles(samples, n=100, method="inclusive")
                out[name] = (cuts[49] * 1e6, cuts[98] * 1e6)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\tevent\n")
            for sid, name, start, end, parent, event in sorted(self.spans):
                fh.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{event}\n")
