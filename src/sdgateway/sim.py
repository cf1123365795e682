"""Deterministic discrete-event simulation core.

One seeded PRNG per simulation; every stochastic draw (link delay, loss,
MID seeding) pulls from it in event order, so identical scenario + seed
yields an identical event trace.
"""

from __future__ import annotations

import heapq
import itertools
import os
import random
from contextlib import ExitStack
from math import inf
from typing import Callable, Optional

from . import coap

MAX_EVENTS = 2_000_000  # per `Simulator.run` call; more is a runaway simulation


# Every kind of trace record, by the name `emit` takes, and its layout:
# the record's kind, then its fields in order.  A field written `name` is a
# value `emit` is given, kept as it is; `name:how` is one shown through
# `_SHOWN[how]`, or a frame's `traced` when `how` is `coap`; `name=text` is
# the same on every record of the kind, so it is not given.  A kind whose
# records differ in their fields is one name per variant.  To add a kind,
# add its line here and call `emit` with one value per given field, in
# order; `tests/test_source.py` checks each call.
TRACE_KINDS = {
    # lln.Network; `recv` is traced by each receiver a leg schedules
    "send": "send src:str dst:str msg:coap",
    "recv": "recv at:str msg:coap",
    "drop_no_route": "drop why=no-route dst:str",
    "drop_no_client": "drop why=no-client dst:str",
    "drop_loss": "drop why=loss src:str dst:str msg:coap",
    # lln.VirtualNode
    "boot": "boot node epoch",
    "assoc": "assoc node epoch delay:ms transmissions",
    "boot_failed": "boot_failed node epoch retries",
    "crash": "crash node epoch downtime",
    "drop_node_down": "drop why=node-down node msg:coap",
    "drop_node_malformed": "drop why=malformed node",
    "drop_blocked_booting": "drop why=blocked-booting node msg:coap",
    "drop_change_while_down": "drop why=change-while-down node uri",
    "load": "load node file source",
    "observer_add": "observer_add node uri client:str counter",
    "obs_drop": "obs_drop node uri client:str reason mid retries",
    "notify_ignored": "notify_ignored node uri client:str counter current",
    "notify": "notify node uri client:str obs mid type",
    "retransmit": "retransmit node uri mid attempt",
    "binding_add": "binding_add node uri dest:dest",
    "binding_put": "binding_put node src_uri dest:dest",
    # lln.ScriptedClient
    "client_warn_deregister": "client_warn client why=deregister-unknown uri",
    "client_warn_deploy": "client_warn client why=deploy-failed file",
    "deploy_done": "deploy_done client file",
    "silence": "silence client on",
    "client_retransmit": "client_retransmit client mid attempt",
    "client_timeout": "client_timeout client mid",
    "client_rejected": "client_rejected client mid",
    "drop_client_silent": "drop why=client-silent client",
    "drop_client_malformed": "drop why=malformed client",
    # gateway.Gateway
    "intercept": "intercept dir src:addr dst:addr",
    "gw_fwd_malformed": "gw ev=fwd_malformed dir dst:str",
    "gw_drop_malformed": "gw ev=drop_malformed src:str",
    "gw_unclaimed": "gw ev=unclaimed src:str msg:coap",
    "gw_reg_dup": "gw ev=reg_dup node mid",
    "gw_reg": "gw ev=reg node mid",
    "inject_retransmit": "inject_retransmit dst:str attempt",
    # directory.StateDirectory
    "sd": "sd dir effect:value et client:str server:str uri obs mid ret",
    "sd_remove": "sd_remove reason et server uri mid ret",
    # recovery.RecoveryCoordinator
    "reg": "reg node status:value",
    "recover_start": "recover_start node steps",
    "recover_abort": "recover_abort node at_step",
    "inject": "inject node step et uri src:str msg:coap",
    "consume": "consume dst:str msg:coap",
    "recover_step": "recover_step node step outcome:value",
    "recover_done": "recover_done node steps aborted delay:ms",
}

# How a `name:how` field is shown: an endpoint or any other value as `str`
# shows it, a duration in ms to three places, an intercepted frame's
# address without its port, a binding's destination, an enum member by its
# value.  A `coap` field is a frame's `traced` (its parse, or its bytes
# when they do not parse), shown as the text `_Texts` puts in its place.
_SHOWN = {"str": "{0}", "ms": "{0:.3f}", "addr": "<{0.addr}>",
          "dest": "{0.dest_addr}/{0.dest_resource}", "value": "{0.value}", "coap": "{0}"}


class _Texts(dict):
    """Frames' text by their `Frame.traced`, for one read of the trace: each
    distinct message is rendered once, as the text `coap.summarize` gives
    its bytes, `coap.encode(msg)`, and bytes that do not parse as theirs.
    Both are called as they are at that call, so a wrapper of either sees
    every render."""

    def __missing__(self, traced) -> str:
        raw = traced if isinstance(traced, bytes) else coap.encode(traced)
        text = self[traced] = coap.summarize(raw)
        return text


class _Layout:
    """One kind's layout, worked out once from its `TRACE_KINDS` line.

    A record is `t, name, *values` in the flat list; `text` renders exactly
    that slice, and `fields` gives its fields by name."""

    __slots__ = ("kind", "arity", "line", "frames", "_fields")

    def __init__(self, layout: str) -> None:
        self.kind, *words = layout.split()
        line = ["{0:12.3f}", self.kind]
        self.frames = ()  # where in the slice the `coap` fields are
        self._fields = []  # (name, index in the slice, render) or (name, None, text)
        given = 0
        for word in words:
            name, constant, text = word.partition("=")
            if constant:
                line.append(word)
                self._fields.append((name, None, text))
                continue
            name, _, how = name.partition(":")
            given += 1
            index = given + 1  # the slice is (t, name, *values)
            if how == "coap":
                self.frames += (index,)
            shown = _SHOWN[how] if how else None
            render = shown and shown.format
            line.append(name + "=" + (shown or "{0}").replace("{0", "{%d" % index))
            self._fields.append((name, index, render))
        self.arity = given
        self.line = " ".join(line)

    def text(self, record: list, texts: _Texts) -> str:
        """The line of a record's slice, a list that this fills in."""
        for index in self.frames:
            record[index] = texts[record[index]]
        return self.line.format(*record).rstrip()

    def fields(self, record: list, texts: _Texts) -> dict:
        """The fields of a record's slice, a list that this fills in, each
        as its line shows it; a value shown as it is keeps its own type."""
        for index in self.frames:
            record[index] = texts[record[index]]
        return {name: show if index is None else show(record[index]) if show else record[index]
                for name, index, show in self._fields}


_LAYOUTS = {name: _Layout(layout) for name, layout in TRACE_KINDS.items()}


class TraceRecords:
    """The trace's `(time, kind, fields)` records: a read-only view of a
    recorder's flat list, live as records are emitted.

    A pass over it builds each record when it reaches it, rendering each
    distinct frame once per pass, and keeps none; `len` counts records
    without building any."""

    __slots__ = ("_trace",)

    def __init__(self, trace: TraceRecorder) -> None:
        self._trace = trace

    def __iter__(self):
        texts = _Texts()
        for layout, record in self._trace._slices():
            yield record[0], layout.kind, layout.fields(record, texts)

    def __len__(self) -> int:
        flat, i, count = self._trace._flat, 0, 0
        end = len(flat)
        while i < end:
            i += 2 + _LAYOUTS[flat[i + 1]].arity
            count += 1
        return count


class TraceRecorder:
    """Collects trace records and renders them as stable text lines.

    `emit(name, *values)` appends `t, name, *values` to one flat list: the
    values by reference, in the order `TRACE_KINDS[name]` gives, with no
    dict, tuple or text per record; a frame is its `traced`, the parse the
    frame already holds, so no bytes are made while a run simulates.  Text
    is made only when it is read: `iter_lines()` renders each record
    through its kind's layout, `records` and `find` build
    `(t, kind, fields)` from it, and each read renders each distinct
    message once.  `lines()` and `text()` hold the whole text; a pass over
    `iter_lines()` or `records`, and `write`, hold one line or record at a
    time.  The flat list is the one container the trace makes that the
    cyclic garbage collector tracks; the parses it keeps are the frames'.
    """

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim  # each record's time is the simulator's `now` at `emit`
        self._flat: list = []

    def emit(self, kind: str, *values) -> None:
        flat = self._flat
        flat.append(self._sim.now)
        flat.append(kind)
        flat += values

    def _slices(self):
        """Each record's layout and its `t, name, *values` slice, for the
        records the trace holds when the pass starts."""
        flat, i, end = self._flat, 0, len(self._flat)
        while i < end:
            layout = _LAYOUTS[flat[i + 1]]
            j = i + 2 + layout.arity
            yield layout, flat[i:j]
            i = j

    @property
    def records(self) -> TraceRecords:
        """The (time, kind, fields) records, as a new view on each access."""
        return TraceRecords(self)

    def iter_lines(self):
        """The trace's lines, each rendered when the pass reaches it."""
        texts = _Texts()
        for layout, record in self._slices():
            yield layout.text(record, texts)

    def lines(self) -> list[str]:
        return list(self.iter_lines())

    def text(self) -> str:
        return "\n".join(self.lines()) + "\n"

    def find(self, kind: str, **match) -> list[tuple[float, dict]]:
        """The (time, fields) of each `kind` record whose fields equal `match`."""
        return [(t, fields) for t, k, fields in self.records
                if k == kind and all(fields.get(key) == value for key, value in match.items())]

    def write(self, *paths) -> None:
        """Write `text()` to each of `paths`, rendering it once, a line at a
        time; the same file named twice is written once."""
        with ExitStack() as stack:
            files = [stack.enter_context(open(path, "w", encoding="utf-8"))
                     for path in dict.fromkeys(map(os.path.realpath, paths))]
            # An empty trace's text is one empty line, as `text()` gives.
            for line in self.iter_lines() if self._flat else ("",):
                line += "\n"
                for fh in files:
                    fh.write(line)


class Simulator:
    """Event loop over simulated milliseconds.  Time never moves backward.

    An event is a plain list `[time, seq, fn, args]` and its own heap entry,
    made and pushed only by `schedule_at`, which returns it.  Entries compare
    as lists, in C: by time, then by the unique `seq`, so ties pop in
    scheduling order and `fn` is never compared.  `cancel(event)` clears
    `fn`, which the loop skips, and `args`, so a cancelled event holds
    nothing alive while it waits in the heap."""

    def __init__(self, seed: int = 0) -> None:
        self.now = 0.0
        self.rng = random.Random(seed)
        self._queue: list[list] = []
        self._seq = itertools.count()
        self.trace = TraceRecorder(self)

    def schedule(self, delay: float, fn: Callable, *args) -> list:
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable, *args) -> list:
        if not self.now <= time < inf:
            if time < self.now:
                raise ValueError(f"cannot schedule into the past: {time} < {self.now}")
            raise ValueError(f"cannot schedule at a non-finite time: {time}")
        event = [time, next(self._seq), fn, args]
        heapq.heappush(self._queue, event)
        return event

    @staticmethod
    def cancel(event: list) -> None:
        """Stop `event`, which `schedule_at` returned, from firing."""
        event[2] = event[3] = None

    def run(self, until: Optional[float] = None) -> None:
        """Process events with time <= `until` (all pending when None)."""
        queue, pop = self._queue, heapq.heappop
        limit = inf if until is None else until
        processed = 0
        while queue:
            if queue[0][0] > limit:
                break
            if processed == MAX_EVENTS and queue[0][2] is not None:
                # Raised before the pop, so the event stays queued.
                raise RuntimeError("event budget exhausted; runaway simulation?")
            time, _, fn, args = pop(queue)
            if fn is None:
                continue
            processed += 1
            self.now = time
            fn(*args)
        if until is not None and until > self.now:
            self.now = until
