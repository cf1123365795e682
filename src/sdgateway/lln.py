"""Virtual constrained nodes and their lossy multi-hop links.

Nodes model the volatile/persistent memory split: resources, observer
lists, bindings and loaded modules are wiped by a crash; flash and the
address survive.  Delivery over a link samples a per-hop delay and loss
from the simulation RNG; each directed path is FIFO (a frame never
overtakes an earlier one on the same path), which mirrors store-and-
forward radio behaviour and keeps CoAP exchanges well ordered.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import FrozenInstanceError, dataclass, field
from enum import Enum
from typing import Callable, Optional

from . import coap
from .coap import (
    ACK_TIMEOUT_MS,
    BAD_REQUEST,
    CHANGED,
    COAP_PORT,
    CONTENT,
    CONTINUE,
    CREATED,
    DELETED,
    EMPTY,
    EXCHANGE_LIFETIME_MS,
    GET,
    MAX_RETRANSMIT,
    NOT_FOUND,
    POST,
    PUT,
    BindingInfo,
    Block1,
    CoapMessage,
    Endpoint,
    MidAllocator,
    MsgType,
    OptionSet,
    _NO_OPTIONS,
    encode,
    is_request,
    is_response,
    registration_request,
)
from .sim import Simulator

FIFO_EPS = 0.001  # ms; minimal inter-arrival spacing on one path
EXTERNAL_DELAY_MS = 2.0  # one-way delay between a client and the gateway
DEFAULT_MAX_AGE = 60
DEFAULT_LOADER_PATH = "ldr"


class RDC(Enum):
    """Radio duty cycling model: always-on radio vs 99%-asleep radio."""

    NULLRDC = "nullrdc"
    CONTIKIMAC = "contikimac"


# Per-hop one-way delay ranges (ms), calibrated so a three-hop association
# round trip stays under 100 ms always-on and under 1 s duty-cycled.
_RDC_DELAY = {
    RDC.NULLRDC: (5.0, 15.0),
    RDC.CONTIKIMAC: (50.0, 250.0),
}


@dataclass
class LinkModel:
    """Hop count plus RDC-dependent per-hop delay and loss."""

    hops: int = 1
    rdc: RDC = RDC.NULLRDC
    delay_range: tuple[float, float] = field(init=False)
    loss: float = 0.0

    def __post_init__(self) -> None:
        self.delay_range = _RDC_DELAY[self.rdc]
        if type(self.hops) is not int or self.hops < 1:  # a bool is not a hop count
            raise ValueError(f"hops must be >= 1 and an int, not {self.hops!r}")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError(f"loss probability must be in [0, 1), not {self.loss!r}")

    def sample_delay(self, rng) -> float:
        # `lo + (hi - lo) * rng.random()` is `rng.uniform(lo, hi)`, draw for
        # draw and bit for bit, without a call per hop.
        lo, hi = self.delay_range
        span, draw = hi - lo, rng.random
        total = 0.0
        for _ in range(self.hops):
            total += lo + span * draw()
        return total

    def draw_lost(self, rng) -> bool:
        if self.loss == 0.0:
            return False
        lost = False
        for _ in range(self.hops):
            if rng.random() < self.loss:
                lost = True
        return lost


class Frame:
    """A UDP datagram in flight: a CoAP message plus addressing metadata.

    `parsed` is the parse of the frame's bytes: the message `coap.decode`
    returns for them, or None when they are malformed.  It is set once,
    when the frame is built, so a frame retransmitted or relayed as the
    same object is parsed once, and the frame is frozen so the parse
    cannot go stale.  `traced` is what a trace record keeps of the frame:
    `parsed`, or the bytes when they do not parse, rendered only when the
    trace is read.  A frame compares by identity.

    `Frame(raw, src, dst)` decodes `raw`; it is only for bytes from outside
    the program, such as injected or malformed frames.  Every frame the
    program builds from a message is `Frame.of(msg, src, dst)`, which
    `encode` accepts exactly when `decode(encode(msg)) == msg`: its parse is
    `coap.parse_encoded(msg)`, that message made without the bytes.  `raw`,
    the bytes every hop would forward, are encoded from the parse the first
    time they are read, and kept; nothing in a simulated run reads them.
    """

    # `_raw` is None until `raw` is first read.
    __slots__ = ("src", "dst", "parsed", "traced", "_raw")

    def __init__(self, raw: bytes, src: Endpoint, dst: Endpoint) -> None:
        try:
            parsed = coap.decode(raw)
        except coap.MalformedFrame:
            parsed = None
        for name, value in (("src", src), ("dst", dst), ("parsed", parsed),
                            ("traced", raw if parsed is None else parsed), ("_raw", raw)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"Frame(src={self.src!r}, dst={self.dst!r}, parsed={self.parsed!r})"

    @property
    def raw(self) -> bytes:
        """The frame's bytes, `encode(msg)` for a frame built from `msg`."""
        raw = self._raw
        if raw is None:
            raw = encode(self.parsed)
            object.__setattr__(self, "_raw", raw)
        return raw

    @classmethod
    def of(cls, msg: CoapMessage, src: Endpoint, dst: Endpoint) -> Frame:
        """The frame of the bytes `encode(msg)`, made without them: its
        parse is `decode(encode(msg))`, `msg` itself when `msg` holds the
        option set a parse holds.  It raises what `encode(msg)` raises."""
        parsed = coap.parse_encoded(msg)
        frame = _FrameSlots()  # plain slot writes, then the frozen class
        frame.src, frame.dst, frame._raw = src, dst, None
        frame.parsed = frame.traced = parsed
        frame.__class__ = cls
        return frame


class _FrameSlots:
    __slots__ = Frame.__slots__  # `Frame`'s layout, without its `__setattr__`


class Confirmable:
    """One confirmable exchange (RFC 7252 section 4.2) of a single `Frame`.

    Building it enters it in `table`, its owner's open exchanges, and sends
    the frame through `transmit(frame)`, which only schedules the delivery,
    so the owner holds the exchange before any answer can arrive.  While it
    is open, the n-th transmission times out after ACK_TIMEOUT_MS *
    2**(n-1) and the same frame goes out again, after `on_retry(attempt)`
    with attempt = n, as long as n <= MAX_RETRANSMIT; the timeout after the
    last one calls `on_give_up()`.  `answer(table, frame)` closes it and calls
    `on_answer(frame)`, and the owner closes it with `cancel()`.  A closed
    exchange has left the table and holds no callbacks, which usually reach
    the owner, so the two are freed by reference counting alone.
    """

    __slots__ = ("frame", "transmissions", "_sim", "_transmit", "_table", "_key",
                 "_on_answer", "_on_retry", "_on_give_up", "_timer")

    def __init__(self, sim: Simulator, frame: Frame, transmit: Callable[[Frame], None], *,
                 table: dict, on_answer: Callable[[Frame], None],
                 on_give_up: Callable[[], None],
                 on_retry: Optional[Callable[[int], None]] = None) -> None:
        self.frame = frame
        self.transmissions = 0
        self._sim = sim
        self._transmit = transmit
        self._table = table
        self._on_answer = on_answer
        self._on_retry = on_retry
        self._on_give_up = on_give_up
        self._key = (frame.dst, frame.src, frame.parsed.mid)
        table[self._key] = self
        self._send()

    def _send(self) -> None:
        self.transmissions += 1
        self._timer = self._sim.schedule_at(
            self._sim.now + ACK_TIMEOUT_MS * 2 ** (self.transmissions - 1), self._timeout)
        self._transmit(self.frame)

    def _timeout(self) -> None:
        if self.transmissions > MAX_RETRANSMIT:
            on_give_up = self._on_give_up
            self.cancel()
            on_give_up()
            return
        if self._on_retry is not None:
            self._on_retry(self.transmissions)
        self._send()

    def cancel(self) -> None:
        if self._timer is not None:  # not yet closed
            self._sim.cancel(self._timer)
            self._table.pop(self._key, None)
        self._timer = self._transmit = self._table = self._key = self._on_answer = None
        self._on_retry = self._on_give_up = None


# Module-level names for the enum members the per-frame paths test: one
# global read or set lookup, not an enum member read (about 4x a global).
_SIGNALS = frozenset((MsgType.ACK, MsgType.RST))
_CON, _NON, _ACK, _RST = MsgType
# `_new(CoapMessage, fields)`: all fields in order, without the NamedTuple's
# Python-level keyword `__new__`, as `coap.parse_encoded` builds one.
_new = tuple.__new__


def answer(table: dict, frame: Frame) -> bool:
    """The one matching rule for answers (RFC 7252 sections 4.2-4.3): an ACK
    or RST closes the open exchange in `table` that was sent to the frame's
    source, from the frame's destination, with the frame's MID, and calls
    its `on_answer(frame)`.  Returns whether the frame closed one."""
    msg = frame.parsed
    exchange = table.get((frame.src, frame.dst, msg.mid)) if msg.msg_type in _SIGNALS else None
    if exchange is None:
        return False
    on_answer = exchange._on_answer
    exchange.cancel()
    on_answer(frame)
    return True


class Deduplicator:
    """The replies to the confirmable messages received in the last
    EXCHANGE_LIFETIME_MS, by (peer endpoint, MID) as in RFC 7252 section
    4.5: a duplicate gets the same reply and is not processed again.
    Entries expire in keep order; flat (address, port, MID) keys and float
    keep times in a deque leave the garbage collector nothing per entry."""

    __slots__ = ("_sim", "_replies", "_times")

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._replies: dict[tuple[str, int, int], object] = {}  # in keep order
        self._times: deque[float] = deque()

    def reply(self, peer: Endpoint, mid: int):
        """The reply kept for a message from `peer` with `mid`, or None."""
        times, replies = self._times, self._replies
        while times and times[0] <= self._sim.now - EXCHANGE_LIFETIME_MS:
            times.popleft()
            del replies[next(iter(replies))]
        return replies.get((peer.addr, peer.port, mid))

    def keep(self, peer: Endpoint, mid: int, reply):
        """Keep and return `reply`, not None, for a message `reply()` found new."""
        self._replies[peer.addr, peer.port, mid] = reply
        self._times.append(self._sim.now)
        return reply


class Network:
    """Routes frames between clients, the gateway and LLN nodes.

    External traffic always transits the gateway; traffic between two LLN
    nodes stays inside the LLN and is never seen by the gateway.
    """

    def __init__(self, sim: Simulator, *, lln_prefix: str, gateway_addr: str) -> None:
        if gateway_addr.startswith(lln_prefix):
            raise ValueError("gateway address must sit outside the LLN prefix")
        self.sim = sim
        self.lln_prefix = lln_prefix
        self.gateway_addr = gateway_addr
        self.nodes: dict[str, "VirtualNode"] = {}
        self.clients: dict[str, "ScriptedClient"] = {}
        self.gateway = None
        self.blackholes: set[str] = set()
        self._last_arrival: dict[tuple, float] = {}
        self._endpoints: dict[tuple[str, int], Endpoint] = {}

    def endpoint(self, addr: str, port: int = COAP_PORT) -> Endpoint:
        """The one `Endpoint` for (addr, port) in this network: frames,
        directory entries and trace records all hold it by reference."""
        key = (addr, port)
        endpoint = self._endpoints.get(key)
        if endpoint is None:
            endpoint = self._endpoints[key] = Endpoint(addr, port)
        return endpoint

    # -- routing --------------------------------------------------------

    def send(self, frame: Frame) -> None:
        self.sim.trace.emit("send", frame.src, frame.dst, frame.traced)
        src, prefix = frame.src.addr, self.lln_prefix
        if not src.startswith(prefix):
            self._leg(frame, None, ("ext_in", src), self.gateway.on_frame)
        elif frame.dst.addr.startswith(prefix):
            self.deliver_to_node(frame, origin=src)
        else:
            self._leg(frame, self.nodes[src], ("up", src), self.gateway.on_frame)

    def deliver_to_node(self, frame: Frame, origin: str = "gw") -> None:
        node = self.nodes.get(frame.dst.addr)
        if node is None:
            self.sim.trace.emit("drop_no_route", frame.dst)
            return
        self._leg(frame, node, ("down", origin, frame.dst.addr), node.on_frame)

    def deliver_to_client(self, frame: Frame) -> None:
        client = self.clients.get(frame.dst.addr)
        if client is None:
            self.sim.trace.emit("drop_no_client", frame.dst)
            return
        self._leg(frame, None, ("ext_out", frame.dst.addr), client.on_frame)

    def _leg(self, frame: Frame, node: Optional["VirtualNode"], path_key: tuple,
             handler: Callable[[Frame], None]) -> None:
        """Carry `frame` over `node`'s link, or the external network when
        `node` is None, to `handler(frame)`, which traces its `recv`.
        A link leg draws `sample_delay` then `draw_lost` from the link as it
        is now, blackholed or not, so a blackhole moves no later draw;
        arrivals on `path_key` stay FIFO."""
        sim = self.sim
        if node is None:
            arrival = sim.now + EXTERNAL_DELAY_MS
        else:
            link, rng = node.link, sim.rng
            delay = link.sample_delay(rng)
            lost = link.loss != 0.0 and link.draw_lost(rng)
            if lost or node.addr in self.blackholes:
                sim.trace.emit("drop_loss", frame.src, frame.dst, frame.traced)
                return
            arrival = sim.now + delay
        floor = self._last_arrival.get(path_key)
        if floor is not None and arrival < floor + FIFO_EPS:
            arrival = floor + FIFO_EPS
        self._last_arrival[path_key] = arrival
        sim.schedule_at(arrival, handler, frame)


class NodeState(Enum):
    DOWN = "down"
    BOOTING = "booting"
    UP = "up"
    STALLED = "stalled"
    __hash__ = object.__hash__  # as `coap.InteractionKind`: no Python-level call per lookup


_POWERED_OFF = frozenset((NodeState.DOWN, NodeState.STALLED))
_BOOTING = NodeState.BOOTING


@dataclass
class Observer:
    client: Endpoint
    token: bytes
    counter: int = 0
    last_mid: Optional[int] = None
    sent_since_register: int = 0
    pending: Optional[Confirmable] = None  # the unacknowledged CON notification


@dataclass
class Binding:
    info: BindingInfo
    source_resource: str
    last_sent: float = 0.0
    pending_event: Optional[list] = None  # events, as `Simulator.schedule_at` returns them
    keepalive_event: Optional[list] = None


class VirtualNode:
    """A constrained CoAP server with boot/crash lifecycle.

    Everything except `flash` and the address is volatile.  While booting,
    the node blocks on its confirmable registration: no other traffic is
    served until the gateway acknowledgement arrives.
    """

    def __init__(self, sim: Simulator, network: Network, *, name: str, addr: str,
                 link: LinkModel, defaults: Optional[dict[str, bytes]] = None,
                 loader_path: str = DEFAULT_LOADER_PATH) -> None:
        self.sim = sim
        self.network = network
        self.name = name
        self.addr = addr
        self.endpoint = network.endpoint(addr)
        self.link = link
        self.loader_path = loader_path
        self.defaults: dict[str, bytes] = dict(defaults or {})
        self.flash: dict[str, bytes] = {}

        self.state = NodeState.DOWN
        self.boot_epoch = 0
        self.resources: dict[str, bytes] = {}
        self.observers: dict[tuple[str, Endpoint], Observer] = {}
        self.bindings: dict[tuple[str, str, str], Binding] = {}
        self.loaded_modules: set[str] = set()
        self.mid_alloc: Optional[MidAllocator] = None
        self.associations: list[tuple[int, float, float]] = []
        # Open registration and CON notifications; replies to requests.
        self._exchanges: dict[tuple[Endpoint, Endpoint, int], Confirmable] = {}
        self._replies: Optional[Deduplicator] = None
        self._incoming_blocks: dict[tuple[Endpoint, str], list[bytes]] = {}
        self._registration: Optional[Confirmable] = None
        self._reg_sent_at = 0.0

    # -- lifecycle -------------------------------------------------------

    def boot(self) -> None:
        self._cancel_exchanges()
        self.boot_epoch += 1
        self.resources = dict(self.defaults)
        self.observers.clear()
        self.bindings.clear()
        self.loaded_modules.clear()
        self._replies = Deduplicator(self.sim)
        self._incoming_blocks.clear()
        self.mid_alloc = MidAllocator(self.sim.rng)
        self.state = NodeState.BOOTING
        self.sim.trace.emit("boot", self.name, self.boot_epoch)
        frame = Frame.of(registration_request(self.mid_alloc.next_mid()), self.endpoint,
                         self.network.endpoint(self.network.gateway_addr))
        self._reg_sent_at = self.sim.now
        self._registration = Confirmable(self.sim, frame, self.network.send,
                                         table=self._exchanges, on_answer=self._registered,
                                         on_give_up=self._registration_failed)

    def _registered(self, _answer: Frame) -> None:
        self.state = NodeState.UP
        self.associations.append((self.boot_epoch, self._reg_sent_at, self.sim.now))
        self.sim.trace.emit("assoc", self.name, self.boot_epoch,
                            self.sim.now - self._reg_sent_at, self._registration.transmissions)

    def _registration_failed(self) -> None:
        self.state = NodeState.STALLED
        self.sim.trace.emit("boot_failed", self.name, self.boot_epoch, MAX_RETRANSMIT)

    def _cancel_exchanges(self) -> None:
        # No retransmission or binding timer outlives its boot epoch.
        for exchange in list(self._exchanges.values()):
            exchange.cancel()
        for b in self.bindings.values():
            for ev in (b.pending_event, b.keepalive_event):
                if ev is not None:
                    self.sim.cancel(ev)

    def crash(self, downtime_ms: float) -> None:
        """Power the running node off for `downtime_ms`, then boot it again."""
        if self.state is not NodeState.UP:
            # Raised rather than asserted, so that `python -O` keeps the check.
            raise AssertionError("crash requires a running node")
        self.state = NodeState.DOWN
        self._cancel_exchanges()
        self.sim.trace.emit("crash", self.name, self.boot_epoch, downtime_ms)
        self.sim.schedule(downtime_ms, self.boot)

    def dynamic_state(self) -> dict:
        """Canonical volatile state, excluding MIDs, timestamps and the
        boot epoch; comparable across a crash/recovery cycle."""
        return {
            "resources": dict(self.resources),
            "observers": tuple(sorted(
                (path, ep.addr, ep.port, o.token.hex(), o.counter)
                for (path, ep), o in self.observers.items())),
            "bindings": tuple(sorted(
                (b.source_resource, b.info.dest_addr, b.info.dest_resource,
                 b.info.pmin, b.info.pmax)
                for b in self.bindings.values())),
            "loaded_modules": tuple(sorted(self.loaded_modules)),
        }

    # -- receive path ------------------------------------------------------

    def on_frame(self, frame: Frame) -> None:
        self.sim.trace.emit("recv", frame.dst, frame.traced)
        if self.state in _POWERED_OFF:
            self.sim.trace.emit("drop_node_down", self.name, frame.traced)
            return
        msg = frame.parsed
        if msg is None:
            self.sim.trace.emit("drop_node_malformed", self.name)
            return
        if self.state is _BOOTING:
            # Only the registration's answer gets through.
            if not answer(self._exchanges, frame):
                self.sim.trace.emit("drop_blocked_booting", self.name, frame.traced)
            return
        if msg.msg_type is _RST:
            self._on_rst(frame.src, msg.mid)
        elif is_request(msg.code):
            self._serve(frame, msg)
        else:  # an ACK may close an exchange; responses need no action
            answer(self._exchanges, frame)

    def _serve(self, frame: Frame, msg: CoapMessage) -> None:
        """Answer a request, then send what the change it made causes: the
        response goes out before its notifications and binding pushes."""
        if msg.msg_type is _CON:
            kept = self._replies.reply(frame.src, msg.mid)
            if kept is not None:
                self.network.send(kept)
                return
        o = msg.options
        path = o.path_str()
        reply = self._reply
        if msg.code == GET:
            if o.binding is not None and o.observe is not None:
                self._install_binding(frame, msg, path)
            elif path not in self.resources:
                reply(frame, msg, NOT_FOUND)
            elif o.observe == coap.OBSERVE_DEREGISTER_VALUE:
                self._remove_observer(path, frame.src, reason="deregister")
                reply(frame, msg, CONTENT, self.resources[path])
            elif o.observe is not None:
                self._register_observer(frame, msg, path)
            else:
                reply(frame, msg, CONTENT, self.resources[path])
        elif msg.code in (PUT, POST) and o.block1 is not None and path == self.loader_path:
            self._deploy_block(frame, msg)
        elif msg.code == PUT:
            self.resources[path] = msg.payload
            reply(frame, msg, CHANGED)
            self._resource_changed(path)
        elif msg.code == POST:
            filename = o.query_value("file")
            if path != self.loader_path:
                reply(frame, msg, NOT_FOUND)
            elif not filename or filename not in self.flash:
                reply(frame, msg, BAD_REQUEST)
            else:
                self.loaded_modules.add(filename)
                self.sim.trace.emit("load", self.name, filename, "flash")
                reply(frame, msg, CREATED)
        elif msg.code != coap.DELETE:  # a method this node does not implement
            reply(frame, msg, coap.METHOD_NOT_ALLOWED)
        elif path in self.resources:
            del self.resources[path]
            reply(frame, msg, DELETED)
        else:
            reply(frame, msg, NOT_FOUND)

    def _reply(self, frame: Frame, msg: CoapMessage, code: int, payload: bytes = b"",
               options: OptionSet = _NO_OPTIONS) -> None:
        """Send the response to the request `msg` in `frame`: to a CON the
        piggy-backed ACK, kept for the request's duplicates, else a NON."""
        con = msg.msg_type is _CON
        mid = msg.mid if con else self.mid_alloc.next_mid()
        reply = Frame.of(_new(CoapMessage, (_ACK if con else _NON, code, mid, msg.token,
                                            options, payload)), self.endpoint, frame.src)
        if con:
            self._replies.keep(frame.src, mid, reply)
        self.network.send(reply)

    def _deploy_block(self, frame: Frame, msg: CoapMessage) -> None:
        block = msg.options.block1
        filename = msg.options.query_value("file")
        if not filename:
            self._reply(frame, msg, BAD_REQUEST)
            return
        key = (frame.src, filename)
        if block.num == 0:
            self._incoming_blocks[key] = []
        buf = self._incoming_blocks.setdefault(key, [])
        buf.append(msg.payload)
        if block.more:
            self._reply(frame, msg, CONTINUE, b"", coap.response_options(block1=block))
            return
        del self._incoming_blocks[key]
        # Raw image lands in permanent storage first, then is relocated
        # into main memory.
        self.flash[filename] = b"".join(buf)
        self.loaded_modules.add(filename)
        self.sim.trace.emit("load", self.name, filename, "transfer")
        self._reply(frame, msg, CREATED, b"", coap.response_options(block1=block))

    # -- observe ----------------------------------------------------------

    def _register_observer(self, frame: Frame, msg: CoapMessage, path: str) -> None:
        src = frame.src
        key = (path, src)
        value = msg.options.observe
        obs = self.observers.get(key)
        if obs is None:
            obs = Observer(client=src, token=msg.token,
                           counter=value if value > 0 else 0)
            self.observers[key] = obs
        else:
            obs.token = msg.token
            if value > 0:
                # Nonzero registration value seeds the counter so a replayed
                # registration continues the pre-crash numbering.
                obs.counter = value
        obs.sent_since_register = 0
        self.sim.trace.emit("observer_add", self.name, path, src, obs.counter)
        self._reply(frame, msg, CONTENT, self.resources[path],
                    coap.response_options(obs.counter, DEFAULT_MAX_AGE))
        # Immediate state push after (re)registration, counter unchanged;
        # it runs right after the response is sent, not from a timer.
        self._send_notification(path, obs)

    def _remove_observer(self, path, src, *, reason: str, mid=None) -> None:
        key = (path, src)
        obs = self.observers.pop(key, None)
        if obs is None:
            return
        retries = 0
        if obs.pending is not None:
            obs.pending.cancel()
            retries = obs.pending.transmissions - 1
        self.sim.trace.emit("obs_drop", self.name, path, src, reason,
                            obs.last_mid if mid is None else mid, retries)

    def change_resource(self, path: str, value: bytes) -> None:
        """Internal state change (e.g. a sensor reading): updates the
        resource and fans out to observers and bindings."""
        if self.state is not NodeState.UP:
            self.sim.trace.emit("drop_change_while_down", self.name, path)
            return
        self.resources[path] = value
        self._resource_changed(path)

    def notify(self, path: str, counter: Optional[int] = None) -> None:
        """Notify all observers of `path`; the counter jumps to `counter`
        when given (node-controlled, never backward: an observer whose
        counter is already past it is skipped and traced), else increments."""
        for (p, _), obs in list(self.observers.items()):
            if p != path:
                continue
            if counter is not None:
                if counter < obs.counter:
                    self.sim.trace.emit("notify_ignored", self.name, path, obs.client,
                                        counter, obs.counter)
                    continue
                if counter == 1:
                    raise ValueError("observe counter 1 is the cancellation sentinel")
                obs.counter = counter
            else:
                obs.counter = coap.next_observe(obs.counter)
            self._send_notification(path, obs)

    def _resource_changed(self, path: str) -> None:
        self.notify(path)
        for b in self.bindings.values():
            if b.source_resource == path:
                self._binding_due(b)

    def _send_notification(self, path: str, obs: Observer) -> None:
        # The first notification after a (re)registration is NON, later ones CON.
        mtype = _NON if obs.sent_since_register == 0 else _CON
        mid = self.mid_alloc.next_mid()
        msg = _new(CoapMessage, (mtype, CONTENT, mid, obs.token,
                                 coap.response_options(obs.counter, DEFAULT_MAX_AGE),
                                 self.resources.get(path, b"")))
        frame = Frame.of(msg, self.endpoint, obs.client)
        obs.last_mid = mid
        obs.sent_since_register += 1
        self.sim.trace.emit("notify", self.name, path, obs.client, obs.counter, mid,
                            coap._TYPE_NAMES[mtype])
        if mtype is _NON:
            self.network.send(frame)
            return
        if obs.pending is not None:
            obs.pending.cancel()  # newer state supersedes the pending one

        def acked(_answer: Frame) -> None:
            obs.pending = None

        obs.pending = Confirmable(
            self.sim, frame, self.network.send, table=self._exchanges, on_answer=acked,
            on_retry=lambda attempt: self.sim.trace.emit(
                "retransmit", self.name, path, mid, attempt),
            on_give_up=lambda: self._remove_observer(path, obs.client,
                                                     reason="retransmit-limit", mid=mid))

    def _on_rst(self, src: Endpoint, mid: int) -> None:
        for (path, client), obs in list(self.observers.items()):
            if client == src and obs.last_mid == mid:
                self._remove_observer(path, src, reason="rst", mid=mid)
                return

    # -- bindings -----------------------------------------------------------

    def _install_binding(self, frame: Frame, msg: CoapMessage, path: str) -> None:
        if path not in self.resources:
            self._reply(frame, msg, NOT_FOUND)
            return
        info = msg.options.binding
        key = (path, info.dest_addr, info.dest_resource)
        binding = self.bindings.get(key)
        if binding is None:
            binding = Binding(info=info, source_resource=path, last_sent=self.sim.now)
            self.bindings[key] = binding
        else:
            binding.info = info
            binding.last_sent = self.sim.now
        self.sim.trace.emit("binding_add", self.name, path, info)
        self._schedule_keepalive(binding)
        self._reply(frame, msg, CONTENT, self.resources[path], coap.response_options(0))

    def _binding_due(self, binding: Binding) -> None:
        pmin_ms = binding.info.pmin * 1000.0
        wait = binding.last_sent + pmin_ms - self.sim.now
        if wait <= 0:
            self._send_binding_put(binding)
        elif binding.pending_event is None:
            binding.pending_event = self.sim.schedule(wait, self._binding_fire, binding)

    def _binding_fire(self, binding: Binding) -> None:
        binding.pending_event = None
        if binding.source_resource in self.resources:
            self._send_binding_put(binding)

    def _send_binding_put(self, binding: Binding) -> None:
        if binding.pending_event is not None:  # this push carries the current value
            self.sim.cancel(binding.pending_event)
            binding.pending_event = None
        msg = coap.request(_NON, PUT, self.mid_alloc.next_mid(), binding.info.dest_resource,
                           payload=self.resources.get(binding.source_resource, b""))
        binding.last_sent = self.sim.now
        self.sim.trace.emit("binding_put", self.name, binding.source_resource, binding.info)
        self.network.send(Frame.of(msg, self.endpoint,
                                   self.network.endpoint(binding.info.dest_addr)))
        self._schedule_keepalive(binding)

    def _schedule_keepalive(self, binding: Binding) -> None:
        if binding.keepalive_event is not None:
            self.sim.cancel(binding.keepalive_event)
        binding.keepalive_event = self.sim.schedule(
            binding.info.pmax * 1000.0, self._binding_keepalive, binding)

    def _binding_keepalive(self, binding: Binding) -> None:
        if binding.source_resource in self.resources:
            self._send_binding_put(binding)


@dataclass
class Relationship:
    """A client's observe relationship: the port and token it keeps for its
    whole lifetime, and whether the next notification is answered with RST."""

    port: int
    token: bytes
    cancel: bool = False


class ScriptedClient:
    """External CoAP client driven by scenario events.

    Opens a fresh source port per request; an observe relationship keeps
    its port and token for its whole lifetime so deregistration and ACKs
    stay correlated.  A notification finds its relationship by (node
    address, token); a duplicate CON notification is acknowledged again
    and recorded once.  While silenced it neither acknowledges nor resets
    incoming notifications.
    """

    def __init__(self, sim: Simulator, network: Network, *, name: str, addr: str) -> None:
        self.sim = sim
        self.network = network
        self.name = name
        self.addr = addr
        self.mid_alloc = MidAllocator(sim.rng)
        self.silenced = False
        self.relationships: dict[tuple[str, str], Relationship] = {}
        # (node address, token) -> (path, relationship), for notifications.
        self._by_token: dict[tuple[str, bytes], tuple[str, Relationship]] = {}
        self.notifications: list[dict] = []
        self.responses: list[dict] = []
        # Open requests; ACKs sent to CON notifications.
        self._exchanges: dict[tuple[Endpoint, Endpoint, int], Confirmable] = {}
        self._replies = Deduplicator(sim)
        self._ports = itertools.count(49152)
        self._tokens = itertools.count(0x0B28)

    # -- scripted operations ---------------------------------------------

    def put(self, node_addr: str, path: str, value: bytes, cf: int = 0) -> None:
        self._request(node_addr, PUT, path, payload=value, content_format=cf)

    def get(self, node_addr: str, path: str) -> None:
        self._request(node_addr, GET, path)

    def observe(self, node_addr: str, path: str, obs: int = 0) -> None:
        rel = self.relationships.get((node_addr, path))
        if rel is None:
            rel = Relationship(next(self._ports), next(self._tokens).to_bytes(2, "big"))
            self.relationships[(node_addr, path)] = rel
            self._by_token[(node_addr, rel.token)] = (path, rel)
        self._request(node_addr, GET, path, port=rel.port, token=rel.token, observe=obs)

    def deregister(self, node_addr: str, path: str) -> None:
        rel = self.relationships.get((node_addr, path))
        if rel is None:
            self.sim.trace.emit("client_warn_deregister", self.name, path)
            return

        def done(_resp):
            self._forget(node_addr, path)

        self._request(node_addr, GET, path, port=rel.port, token=rel.token, on_response=done,
                      observe=coap.OBSERVE_DEREGISTER_VALUE)

    def cancel_with_rst(self, node_addr: str, path: str) -> None:
        rel = self.relationships.get((node_addr, path))
        if rel is not None:
            rel.cancel = True

    def bind(self, node_addr: str, path: str, info: BindingInfo) -> None:
        self._request(node_addr, GET, path, token=next(self._tokens).to_bytes(2, "big"),
                      observe=0, binding=info)

    def deploy(self, node_addr: str, filename: str, image: bytes,
               block_size: int = 64, loader_path: str = DEFAULT_LOADER_PATH) -> None:
        blocks = [image[i:i + block_size] for i in range(0, len(image), block_size)] or [b""]
        self._send_block(node_addr, next(self._ports), loader_path, filename, blocks,
                         block_size, 0)

    def _send_block(self, node_addr: str, port: int, loader_path: str,
                    filename: str, blocks: list[bytes], block_size: int, index: int) -> None:
        more = index < len(blocks) - 1

        def done(resp):
            if resp is None or not is_response(resp.code) or resp.code >= BAD_REQUEST:
                self.sim.trace.emit("client_warn_deploy", self.name, filename)
                return
            if more:
                self._send_block(node_addr, port, loader_path, filename, blocks, block_size,
                                 index + 1)
            else:
                self.sim.trace.emit("deploy_done", self.name, filename)

        self._request(node_addr, POST, loader_path, port=port, payload=blocks[index],
                      on_response=done, uri_query=(f"file={filename}",),
                      block1=Block1(index, more, block_size))

    def silence(self, on: bool) -> None:
        self.silenced = on
        self.sim.trace.emit("silence", self.name, on)

    # -- transport ----------------------------------------------------------

    def _forget(self, node_addr: str, path: str) -> None:
        rel = self.relationships.pop((node_addr, path), None)
        if rel is not None:
            del self._by_token[(node_addr, rel.token)]

    def _request(self, node_addr: str, code: int, path: str, *, port: Optional[int] = None,
                 token: bytes = b"", payload: bytes = b"", on_response=None,
                 **options) -> None:
        """Send a confirmable request for `path` to the node at `node_addr`
        from `port`, a fresh one when None.  `options` are the `OptionSet`
        fields besides the path; `on_response(msg)` gets the answer, None for
        an empty ACK."""
        mid = self.mid_alloc.next_mid()
        msg = coap.request(_CON, code, mid, path, token=token, payload=payload, **options)
        source = self.network.endpoint(self.addr, next(self._ports) if port is None else port)
        Confirmable(
            self.sim, Frame.of(msg, source, self.network.endpoint(node_addr)),
            self.network.send, table=self._exchanges,
            on_answer=lambda answer: self._answered(answer.parsed, on_response),
            on_retry=lambda attempt: self.sim.trace.emit(
                "client_retransmit", self.name, mid, attempt),
            on_give_up=lambda: self.sim.trace.emit("client_timeout", self.name, mid))

    def _answered(self, msg: CoapMessage, on_response) -> None:
        if msg.msg_type is _RST:
            self.sim.trace.emit("client_rejected", self.name, msg.mid)
            return
        response = None if msg.code == EMPTY else msg
        if response is not None:
            self.responses.append({"time": self.sim.now, "msg": response})
        if on_response is not None:
            on_response(response)

    def on_frame(self, frame: Frame) -> None:
        self.sim.trace.emit("recv", frame.dst, frame.traced)
        if self.silenced:
            self.sim.trace.emit("drop_client_silent", self.name)
            return
        msg = frame.parsed
        if msg is None:
            self.sim.trace.emit("drop_client_malformed", self.name)
            return
        answer(self._exchanges, frame)
        # A piggy-backed observe response is a notification too.
        if is_response(msg.code) and msg.options.observe is not None:
            self._on_notification(frame, msg)

    def _on_notification(self, frame: Frame, msg: CoapMessage) -> None:
        node_addr = frame.src.addr
        found = self._by_token.get((node_addr, msg.token))
        if found is None:
            return
        path, rel = found
        source = self.network.endpoint(self.addr, rel.port)
        if msg.msg_type is _CON:
            ack = self._replies.reply(frame.src, msg.mid)
            if ack is not None:
                self.network.send(ack)
                return
        self.notifications.append({
            "time": self.sim.now, "node": node_addr, "path": path,
            "observe": msg.options.observe, "mid": msg.mid,
            "type": coap._TYPE_NAMES[msg.msg_type], "payload": msg.payload,
        })
        if rel.cancel:
            reply = coap.reset_for(msg.mid)
            self.network.send(Frame.of(reply, source, frame.src))
            self._forget(node_addr, path)
            return
        if msg.msg_type is _CON:
            ack = Frame.of(coap.empty_ack(msg.mid), source, frame.src)
            self.network.send(self._replies.keep(frame.src, msg.mid, ack))
