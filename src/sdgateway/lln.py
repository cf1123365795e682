"""Virtual constrained nodes and their lossy multi-hop links.

Nodes model the volatile/persistent memory split: resources, observer
lists, bindings and loaded modules are wiped by a crash; flash and the
address survive.  Delivery over a link samples a per-hop delay and loss
from the simulation RNG; each directed path is FIFO (a frame never
overtakes an earlier one on the same path), which mirrors store-and-
forward radio behaviour and keeps CoAP exchanges well ordered.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
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
    DELETE,
    DELETED,
    EMPTY,
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
    encode,
    is_request,
    is_response,
    registration_request,
)
from .sim import Event, Simulator

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
    delay_range: Optional[tuple[float, float]] = None
    loss: float = 0.0

    def __post_init__(self) -> None:
        if self.delay_range is None:
            self.delay_range = _RDC_DELAY[self.rdc]
        if self.hops < 1:
            raise ValueError("hops must be >= 1")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError("loss probability must be in [0, 1)")
        if min(self.delay_range) < 0:
            raise ValueError("delays must be nonnegative")

    def sample_delay(self, rng) -> float:
        lo, hi = self.delay_range
        return sum(rng.uniform(lo, hi) for _ in range(self.hops))

    def draw_lost(self, rng) -> bool:
        if self.loss == 0.0:
            return False
        lost = False
        for _ in range(self.hops):
            if rng.random() < self.loss:
                lost = True
        return lost


@dataclass(frozen=True)
class Frame:
    """A UDP datagram in flight: raw CoAP bytes plus addressing metadata.

    `raw` is authoritative and is what every hop forwards.  `parsed` and
    `summary` are caches of it, each computed at most once per frame, so a
    frame retransmitted or relayed as the same object is parsed once.
    The frame is frozen so the caches cannot go stale.
    """

    raw: bytes
    src: Endpoint
    dst: Endpoint

    @cached_property
    def parsed(self) -> Optional[CoapMessage]:
        """The decoded message, or None when `raw` is malformed."""
        try:
            return coap.decode(self.raw)
        except coap.MalformedFrame:
            return None

    @cached_property
    def summary(self) -> str:
        """One-line trace text for the frame."""
        return coap.summarize(self.raw, self.parsed)


class Confirmable:
    """One confirmable exchange (RFC 7252 section 4.2) of a single `Frame`.

    `start()` sends the frame through `transmit(frame)`; while no `cancel()`
    arrives, the n-th transmission times out after ACK_TIMEOUT_MS * 2**(n-1)
    and the same frame goes out again, after `on_retry(attempt)` with
    attempt = n, as long as n <= MAX_RETRANSMIT.  The timeout after the last
    one calls `on_give_up()`.  The owner stores the exchange before it calls
    `start()`, so an answer delivered from within `transmit` finds it, and
    cancels the exchange when it is answered or abandoned.
    """

    __slots__ = ("frame", "transmissions", "_sim", "_transmit", "_on_retry",
                 "_on_give_up", "_timer")

    def __init__(self, sim: Simulator, frame: Frame, transmit: Callable[[Frame], None], *,
                 on_give_up: Callable[[], None],
                 on_retry: Optional[Callable[[int], None]] = None) -> None:
        self.frame = frame
        self.transmissions = 0
        self._sim = sim
        self._transmit = transmit
        self._on_retry = on_retry
        self._on_give_up = on_give_up
        self._timer: Optional[Event] = None

    def start(self) -> None:
        self._send()

    @property
    def mid(self) -> int:
        return self.frame.parsed.mid

    def _send(self) -> None:
        self.transmissions += 1
        self._timer = self._sim.schedule(ACK_TIMEOUT_MS * 2 ** (self.transmissions - 1),
                                         self._timeout)
        self._transmit(self.frame)

    def _timeout(self) -> None:
        if self.transmissions > MAX_RETRANSMIT:
            self._timer = None
            self._on_give_up()
            return
        if self._on_retry is not None:
            self._on_retry(self.transmissions)
        self._send()

    def cancel(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None


class Network:
    """Routes frames between clients, the gateway and LLN nodes.

    External traffic always transits the gateway; traffic between two LLN
    nodes stays inside the LLN and is never seen by the gateway.
    """

    def __init__(self, sim: Simulator, *, lln_prefix: str, gateway_addr: str) -> None:
        self.sim = sim
        self.lln_prefix = lln_prefix
        self.gateway_addr = gateway_addr
        self.nodes: dict[str, "VirtualNode"] = {}
        self.clients: dict[str, "ScriptedClient"] = {}
        self.gateway = None
        self.blackholes: set[str] = set()
        self.external_frames: list[bytes] = []
        self._last_arrival: dict[tuple, float] = {}

    def add_node(self, node: "VirtualNode") -> None:
        self.nodes[node.addr] = node

    def add_client(self, client: "ScriptedClient") -> None:
        self.clients[client.addr] = client

    def in_lln(self, addr: str) -> bool:
        return addr.startswith(self.lln_prefix)

    # -- routing --------------------------------------------------------

    def send(self, frame: Frame) -> None:
        self.sim.trace.emit("send", src=str(frame.src), dst=str(frame.dst),
                            msg=frame.summary)
        if not self.in_lln(frame.src.addr):
            self._external_leg(frame, ("ext_in", frame.src.addr), "gw",
                               lambda: self.gateway.on_frame(frame, "external"))
        elif self.in_lln(frame.dst.addr):
            self.deliver_to_node(frame, origin=frame.src.addr)
        else:
            self._lln_leg(frame, self.nodes[frame.src.addr].link,
                          ("up", frame.src.addr), "gw",
                          lambda: self.gateway.on_frame(frame, "lln"),
                          blackhole_key=frame.src.addr)

    def deliver_to_node(self, frame: Frame, origin: str = "gw") -> None:
        node = self.nodes.get(frame.dst.addr)
        if node is None:
            self.sim.trace.emit("drop", why="no-route", dst=str(frame.dst))
            return
        self._lln_leg(frame, node.link, ("down", origin, frame.dst.addr),
                      str(frame.dst), lambda: node.on_frame(frame),
                      blackhole_key=frame.dst.addr)

    def deliver_to_client(self, frame: Frame) -> None:
        client = self.clients.get(frame.dst.addr)
        if client is None:
            self.sim.trace.emit("drop", why="no-client", dst=str(frame.dst))
            return

        def arrive() -> None:
            self.external_frames.append(frame.raw)
            client.on_frame(frame)

        self._external_leg(frame, ("ext_out", frame.dst.addr), str(frame.dst), arrive)

    # -- legs -------------------------------------------------------------

    def _lln_leg(self, frame: Frame, link: LinkModel, path_key: tuple, at: str,
                 handler: Callable[[], None], blackhole_key: str) -> None:
        delay = link.sample_delay(self.sim.rng)
        lost = link.draw_lost(self.sim.rng)
        if blackhole_key in self.blackholes or lost:
            self.sim.trace.emit("drop", why="loss", src=str(frame.src),
                                dst=str(frame.dst), msg=frame.summary)
            return
        self._arrive_fifo(path_key, delay, frame, at, handler)

    def _external_leg(self, frame: Frame, path_key: tuple, at: str,
                      handler: Callable[[], None]) -> None:
        self._arrive_fifo(path_key, EXTERNAL_DELAY_MS, frame, at, handler)

    def _arrive_fifo(self, path_key: tuple, delay: float, frame: Frame, at: str,
                     handler: Callable[[], None]) -> None:
        arrival = self.sim.now + delay
        floor = self._last_arrival.get(path_key)
        if floor is not None and arrival < floor + FIFO_EPS:
            arrival = floor + FIFO_EPS
        self._last_arrival[path_key] = arrival

        def deliver() -> None:
            self.sim.trace.emit("recv", at=at, msg=frame.summary)
            handler()

        self.sim.schedule_at(arrival, deliver)


class NodeState(Enum):
    DOWN = "down"
    BOOTING = "booting"
    UP = "up"
    STALLED = "stalled"


class NotifyPolicy(Enum):
    NON_FIRST = "non-first"   # first notification after (re)registration is NON
    CON_ALWAYS = "con-always"


@dataclass
class Observer:
    client: Endpoint
    token: bytes
    counter: int = 0
    max_age: int = DEFAULT_MAX_AGE
    last_mid: Optional[int] = None
    sent_since_register: int = 0
    pending: Optional[Confirmable] = None  # the unacknowledged CON notification


@dataclass
class Binding:
    info: BindingInfo
    source_resource: str
    last_sent: float = 0.0
    pending_event: Optional[Event] = None
    keepalive_event: Optional[Event] = None


class VirtualNode:
    """A constrained CoAP server with boot/crash lifecycle.

    Everything except `flash` and the address is volatile.  While booting,
    the node blocks on its confirmable registration: no other traffic is
    served until the gateway acknowledgement arrives.
    """

    def __init__(self, sim: Simulator, network: Network, *, name: str, addr: str,
                 link: LinkModel, defaults: Optional[dict[str, bytes]] = None,
                 loader_path: str = DEFAULT_LOADER_PATH,
                 notify_policy: NotifyPolicy = NotifyPolicy.NON_FIRST) -> None:
        self.sim = sim
        self.network = network
        self.name = name
        self.addr = addr
        self.link = link
        self.loader_path = loader_path
        self.notify_policy = notify_policy
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
        self._dedup: dict[tuple[Endpoint, int], Frame] = {}
        self._incoming_blocks: dict[tuple[Endpoint, str], list[bytes]] = {}
        self._registration: Optional[Confirmable] = None
        self._reg_sent_at = 0.0

    @property
    def endpoint(self) -> Endpoint:
        return Endpoint(self.addr, COAP_PORT)

    # -- lifecycle -------------------------------------------------------

    def boot(self) -> None:
        self._cancel_exchanges()
        self.boot_epoch += 1
        self.resources = dict(self.defaults)
        self.observers.clear()
        self.bindings.clear()
        self.loaded_modules.clear()
        self._dedup.clear()
        self._incoming_blocks.clear()
        self.mid_alloc = MidAllocator(self.sim.rng)
        self.state = NodeState.BOOTING
        self.sim.trace.emit("boot", node=self.name, epoch=self.boot_epoch)
        frame = Frame(encode(registration_request(self.mid_alloc.next_mid())), self.endpoint,
                      Endpoint(self.network.gateway_addr, COAP_PORT))
        self._reg_sent_at = self.sim.now
        self._registration = Confirmable(self.sim, frame, self.network.send,
                                         on_give_up=self._registration_failed)
        self._registration.start()

    def _registration_failed(self) -> None:
        self.state = NodeState.STALLED
        self.sim.trace.emit("boot_failed", node=self.name, epoch=self.boot_epoch,
                            retries=MAX_RETRANSMIT)

    def _cancel_exchanges(self) -> None:
        # No retransmission or binding timer outlives its boot epoch.
        if self._registration is not None:
            self._registration.cancel()
        for obs in self.observers.values():
            if obs.pending is not None:
                obs.pending.cancel()
        for b in self.bindings.values():
            for ev in (b.pending_event, b.keepalive_event):
                if ev is not None:
                    ev.cancel()

    def crash(self, downtime_ms: float) -> None:
        """Power the running node off for `downtime_ms`, then boot it again."""
        if self.state is not NodeState.UP:
            # Raised rather than asserted, so that `python -O` keeps the check.
            raise AssertionError("crash requires a running node")
        self.state = NodeState.DOWN
        self._cancel_exchanges()
        self.sim.trace.emit("crash", node=self.name, epoch=self.boot_epoch,
                            downtime=downtime_ms)
        self.sim.schedule(downtime_ms, self.boot)

    def dynamic_state(self) -> dict:
        """Canonical volatile state, excluding MIDs, timestamps and the
        boot epoch; comparable across a crash/recovery cycle."""
        return {
            "resources": dict(self.resources),
            "observers": tuple(sorted(
                (path, ep.addr, ep.port, o.token.hex(), o.counter, o.max_age)
                for (path, ep), o in self.observers.items())),
            "bindings": tuple(sorted(
                (b.source_resource, b.info.dest_addr, b.info.dest_resource,
                 b.info.pmin, b.info.pmax)
                for b in self.bindings.values())),
            "loaded_modules": tuple(sorted(self.loaded_modules)),
        }

    # -- receive path ------------------------------------------------------

    def on_frame(self, frame: Frame) -> None:
        if self.state in (NodeState.DOWN, NodeState.STALLED):
            self.sim.trace.emit("drop", why="node-down", node=self.name,
                                msg=frame.summary)
            return
        msg = frame.parsed
        if msg is None:
            self.sim.trace.emit("drop", why="malformed", node=self.name)
            return
        if self.state is NodeState.BOOTING:
            if (msg.msg_type is MsgType.ACK and msg.code == EMPTY
                    and msg.mid == self._registration.mid):
                self._registration.cancel()
                self.state = NodeState.UP
                delay = self.sim.now - self._reg_sent_at
                self.associations.append((self.boot_epoch, self._reg_sent_at, self.sim.now))
                self.sim.trace.emit("assoc", node=self.name, epoch=self.boot_epoch,
                                    delay=f"{delay:.3f}",
                                    transmissions=self._registration.transmissions)
            else:
                self.sim.trace.emit("drop", why="blocked-booting", node=self.name,
                                    msg=frame.summary)
            return
        if msg.msg_type is MsgType.ACK and msg.code == EMPTY:
            self._on_ack(msg.mid)
            return
        if msg.msg_type is MsgType.RST:
            self._on_rst(frame.src, msg.mid)
            return
        if is_request(msg.code):
            self._serve(frame, msg)
        # Responses (e.g. to this node's binding pushes) need no action.

    def _serve(self, frame: Frame, msg: CoapMessage) -> None:
        key = (frame.src, msg.mid)
        if msg.msg_type is MsgType.CON and key in self._dedup:
            self.network.send(self._dedup[key])
            return
        response, deferred = self._handle_request(msg, frame.src)
        if response is not None:
            reply = Frame(encode(response), self.endpoint, frame.src)
            if msg.msg_type is MsgType.CON:
                if len(self._dedup) > 64:
                    self._dedup.pop(next(iter(self._dedup)))
                self._dedup[key] = reply
            self.network.send(reply)
        for action in deferred:
            action()

    def handle_request(self, msg: CoapMessage, src: Endpoint) -> Optional[CoapMessage]:
        """Process a request as if it arrived from `src`; returns the
        response.  Deferred side effects (notifications, binding pushes)
        run immediately."""
        response, deferred = self._handle_request(msg, src)
        for action in deferred:
            action()
        return response

    def _handle_request(self, msg: CoapMessage, src: Endpoint):
        o = msg.options
        path = o.path_str()
        deferred: list[Callable[[], None]] = []

        def reply(code: int, *, payload: bytes = b"", **optkw) -> CoapMessage:
            if msg.msg_type is MsgType.CON:
                return CoapMessage(MsgType.ACK, code, msg.mid, token=msg.token,
                                   options=OptionSet(**optkw), payload=payload)
            return CoapMessage(MsgType.NON, code, self.mid_alloc.next_mid(),
                               token=msg.token, options=OptionSet(**optkw), payload=payload)

        if msg.code == GET:
            if o.binding is not None and o.observe is not None:
                return self._install_binding(msg, src, path, reply, deferred)
            if path not in self.resources:
                return reply(NOT_FOUND), deferred
            if o.observe == coap.OBSERVE_DEREGISTER_VALUE:
                self._remove_observer(path, src, reason="deregister")
                return reply(CONTENT, payload=self.resources[path]), deferred
            if o.observe is not None:
                return self._register_observer(msg, src, path, reply, deferred)
            return reply(CONTENT, payload=self.resources[path]), deferred

        if msg.code in (PUT, POST) and o.block1 is not None and path == self.loader_path:
            return self._deploy_block(msg, src, reply), deferred

        if msg.code == PUT:
            self.resources[path] = msg.payload
            deferred.append(lambda: self._resource_changed(path))
            return reply(CHANGED), deferred

        if msg.code == POST:
            if path != self.loader_path:
                return reply(NOT_FOUND), deferred
            filename = o.query_value("file")
            if not filename or filename not in self.flash:
                return reply(BAD_REQUEST), deferred
            self.loaded_modules.add(filename)
            self.sim.trace.emit("load", node=self.name, file=filename, source="flash")
            return reply(CREATED), deferred

        if msg.code == DELETE:
            if path not in self.resources:
                return reply(NOT_FOUND), deferred
            del self.resources[path]
            return reply(DELETED), deferred

        return reply(coap.METHOD_NOT_ALLOWED), deferred

    def _deploy_block(self, msg: CoapMessage, src: Endpoint, reply) -> CoapMessage:
        block = msg.options.block1
        filename = msg.options.query_value("file")
        if not filename:
            return reply(BAD_REQUEST)
        key = (src, filename)
        if block.num == 0:
            self._incoming_blocks[key] = []
        buf = self._incoming_blocks.setdefault(key, [])
        buf.append(msg.payload)
        if block.more:
            return reply(CONTINUE, block1=block)
        del self._incoming_blocks[key]
        # Raw image lands in permanent storage first, then is relocated
        # into main memory.
        self.flash[filename] = b"".join(buf)
        self.loaded_modules.add(filename)
        self.sim.trace.emit("load", node=self.name, file=filename, source="transfer")
        return reply(CREATED, block1=block)

    # -- observe ----------------------------------------------------------

    def _register_observer(self, msg, src, path, reply, deferred):
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
        self.sim.trace.emit("observer_add", node=self.name, uri=path,
                            client=str(src), counter=obs.counter)
        # Immediate state push after (re)registration, counter unchanged;
        # it runs right after the response is sent, not from a timer.
        deferred.append(lambda: self._send_notification(path, obs))
        return reply(CONTENT, payload=self.resources[path],
                     observe=obs.counter, max_age=obs.max_age), deferred

    def _remove_observer(self, path, src, *, reason: str, mid=None) -> None:
        key = (path, src)
        obs = self.observers.pop(key, None)
        if obs is None:
            return
        retries = 0
        if obs.pending is not None:
            obs.pending.cancel()
            retries = obs.pending.transmissions - 1
        self.sim.trace.emit("obs_drop", node=self.name, uri=path, client=str(src),
                            reason=reason, mid=obs.last_mid if mid is None else mid,
                            retries=retries)

    def change_resource(self, path: str, value: bytes) -> None:
        """Internal state change (e.g. a sensor reading): updates the
        resource and fans out to observers and bindings."""
        if self.state is not NodeState.UP:
            self.sim.trace.emit("drop", why="change-while-down", node=self.name, uri=path)
            return
        self.resources[path] = value
        self._resource_changed(path)

    @staticmethod
    def _bump_counter(value: int) -> int:
        # The value 1 is the deregister sentinel on the wire; a replayed
        # registration carrying the stored counter must never look like a
        # cancellation, so the sequence skips it (gaps are legal).
        return 2 if value + 1 == 1 else value + 1

    def notify(self, path: str, counter: Optional[int] = None) -> None:
        """Notify all observers of `path`; the counter jumps to `counter`
        when given (node-controlled, never backward), else increments."""
        for (p, _), obs in list(self.observers.items()):
            if p != path:
                continue
            if counter is not None:
                if counter < obs.counter:
                    raise ValueError("observe counter may not decrease")
                if counter == 1:
                    raise ValueError("observe counter 1 is the cancellation sentinel")
                obs.counter = counter
            else:
                obs.counter = self._bump_counter(obs.counter)
            self._send_notification(path, obs)

    def _resource_changed(self, path: str) -> None:
        if self.state is not NodeState.UP:
            return
        for (p, _), obs in list(self.observers.items()):
            if p == path:
                obs.counter = self._bump_counter(obs.counter)
                self._send_notification(path, obs)
        for b in self.bindings.values():
            if b.source_resource == path:
                self._binding_due(b)

    def _send_notification(self, path: str, obs: Observer) -> None:
        if self.notify_policy is NotifyPolicy.NON_FIRST and obs.sent_since_register == 0:
            mtype = MsgType.NON
        else:
            mtype = MsgType.CON
        mid = self.mid_alloc.next_mid()
        msg = CoapMessage(mtype, CONTENT, mid, token=obs.token,
                          options=OptionSet(observe=obs.counter, max_age=obs.max_age),
                          payload=self.resources.get(path, b""))
        frame = Frame(encode(msg), self.endpoint, obs.client)
        obs.last_mid = mid
        obs.sent_since_register += 1
        self.sim.trace.emit("notify", node=self.name, uri=path, client=str(obs.client),
                            obs=obs.counter, mid=mid, type=mtype.name)
        if mtype is MsgType.NON:
            self.network.send(frame)
            return
        if obs.pending is not None:
            obs.pending.cancel()  # newer state supersedes the pending one
        obs.pending = Confirmable(
            self.sim, frame, self.network.send,
            on_retry=lambda attempt: self.sim.trace.emit(
                "retransmit", node=self.name, uri=path, mid=mid, attempt=attempt),
            on_give_up=lambda: self._remove_observer(path, obs.client,
                                                     reason="retransmit-limit", mid=mid))
        obs.pending.start()

    def _on_ack(self, mid: int) -> None:
        for obs in self.observers.values():
            if obs.pending is not None and obs.pending.mid == mid:
                obs.pending.cancel()
                obs.pending = None
                return

    def _on_rst(self, src: Endpoint, mid: int) -> None:
        for (path, client), obs in list(self.observers.items()):
            if client == src and obs.last_mid == mid:
                self._remove_observer(path, src, reason="rst", mid=mid)
                return

    # -- bindings -----------------------------------------------------------

    def _install_binding(self, msg, src, path, reply, deferred):
        if path not in self.resources:
            return reply(NOT_FOUND), deferred
        info = msg.options.binding
        key = (path, info.dest_addr, info.dest_resource)
        binding = self.bindings.get(key)
        if binding is None:
            binding = Binding(info=info, source_resource=path, last_sent=self.sim.now)
            self.bindings[key] = binding
        else:
            binding.info = info
            binding.last_sent = self.sim.now
        self.sim.trace.emit("binding_add", node=self.name, uri=path,
                            dest=f"{info.dest_addr}/{info.dest_resource}")
        self._schedule_keepalive(binding)
        return reply(CONTENT, payload=self.resources[path], observe=0), deferred

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
        msg = CoapMessage(MsgType.NON, PUT, self.mid_alloc.next_mid(),
                          options=OptionSet(
                              uri_path=tuple(binding.info.dest_resource.split("/"))),
                          payload=self.resources.get(binding.source_resource, b""))
        binding.last_sent = self.sim.now
        self.sim.trace.emit("binding_put", node=self.name,
                            src_uri=binding.source_resource,
                            dest=f"{binding.info.dest_addr}/{binding.info.dest_resource}")
        self.network.send(Frame(encode(msg), self.endpoint,
                                Endpoint(binding.info.dest_addr, COAP_PORT)))
        self._schedule_keepalive(binding)

    def _schedule_keepalive(self, binding: Binding) -> None:
        if binding.keepalive_event is not None:
            binding.keepalive_event.cancel()
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


@dataclass
class PendingRequest:
    exchange: Confirmable
    on_response: Optional[Callable[[Optional[CoapMessage]], None]] = None


class ScriptedClient:
    """External CoAP client driven by scenario events.

    Opens a fresh source port per request; an observe relationship keeps
    its port and token for its whole lifetime so deregistration and ACKs
    stay correlated.  A notification finds its relationship by (node
    address, token).  While silenced it neither acknowledges nor resets
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
        self._pending: dict[int, PendingRequest] = {}
        self._port_next = 49152
        self._token_next = 0x0B28

    # -- scripted operations ---------------------------------------------

    def put(self, node_addr: str, path: str, value: bytes, cf: int = 0) -> None:
        msg = CoapMessage(MsgType.CON, PUT, self.mid_alloc.next_mid(),
                          options=OptionSet(uri_path=tuple(path.split("/")),
                                            content_format=cf),
                          payload=value)
        self._send_con(msg, node_addr, self._next_port())

    def get(self, node_addr: str, path: str) -> None:
        msg = CoapMessage(MsgType.CON, GET, self.mid_alloc.next_mid(),
                          options=OptionSet(uri_path=tuple(path.split("/"))))
        self._send_con(msg, node_addr, self._next_port())

    def observe(self, node_addr: str, path: str, obs: int = 0) -> None:
        rel = self.relationships.get((node_addr, path))
        if rel is None:
            rel = Relationship(self._next_port(), self._next_token())
            self.relationships[(node_addr, path)] = rel
            self._by_token[(node_addr, rel.token)] = (path, rel)
        msg = CoapMessage(MsgType.CON, GET, self.mid_alloc.next_mid(), token=rel.token,
                          options=OptionSet(uri_path=tuple(path.split("/")),
                                            observe=obs))
        self._send_con(msg, node_addr, rel.port)

    def deregister(self, node_addr: str, path: str) -> None:
        rel = self.relationships.get((node_addr, path))
        if rel is None:
            self.sim.trace.emit("client_warn", client=self.name,
                                why="deregister-unknown", uri=path)
            return
        msg = CoapMessage(MsgType.CON, GET, self.mid_alloc.next_mid(), token=rel.token,
                          options=OptionSet(uri_path=tuple(path.split("/")),
                                            observe=coap.OBSERVE_DEREGISTER_VALUE))

        def done(_resp):
            self._forget(node_addr, path)

        self._send_con(msg, node_addr, rel.port, on_response=done)

    def cancel_with_rst(self, node_addr: str, path: str) -> None:
        rel = self.relationships.get((node_addr, path))
        if rel is not None:
            rel.cancel = True

    def bind(self, node_addr: str, path: str, info: BindingInfo) -> None:
        msg = CoapMessage(MsgType.CON, GET, self.mid_alloc.next_mid(),
                          token=self._next_token(),
                          options=OptionSet(uri_path=tuple(path.split("/")),
                                            observe=0, binding=info))
        self._send_con(msg, node_addr, self._next_port())

    def deploy(self, node_addr: str, filename: str, image: bytes,
               block_size: int = 64, loader_path: str = DEFAULT_LOADER_PATH) -> None:
        blocks = [image[i:i + block_size] for i in range(0, len(image), block_size)] or [b""]
        port = self._next_port()

        def send_block(index: int) -> None:
            more = index < len(blocks) - 1
            msg = CoapMessage(MsgType.CON, POST, self.mid_alloc.next_mid(),
                              options=OptionSet(uri_path=tuple(loader_path.split("/")),
                                                uri_query=(f"file={filename}",),
                                                block1=Block1(index, more, block_size)),
                              payload=blocks[index])

            def done(resp):
                if resp is None or not is_response(resp.code) or resp.code >= BAD_REQUEST:
                    self.sim.trace.emit("client_warn", client=self.name,
                                        why="deploy-failed", file=filename)
                    return
                if more:
                    send_block(index + 1)
                else:
                    self.sim.trace.emit("deploy_done", client=self.name, file=filename)

            self._send_con(msg, node_addr, port, on_response=done)

        send_block(0)

    def silence(self, on: bool) -> None:
        self.silenced = on
        self.sim.trace.emit("silence", client=self.name, on=on)

    # -- transport ----------------------------------------------------------

    def _forget(self, node_addr: str, path: str) -> None:
        rel = self.relationships.pop((node_addr, path), None)
        if rel is not None:
            del self._by_token[(node_addr, rel.token)]

    def _next_port(self) -> int:
        port = self._port_next
        self._port_next += 1
        return port

    def _next_token(self) -> bytes:
        token = self._token_next.to_bytes(2, "big")
        self._token_next += 1
        return token

    def _send_con(self, msg: CoapMessage, node_addr: str, port: int,
                  on_response=None) -> None:
        frame = Frame(encode(msg), Endpoint(self.addr, port), Endpoint(node_addr, COAP_PORT))
        mid = msg.mid

        def give_up() -> None:
            del self._pending[mid]
            self.sim.trace.emit("client_timeout", client=self.name, mid=mid)

        exchange = Confirmable(
            self.sim, frame, self.network.send,
            on_retry=lambda attempt: self.sim.trace.emit(
                "client_retransmit", client=self.name, mid=mid, attempt=attempt),
            on_give_up=give_up)
        self._pending[mid] = PendingRequest(exchange, on_response)
        exchange.start()

    def on_frame(self, frame: Frame) -> None:
        if self.silenced:
            self.sim.trace.emit("drop", why="client-silent", client=self.name)
            return
        msg = frame.parsed
        if msg is None:
            self.sim.trace.emit("drop", why="malformed", client=self.name)
            return
        if msg.msg_type is MsgType.RST:
            pending = self._pending.pop(msg.mid, None)
            if pending is not None:
                pending.exchange.cancel()
                self.sim.trace.emit("client_rejected", client=self.name, mid=msg.mid)
            return
        if msg.msg_type is MsgType.ACK and msg.mid in self._pending:
            pending = self._pending.pop(msg.mid)
            pending.exchange.cancel()
            response = None if msg.code == EMPTY else msg
            if response is not None:
                self.responses.append({"time": self.sim.now, "msg": response})
            if pending.on_response is not None:
                pending.on_response(response)
        if is_response(msg.code) and msg.options.observe is not None:
            self._on_notification(frame, msg)

    def _on_notification(self, frame: Frame, msg: CoapMessage) -> None:
        node_addr = frame.src.addr
        found = self._by_token.get((node_addr, msg.token))
        if found is None:
            return
        path, rel = found
        self.notifications.append({
            "time": self.sim.now, "node": node_addr, "path": path,
            "observe": msg.options.observe, "mid": msg.mid,
            "type": msg.msg_type.name, "payload": msg.payload,
        })
        if rel.cancel:
            reply = coap.reset_for(msg.mid)
            self.network.send(Frame(encode(reply), Endpoint(self.addr, rel.port),
                                    frame.src))
            self._forget(node_addr, path)
            return
        if msg.msg_type is MsgType.CON:
            ack = coap.empty_ack(msg.mid)
            self.network.send(Frame(encode(ack), Endpoint(self.addr, rel.port),
                                    frame.src))
