"""The in-path gateway: routes frames between the external network and
the LLN, runs the interception hook right after direction resolution,
terminates the registration resource, and injects spoofed replay packets
whose responses it then consumes instead of forwarding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from .coap import (
    COAP_PORT,
    EXCHANGE_LIFETIME_MS,
    POST,
    REGISTRATION_PATH,
    CoapMessage,
    Endpoint,
    MidAllocator,
    MsgType,
    empty_ack,
    encode,
)
from .directory import DeployMode, StateDirectory
from .lln import Confirmable, Frame, Network
from .recovery import DEFAULT_PACING_GAP_MS, RecoveryCoordinator
from .sim import Simulator


@dataclass
class GatewayConfig:
    lln_prefix: str = "aaaa"
    gateway_addr: str = "cccc::1"
    interception_enabled: bool = True
    deploy_mode: DeployMode = DeployMode.FILENAME_ONLY
    pacing_gap: float = DEFAULT_PACING_GAP_MS
    measure_overhead: bool = False

    def __post_init__(self) -> None:
        if self.gateway_addr.startswith(self.lln_prefix):
            raise ValueError("gateway address must sit outside the LLN prefix")


class _Replay:
    """An injected replay frame in flight: the exchange that retransmits it,
    and the matcher that consumes the node's response instead of forwarding
    it to the spoofed source.  `cancel()` ends both."""

    __slots__ = ("token", "mid", "dst", "on_ack", "exchange", "_end")

    def __init__(self, exchange: Confirmable, on_ack: Callable[[], None],
                 end: Callable[["_Replay"], None]) -> None:
        frame = exchange.frame
        self.token = frame.parsed.token
        self.mid = frame.parsed.mid
        self.dst = frame.src
        self.on_ack = on_ack
        self.exchange = exchange
        self._end = end

    def cancel(self) -> None:
        self._end(self)


class Gateway:
    """Event handler sitting between the two network sides."""

    def __init__(self, sim: Simulator, network: Network, config: GatewayConfig) -> None:
        self.sim = sim
        self.network = network
        self.config = config
        self.directory = StateDirectory(clock=lambda: sim.now,
                                        deploy_mode=config.deploy_mode,
                                        trace=sim.trace)
        self.mids = MidAllocator(sim.rng)
        self.recovery = RecoveryCoordinator(
            self.directory, self, sim=sim, mids=self.mids,
            gateway_addr=config.gateway_addr, pacing_gap=config.pacing_gap)
        self.overhead_us: list[float] = []
        # Replays awaiting their response, per spoofed destination, in
        # injection order.
        self._replays: dict[Endpoint, list[_Replay]] = {}
        self._last_registration: dict[str, tuple[int, float]] = {}
        network.gateway = self

    @property
    def endpoint(self) -> Endpoint:
        return Endpoint(self.config.gateway_addr, COAP_PORT)

    # -- forwarding --------------------------------------------------------

    def on_frame(self, frame: Frame, ingress: str) -> None:
        msg = frame.parsed
        if frame.dst.addr == self.config.gateway_addr:
            self._terminate(frame, msg, ingress)
            return
        if self.network.in_lln(frame.dst.addr):
            if msg is not None and self.config.interception_enabled:
                self.sim.trace.emit("intercept", dir="in", src=f"<{frame.src.addr}>",
                                    dst=f"<{frame.dst.addr}>")
                self._intercept(lambda: self.directory.intercept_from_internet(
                    msg, frame.src, frame.dst))
            elif msg is None:
                self.sim.trace.emit("gw", ev="fwd_malformed", dir="in",
                                    dst=str(frame.dst))
            self.network.deliver_to_node(frame)
            return
        # LLN -> external side.
        if msg is not None and self.config.interception_enabled:
            self.sim.trace.emit("intercept", dir="out", src=f"<{frame.src.addr}>",
                                dst=f"<{frame.dst.addr}>")
            self._intercept(lambda: self.directory.intercept_from_lln(
                msg, frame.src, frame.dst))
        elif msg is None:
            self.sim.trace.emit("gw", ev="fwd_malformed", dir="out", dst=str(frame.dst))
        if msg is not None and self._consume_suppressed(frame, msg):
            return
        self.network.deliver_to_client(frame)

    def _intercept(self, hook: Callable[[], None]) -> None:
        if self.config.measure_overhead:
            t0 = time.perf_counter()
            hook()
            self.overhead_us.append((time.perf_counter() - t0) * 1e6)
        else:
            hook()

    def _terminate(self, frame: Frame, msg: Optional[CoapMessage], ingress: str) -> None:
        if msg is None:
            self.sim.trace.emit("gw", ev="drop_malformed", src=str(frame.src))
            return
        if (ingress == "lln" and msg.code == POST
                and msg.options.path_str() == REGISTRATION_PATH):
            self._handle_registration(frame, msg)
            return
        if self._consume_suppressed(frame, msg):
            return
        self.sim.trace.emit("gw", ev="unclaimed", src=str(frame.src), msg=frame.summary)

    def _handle_registration(self, frame: Frame, msg: CoapMessage) -> None:
        node_addr = frame.src.addr
        previous = self._last_registration.get(node_addr)
        duplicate = (previous is not None and previous[0] == msg.mid
                     and self.sim.now - previous[1] < EXCHANGE_LIFETIME_MS)
        self._last_registration[node_addr] = (msg.mid, self.sim.now)
        # The node blocks on this acknowledgement; it always goes out
        # before any replay packet.
        ack = Frame(encode(empty_ack(msg.mid)), self.endpoint, frame.src)
        self.network.deliver_to_node(ack)
        if duplicate:
            self.sim.trace.emit("gw", ev="reg_dup", node=node_addr, mid=msg.mid)
            return
        self.sim.trace.emit("gw", ev="reg", node=node_addr, mid=msg.mid)
        self.recovery.on_registration(node_addr)

    # -- replay injection ----------------------------------------------------

    def send_replay(self, frame: Frame, on_ack: Callable[[], None],
                    on_timeout: Callable[[], None]) -> _Replay:
        """Inject `frame`, a replay addressed to the node and spoofing its
        source, as a confirmable exchange whose response is consumed."""

        def give_up() -> None:
            self._end_replay(replay)
            on_timeout()

        exchange = Confirmable(
            self.sim, frame, self.network.deliver_to_node,
            on_retry=lambda attempt: self.sim.trace.emit(
                "inject_retransmit", dst=str(frame.dst), attempt=attempt),
            on_give_up=give_up)
        replay = _Replay(exchange, on_ack, self._end_replay)
        self._replays.setdefault(replay.dst, []).append(replay)
        exchange.start()
        return replay

    def _end_replay(self, replay: _Replay) -> None:
        # A dead exchange must take its matcher with it, or a stale matcher
        # could swallow the next recovery's response for the same stored token.
        replay.exchange.cancel()
        bucket = self._replays.get(replay.dst)
        if bucket is not None and replay in bucket:
            bucket.remove(replay)
            if not bucket:
                del self._replays[replay.dst]

    def _consume_suppressed(self, frame: Frame, msg: CoapMessage) -> bool:
        for s in self._replays.get(frame.dst, ()):
            if ((s.token and msg.token == s.token)
                    or (msg.msg_type is MsgType.ACK and msg.mid == s.mid)):
                self._end_replay(s)
                self.sim.trace.emit("consume", dst=str(frame.dst), msg=frame.summary)
                s.on_ack()
                return True
        return False
