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
    ACK_TIMEOUT_MS,
    COAP_PORT,
    EXCHANGE_LIFETIME_MS,
    MAX_RETRANSMIT,
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
from .lln import Frame, Network
from .recovery import DEFAULT_PACING_GAP_MS, RecoveryCoordinator, ReplayStep
from .sim import Simulator


@dataclass
class GatewayConfig:
    lln_prefix: str = "aaaa"
    gateway_addr: str = "cccc::1"
    interception_enabled: bool = True
    deploy_mode: DeployMode = DeployMode.FILENAME_ONLY
    pacing_gap: float = DEFAULT_PACING_GAP_MS
    max_retransmit: int = MAX_RETRANSMIT
    ack_timeout_ms: float = ACK_TIMEOUT_MS
    registration_path: str = REGISTRATION_PATH
    measure_overhead: bool = False

    def __post_init__(self) -> None:
        if self.gateway_addr.startswith(self.lln_prefix):
            raise ValueError("gateway address must sit outside the LLN prefix")
        if self.max_retransmit < 1:
            raise ValueError("max_retransmit must be >= 1")


class _Suppression:
    __slots__ = ("token", "mid", "dst", "on_hit", "expires")

    def __init__(self, token: bytes, mid: int, dst: Endpoint,
                 on_hit: Callable[[], None], expires: float) -> None:
        self.token = token
        self.mid = mid
        self.dst = dst
        self.on_hit = on_hit
        self.expires = expires


class _ConExchange:
    """Gateway-side confirmable exchange for an injected replay frame."""

    def __init__(self, gateway: "Gateway", frame: Frame, on_timeout) -> None:
        self.gateway = gateway
        self.frame = frame
        self.on_timeout = on_timeout
        self.transmissions = 0
        self.timer = None
        self.done = False
        self.suppression: Optional[_Suppression] = None

    def start(self) -> None:
        self._transmit()

    def _transmit(self) -> None:
        self.transmissions += 1
        timeout = self.gateway.config.ack_timeout_ms * (2 ** (self.transmissions - 1))
        self.timer = self.gateway.sim.schedule(timeout, self._timeout)
        self.gateway.network.deliver_to_node(self.frame)

    def _timeout(self) -> None:
        if self.done:
            return
        if self.transmissions <= self.gateway.config.max_retransmit:
            self.gateway.sim.trace.emit("inject_retransmit",
                                        dst=str(self.frame.dst),
                                        attempt=self.transmissions)
            self._transmit()
            return
        self.complete()
        self.on_timeout()

    def complete(self) -> None:
        # A dead exchange must take its suppression matcher with it, or a
        # stale matcher could swallow the next recovery's response for the
        # same stored token.
        self.done = True
        if self.timer is not None:
            self.timer.cancel()
        if self.suppression is not None:
            self.gateway._drop_suppression(self.suppression)

    def cancel(self) -> None:
        self.complete()


class Gateway:
    """Event handler sitting between the two network sides."""

    def __init__(self, sim: Simulator, network: Network, config: GatewayConfig) -> None:
        self.sim = sim
        self.network = network
        self.config = config
        self.directory = StateDirectory(clock=lambda: sim.now,
                                        max_retransmit=config.max_retransmit,
                                        deploy_mode=config.deploy_mode,
                                        trace=sim.trace)
        self.mids = MidAllocator(sim.rng)
        self.recovery = RecoveryCoordinator(
            self.directory, self, clock=lambda: sim.now,
            scheduler=lambda delay, fn: sim.schedule(delay, fn),
            mids=self.mids, gateway_addr=config.gateway_addr,
            pacing_gap=config.pacing_gap, trace=sim.trace)
        self.overhead_us: list[float] = []
        # Live suppressions per spoofed destination, in insertion order.
        self._suppressions: dict[Endpoint, list[_Suppression]] = {}
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
                and msg.options.path_str() == self.config.registration_path):
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

    def send_replay(self, step: ReplayStep, node_addr: str,
                    on_ack: Callable[[], None], on_timeout: Callable[[], None]):
        frame = Frame(encode(step.message), step.spoofed_source,
                      Endpoint(node_addr, COAP_PORT))
        exchange = _ConExchange(self, frame, on_timeout)
        if step.suppress_response:
            suppression = _Suppression(
                step.message.token, step.message.mid, step.spoofed_source,
                on_hit=lambda: (exchange.complete(), on_ack()),
                expires=self.sim.now + EXCHANGE_LIFETIME_MS)
            exchange.suppression = suppression
            self._suppressions.setdefault(suppression.dst, []).append(suppression)
        exchange.start()
        return exchange

    def _consume_suppressed(self, frame: Frame, msg: CoapMessage) -> bool:
        now = self.sim.now
        for s in list(self._suppressions.get(frame.dst, ())):
            if s.expires <= now:
                self._drop_suppression(s)
            elif ((s.token and msg.token == s.token)
                  or (msg.msg_type is MsgType.ACK and msg.mid == s.mid)):
                self._drop_suppression(s)
                self.sim.trace.emit("consume", dst=str(frame.dst), msg=frame.summary)
                s.on_hit()
                return True
        return False

    def _drop_suppression(self, s: _Suppression) -> None:
        bucket = self._suppressions.get(s.dst)
        if bucket is not None and s in bucket:
            bucket.remove(s)
            if not bucket:
                del self._suppressions[s.dst]
