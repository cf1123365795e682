"""The in-path gateway: routes frames between the external network and
the LLN, runs the interception hook right after direction resolution,
terminates the registration resource, and builds the exchanges that
inject spoofed replay packets.  A node's response that the recovery
coordinator claims as the answer to its replay is consumed instead of
forwarded.
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
        if msg is not None and self.recovery.consume(frame, msg):
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
        if self.recovery.consume(frame, msg):
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

    def send_replay(self, frame: Frame, on_timeout: Callable[[], None]) -> Confirmable:
        """Build the confirmable exchange that injects `frame`, a replay
        addressed to the node and spoofing its source.  The caller stores
        it, then calls `start()`; the recovery coordinator matches the
        node's response to it."""
        return Confirmable(
            self.sim, frame, self.network.deliver_to_node,
            on_retry=lambda attempt: self.sim.trace.emit(
                "inject_retransmit", dst=str(frame.dst), attempt=attempt),
            on_give_up=on_timeout)
