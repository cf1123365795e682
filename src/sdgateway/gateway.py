"""The in-path gateway: routes frames between the external network and
the LLN, runs the interception hook right after direction resolution,
terminates the registration resource, and builds the exchanges that
inject spoofed replay packets.  A node's response that the recovery
coordinator claims as the answer to its replay is consumed instead of
forwarded.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from .coap import (
    POST,
    REGISTRATION_PATH,
    CoapMessage,
    empty_ack,
)
from .directory import StateDirectory
from .lln import Confirmable, Deduplicator, Frame, Network
from .recovery import RecoveryCoordinator
from .sim import Simulator


class Gateway:
    """Event handler sitting between the two network sides."""

    def __init__(self, sim: Simulator, network: Network, *, interception: bool = True,
                 measure_overhead: bool = False) -> None:
        self.sim = sim
        self.network = network
        self.endpoint = network.endpoint(network.gateway_addr)
        self.interception = interception
        self.measure_overhead = measure_overhead
        self.directory = StateDirectory(clock=lambda: sim.now, trace=sim.trace)
        self.recovery = RecoveryCoordinator(self.directory, self, sim=sim)
        self.overhead_us: list[float] = []
        self._registrations = Deduplicator(sim)  # each kept with its ACK's parse
        network.gateway = self

    # -- forwarding --------------------------------------------------------

    def on_frame(self, frame: Frame) -> None:
        self.sim.trace.emit("recv", "gw", frame.traced)
        msg = frame.parsed
        if frame.dst.addr == self.endpoint.addr:
            self._terminate(frame, msg)
            return
        inbound = frame.dst.addr.startswith(self.network.lln_prefix)
        direction = "in" if inbound else "out"
        if msg is None:
            self.sim.trace.emit("gw_fwd_malformed", direction, frame.dst)
        elif self.interception:
            self.sim.trace.emit("intercept", direction, frame.src, frame.dst)
            hook = (self.directory.intercept_from_internet if inbound
                    else self.directory.intercept_from_lln)
            if self.measure_overhead:
                t0 = time.perf_counter()
                hook(msg, frame.src, frame.dst)
                self.overhead_us.append((time.perf_counter() - t0) * 1e6)
            else:
                hook(msg, frame.src, frame.dst)
        if inbound:
            self.network.deliver_to_node(frame)
        elif msg is None or not self.recovery.consume(frame):
            self.network.deliver_to_client(frame)

    def _terminate(self, frame: Frame, msg: Optional[CoapMessage]) -> None:
        if msg is None:
            self.sim.trace.emit("gw_drop_malformed", frame.src)
            return
        # A registration comes from inside the LLN, as `Network.send` routes it.
        if (frame.src.addr.startswith(self.network.lln_prefix) and msg.code == POST
                and msg.options.path_str() == REGISTRATION_PATH):
            self._handle_registration(frame, msg)
            return
        if self.recovery.consume(frame):
            return
        self.sim.trace.emit("gw_unclaimed", frame.src, frame.traced)

    def _handle_registration(self, frame: Frame, msg: CoapMessage) -> None:
        node_addr = frame.src.addr
        kept = self._registrations.reply(frame.src, msg.mid)
        ack = Frame.of(kept or empty_ack(msg.mid), self.endpoint, frame.src)
        if kept is None:
            self._registrations.keep(frame.src, msg.mid, ack.parsed)
        # The node blocks on this acknowledgement; it always goes out
        # before any replay packet.
        self.network.deliver_to_node(ack)
        if kept is not None:
            self.sim.trace.emit("gw_reg_dup", node_addr, msg.mid)
            return
        self.sim.trace.emit("gw_reg", node_addr, msg.mid)
        self.recovery.on_registration(node_addr)

    # -- replay injection ----------------------------------------------------

    def send_replay(self, frame: Frame, table: dict, *, on_answer: Callable[[Frame], None],
                    on_timeout: Callable[[], None]) -> Confirmable:
        """Start the confirmable exchange that injects `frame`, a replay
        addressed to the node and spoofing its source, in `table`, the
        recovery coordinator's open replays, and return it."""
        return Confirmable(
            self.sim, frame, self.network.deliver_to_node, table=table, on_answer=on_answer,
            on_retry=lambda attempt: self.sim.trace.emit(
                "inject_retransmit", frame.dst, attempt),
            on_give_up=on_timeout)
