"""Plan and execute replay of stored dynamic states onto a rebooted node.

A plan is built from the node's directory entries in creation order; the
executor injects one step at a time, waits for the (suppressed) response
or a retransmission timeout, and paces consecutive injections so recovery
traffic cannot congest the LLN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .coap import (
    GET,
    POST,
    PUT,
    Block1,
    CoapMessage,
    Endpoint,
    MidAllocator,
    MsgType,
    OptionSet,
)
from .directory import EntryType, SDEntry, StateDirectory, RegistrationStatus
from .sim import Simulator

DEFAULT_PACING_GAP_MS = 50.0


@dataclass(frozen=True)
class ReplayStep:
    message: CoapMessage
    spoofed_source: Endpoint
    entry_type: EntryType = EntryType.PUT
    uri: str = ""


@dataclass
class RecoveryPlan:
    node: str
    steps: list[ReplayStep]


class StepOutcome(Enum):
    ACKED = "acked"
    TIMED_OUT = "timed_out"
    ABORTED = "aborted"


@dataclass
class StepResult:
    index: int
    entry_type: EntryType
    uri: str
    outcome: StepOutcome
    completed_at: float


@dataclass
class RecoveryReport:
    node: str
    started_at: float
    finished_at: float = 0.0
    outcomes: list[StepResult] = field(default_factory=list)
    steps_total: int = 0
    aborted: bool = False

    @property
    def total_delay(self) -> float:
        return self.finished_at - self.started_at

    @property
    def all_acked(self) -> bool:
        return (not self.aborted and len(self.outcomes) == self.steps_total
                and all(o.outcome is StepOutcome.ACKED for o in self.outcomes))


def build_plan(entries: list[SDEntry], gateway_addr: str, mids: MidAllocator) -> RecoveryPlan:
    """Turn one node's directory entries into an ordered replay plan.

    PUT and OBSERVE replays spoof the stored client endpoint; BIND and
    DEPLOY replays originate from the gateway's own address.  An empty
    entry list yields a valid empty plan.
    """
    node = entries[0].server.addr if entries else ""
    gateway_source = Endpoint(gateway_addr)
    steps: list[ReplayStep] = []
    # State-modifying replays go first (each in creation order); observe
    # registrations land last so the counter they seed is final — a PUT
    # replayed onto an already-restored observer would notify and push the
    # counter past the stored value.
    ordered = [e for e in entries if e.entry_type is not EntryType.OBSERVE] + \
              [e for e in entries if e.entry_type is EntryType.OBSERVE]
    for entry in ordered:
        path = tuple(entry.uri_path.split("/")) if entry.uri_path else ()
        if entry.entry_type is EntryType.PUT:
            msg = CoapMessage(MsgType.CON, PUT, mids.next_mid(), token=entry.token,
                              options=OptionSet(uri_path=path,
                                                content_format=entry.content_format),
                              payload=entry.value)
            steps.append(ReplayStep(msg, entry.client, entry.entry_type, entry.uri_path))
        elif entry.entry_type is EntryType.OBSERVE:
            # Fresh MID, stored token: tokens, not MIDs, bind notifications
            # to the relationship.  The stored counter rides in the observe
            # option so numbering continues where it stopped; a stored value
            # of 1 would read as a cancellation on the wire, so it is bumped
            # past the sentinel.
            counter = 2 if entry.observe_counter == 1 else entry.observe_counter
            msg = CoapMessage(MsgType.CON, GET, mids.next_mid(), token=entry.token,
                              options=OptionSet(uri_path=path, observe=counter))
            steps.append(ReplayStep(msg, entry.client, entry.entry_type, entry.uri_path))
        elif entry.entry_type is EntryType.BIND:
            msg = CoapMessage(MsgType.CON, GET, mids.next_mid(), token=entry.token,
                              options=OptionSet(uri_path=path, observe=0,
                                                binding=entry.binding))
            steps.append(ReplayStep(msg, gateway_source, entry.entry_type, entry.uri_path))
        elif entry.entry_type is EntryType.DEPLOY:
            info = entry.deploy
            loader = tuple(info.loader_path.split("/"))
            if info.blocks is None:
                msg = CoapMessage(MsgType.CON, POST, mids.next_mid(),
                                  options=OptionSet(uri_path=loader,
                                                    uri_query=(f"file={info.filename}",)))
                steps.append(ReplayStep(msg, gateway_source, entry.entry_type,
                                        entry.uri_path))
            else:
                size = max(16, max((len(b) for b in info.blocks), default=16))
                for i, block in enumerate(info.blocks):
                    more = i < len(info.blocks) - 1
                    msg = CoapMessage(MsgType.CON, POST, mids.next_mid(),
                                      options=OptionSet(uri_path=loader,
                                                        uri_query=(f"file={info.filename}",),
                                                        block1=Block1(i, more, size)),
                                      payload=block)
                    steps.append(ReplayStep(msg, gateway_source, entry.entry_type,
                                            entry.uri_path))
    return RecoveryPlan(node=node, steps=steps)


class RecoveryRun:
    """Execution state for one plan; owned by the coordinator."""

    def __init__(self, plan: RecoveryPlan, started_at: float) -> None:
        self.plan = plan
        self.index = 0
        self.report = RecoveryReport(node=plan.node, started_at=started_at,
                                     steps_total=len(plan.steps))
        self.gap_event = None
        self.exchange = None
        self.done = False

    @property
    def current_step(self) -> ReplayStep:
        return self.plan.steps[self.index]


class RecoveryCoordinator:
    """Drives recovery executions; one per node at a time.

    The transport (the gateway) provides `send_replay(step, node_addr,
    on_ack, on_timeout) -> exchange` where the exchange object supports
    `.cancel()`.  A second registration from the same node aborts the
    in-flight run and starts over with the current directory contents.
    """

    def __init__(self, directory: StateDirectory, transport, *, sim: Simulator,
                 mids: MidAllocator, gateway_addr: str, pacing_gap: float) -> None:
        self.directory = directory
        self.transport = transport
        self.sim = sim
        self.mids = mids
        self.gateway_addr = gateway_addr
        self.pacing_gap = pacing_gap
        self.active: dict[str, RecoveryRun] = {}
        self.reports: list[RecoveryReport] = []

    def on_registration(self, node_addr: str) -> Optional[RecoveryRun]:
        """Handle a (deduplicated) registration.  The caller must have
        acknowledged the registration before invoking this."""
        status = self.directory.register_node(node_addr)
        self.sim.trace.emit("reg", node=node_addr, status=status.value)
        if node_addr in self.active:
            self.abort(node_addr)
        if status is not RegistrationStatus.KNOWN_WITH_STATE:
            return None
        entries = self.directory.entries_for_server(node_addr)
        return self.execute_plan(build_plan(entries, self.gateway_addr, self.mids))

    def execute_plan(self, plan: RecoveryPlan) -> RecoveryRun:
        run = RecoveryRun(plan, started_at=self.sim.now)
        self.sim.trace.emit("recover_start", node=plan.node, steps=len(plan.steps))
        if not plan.steps:
            self._finish(run)
            return run
        self.active[plan.node] = run
        self._fire(run)
        return run

    def abort(self, node_addr: str) -> None:
        run = self.active.pop(node_addr, None)
        if run is None or run.done:
            return
        if run.gap_event is not None:
            run.gap_event.cancel()
        if run.exchange is not None:
            run.exchange.cancel()
            run.report.outcomes.append(StepResult(
                run.index, run.current_step.entry_type, run.current_step.uri,
                StepOutcome.ABORTED, self.sim.now))
        run.report.aborted = True
        self.sim.trace.emit("recover_abort", node=node_addr, at_step=run.index)
        self._finish(run, keep_active=True)

    def _fire(self, run: RecoveryRun) -> None:
        run.gap_event = None
        step = run.current_step
        self.sim.trace.emit("inject", node=run.plan.node, step=run.index,
                            et=int(step.entry_type), uri=step.uri,
                            src=str(step.spoofed_source), msg=step.message.short())
        run.exchange = self.transport.send_replay(
            step, run.plan.node,
            on_ack=lambda: self._resolved(run, StepOutcome.ACKED),
            on_timeout=lambda: self._resolved(run, StepOutcome.TIMED_OUT))

    def _resolved(self, run: RecoveryRun, outcome: StepOutcome) -> None:
        if run.done:
            return
        run.exchange = None
        step = run.current_step
        run.report.outcomes.append(StepResult(run.index, step.entry_type, step.uri,
                                              outcome, self.sim.now))
        self.sim.trace.emit("recover_step", node=run.plan.node, step=run.index,
                            outcome=outcome.value)
        run.index += 1
        if run.index < len(run.plan.steps):
            run.gap_event = self.sim.schedule(self.pacing_gap, self._fire, run)
        else:
            self._finish(run)

    def _finish(self, run: RecoveryRun, keep_active: bool = False) -> None:
        run.done = True
        run.report.finished_at = self.sim.now
        self.reports.append(run.report)
        if not keep_active:
            self.active.pop(run.plan.node, None)
        self.sim.trace.emit("recover_done", node=run.plan.node,
                            steps=len(run.report.outcomes),
                            aborted=run.report.aborted,
                            delay=f"{run.report.total_delay:.3f}")
