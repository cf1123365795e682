"""Replay stored dynamic states onto a rebooted node, from the live directory.

`build_plan` orders the node's entries into steps when it registers.  The
executor fires one step at a time.  Its replay is the request the entry
keeps at that moment, sent again as a CON with the step's fresh MID; so a
client request made during recovery is never undone, and a step whose
entry is gone is skipped.  It waits for the (suppressed) response or a
retransmission timeout, and paces consecutive injections so recovery
traffic cannot congest the LLN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .coap import POST, CoapMessage, Endpoint, MidAllocator, MsgType, request
from .directory import EntryType, SDEntry, StateDirectory, RegistrationStatus
from .lln import Confirmable, Frame, answer
from .sim import Simulator

PACING_GAP_MS = 50.0  # between one replay's answer and the next replay

class StepOutcome(Enum):
    ACKED = "acked"
    TIMED_OUT = "timed_out"
    ABORTED = "aborted"
    SKIPPED = "skipped"  # its entry was gone when it fired


@dataclass(slots=True)
class StepResult:
    index: int
    entry_type: EntryType
    uri: str
    outcome: StepOutcome
    completed_at: float


@dataclass(slots=True)
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
                and all(o.outcome in (StepOutcome.ACKED, StepOutcome.SKIPPED)
                        for o in self.outcomes))


def build_plan(entries: list[SDEntry], mids: MidAllocator) -> list[tuple]:
    """Order one node's entries into replay steps `(entry, mid)`, one per
    entry.  Each MID is reserved now, so concurrent recoveries keep theirs.

    State-modifying entries go first (each in creation order); observe
    registrations land last so the counter they seed is final — a PUT
    replayed onto an already-restored observer would notify and push the
    counter past the stored value.
    """
    ordered = [e for e in entries if e.entry_type is not EntryType.OBSERVE] + \
              [e for e in entries if e.entry_type is EntryType.OBSERVE]
    return [(entry, mids.next_mid()) for entry in ordered]


_SPOOFED = (EntryType.PUT, EntryType.OBSERVE)  # replayed from the stored client


def build_replay(step: tuple, gateway: Endpoint) -> tuple[CoapMessage, Endpoint]:
    """The message that replays `step`, and the source it spoofs: the
    stored client for PUT and OBSERVE, `gateway`, the gateway's own
    endpoint, for BIND and DEPLOY.  The message is the request the entry
    keeps now as a CON with the step's MID, every option of the intercepted
    request with it; a DEPLOY's is the loader POST of its filename alone."""
    entry, mid = step
    options = entry.request.options
    if entry.entry_type is EntryType.OBSERVE:
        # Fresh MID, stored token: tokens, not MIDs, bind notifications to
        # the relationship.  The stored counter continues the numbering; 1
        # would read as a cancellation on the wire, so it is bumped past it.
        counter = 2 if entry.observe_counter == 1 else entry.observe_counter
        options = options._replace(observe=counter)
    elif entry.entry_type is EntryType.DEPLOY:
        # The filename alone: the node reloads the module from its flash.
        return request(MsgType.CON, POST, mid, options.path_str(),
                       uri_query=(f"file={options.query_value('file')}",)), gateway
    source = entry.client if entry.entry_type in _SPOOFED else gateway
    return entry.request._replace(msg_type=MsgType.CON, mid=mid, options=options), source


class RecoveryRun:
    """Execution state for one node's steps; owned by the coordinator."""

    def __init__(self, node: str, steps: list[tuple], started_at: float) -> None:
        self.node = node
        self.steps = steps
        self.index = 0
        self.report = RecoveryReport(node=node, started_at=started_at,
                                     steps_total=len(steps))
        self.gap_event = None
        self.exchange = None


class RecoveryCoordinator:
    """Drives recovery executions; one per node at a time.

    Each run owns the replay it has in flight: the gateway's `send_replay`
    starts the `Confirmable` exchange in `replays`, the open replays of
    every run, and the run stores it; `consume` matches the node's response
    to it.  A second registration from the same node aborts the in-flight
    run and starts over with the current directory contents.
    """

    def __init__(self, directory: StateDirectory, gateway, *, sim: Simulator) -> None:
        self.directory = directory
        self.gateway = gateway
        self.sim = sim
        self.mids = MidAllocator(sim.rng)
        self.active: dict[str, RecoveryRun] = {}
        self.replays: dict[tuple[Endpoint, Endpoint, int], Confirmable] = {}
        self.reports: list[RecoveryReport] = []

    def on_registration(self, node_addr: str) -> Optional[RecoveryRun]:
        """Handle a (deduplicated) registration.  The caller must have
        acknowledged the registration before invoking this."""
        status = self.directory.register_node(node_addr)
        self.sim.trace.emit("reg", node_addr, status)
        self.abort(node_addr)
        if status is not RegistrationStatus.KNOWN_WITH_STATE:
            return None
        steps = build_plan(self.directory.entries_for_server(node_addr), self.mids)
        run = self.active[node_addr] = RecoveryRun(node_addr, steps, self.sim.now)
        self.sim.trace.emit("recover_start", node_addr, len(steps))
        self._fire(run)
        return run

    def abort(self, node_addr: str) -> None:
        run = self.active.pop(node_addr, None)
        if run is None:
            return
        if run.gap_event is not None:
            self.sim.cancel(run.gap_event)
            run.gap_event = None
        if run.exchange is not None:
            run.exchange.cancel()
            run.exchange = None
            entry = run.steps[run.index][0]
            run.report.outcomes.append(StepResult(run.index, entry.entry_type, entry.uri_path,
                                                  StepOutcome.ABORTED, self.sim.now))
        run.report.aborted = True
        self.sim.trace.emit("recover_abort", node_addr, run.index)
        self._finish(run)

    def _fire(self, run: RecoveryRun) -> None:
        """Inject the next step whose entry the directory still holds,
        built from that entry as it is now.  A step whose entry is gone is
        skipped at once: it sends nothing, so it takes no pacing gap."""
        run.gap_event = None
        while run.index < len(run.steps):
            step = entry, _ = run.steps[run.index]
            if self.directory.holds(entry):
                break
            self._record(run, StepOutcome.SKIPPED)
        else:
            self._finish(run)
            return
        message, source = build_replay(step, self.gateway.endpoint)
        frame = Frame.of(message, source, self.gateway.network.endpoint(run.node))
        self.sim.trace.emit("inject", run.node, run.index, int(entry.entry_type),
                            entry.uri_path, source, frame.traced)
        run.exchange = self.gateway.send_replay(
            frame, self.replays, on_answer=lambda reply: self._consumed(run, reply),
            on_timeout=lambda: self._resolved(run, StepOutcome.TIMED_OUT))

    def consume(self, frame: Frame) -> bool:
        """Claim `frame` if it answers the replay in flight to the node that
        sent it: an ACK or RST by `answer`'s rule, or a separate response
        addressed to the replay's spoofed source that carries the replay's
        token.  A node has at most one run and a run at most one replay, so
        the token clause is one lookup.  A claimed response acknowledges the
        step."""
        if answer(self.replays, frame):
            return True
        run = self.active.get(frame.src.addr)
        if run is None or run.exchange is None:
            return False
        replay = run.exchange.frame
        token = replay.parsed.token
        if not token or frame.parsed.token != token or frame.dst != replay.src:
            return False
        run.exchange.cancel()
        self._consumed(run, frame)
        return True

    def _consumed(self, run: RecoveryRun, frame: Frame) -> None:
        self.sim.trace.emit("consume", frame.dst, frame.traced)
        self._resolved(run, StepOutcome.ACKED)

    def _resolved(self, run: RecoveryRun, outcome: StepOutcome) -> None:
        run.exchange = None
        self._record(run, outcome)
        if run.index < len(run.steps):
            run.gap_event = self.sim.schedule(PACING_GAP_MS, self._fire, run)
        else:
            self._finish(run)

    def _record(self, run: RecoveryRun, outcome: StepOutcome) -> None:
        """Record the current step's outcome and move on to the next step."""
        entry = run.steps[run.index][0]
        run.report.outcomes.append(StepResult(run.index, entry.entry_type, entry.uri_path,
                                              outcome, self.sim.now))
        self.sim.trace.emit("recover_step", run.node, run.index, outcome)
        run.index += 1

    def _finish(self, run: RecoveryRun) -> None:
        run.report.finished_at = self.sim.now
        self.reports.append(run.report)
        self.active.pop(run.node, None)
        self.sim.trace.emit("recover_done", run.node, len(run.report.outcomes),
                            run.report.aborted, run.report.total_delay)
