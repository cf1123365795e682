"""Seeded workload inputs for the benchmark and the runner that executes them.

Every workload is a list of `Scenario` objects built from the seed alone;
the program under test only ever sees those generated inputs.  The runner
mirrors `harness.run_scenario` but splits it in two so set-up (building
the world and scheduling its events) is timed apart from the simulation:

    prepared = prepare(scenario)   # set-up: build_world + schedule
    execute(prepared)              # timed: sim.run, final checks, metrics

Loads are open-loop in simulated time: every client request, node-side
change and crash is scheduled before the first simulated event.

An operation is one checked assertion (every assertion except `snapshot`):
a node's `restored`, or one end-of-stream check.  A run whose set-up or
simulation raises fails all of its operations (at least one), counted
under the exception's type.
"""

from __future__ import annotations

import hashlib
import random
import sys
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional

from sdgateway import harness
from sdgateway.harness import (
    CLIENT_ADDR,
    NODE_ADDR,
    canonical_recovery_scenario,
    csv_text,
)
from sdgateway.lln import RDC
from sdgateway.scenario import ClientDecl, NodeDecl, Scenario, ScenarioAssert, ScenarioEvent

NODE2_ADDR = "aaaa::c30c:0:0:3"

# Input sizes.  Fixed per workload: a slower program reports a timeout
# rather than running a smaller input.
SWEEP_STATE_COUNTS = (1, 2, 4, 8, 16, 32)
SWEEP_REPS = 10
# The canonical scenario settles 25 s after the crash, which is shorter than
# a 32-state recovery at contikimac over 3 hops (about 31 s); the benchmark
# observes 60 s so that every node can be checked `restored`.
SWEEP_SETTLE_MS = 60_000.0
MASS_REBOOT_NODES = 200
OBSERVE_STREAM_NODES = 100
OBSERVE_STREAM_EVENTS = 2000
LOSSY_MIX_RUNS = 60
LOSSY_MIX_LOSS = 0.05
# Steps of simulated time per run; see `execute`.
SIM_STEPS = 100


def node_addr(index: int) -> str:
    return f"aaaa::c30c:0:0:{index + 2:x}"


def _event(t: float, verb: str, **args) -> ScenarioEvent:
    return ScenarioEvent(t, verb, args, 0)


def _check(t: Optional[float], check: str, *args: str) -> ScenarioAssert:
    return ScenarioAssert(t, check, list(args), 0)


# -- generators ---------------------------------------------------------------

def sweep_states(seed: int) -> list[Scenario]:
    """The canonical crash-recovery sweep: contikimac, 3 hops, rep-paired
    derived seeds, a snapshot before the crash and `restored` at the end."""
    scenarios = []
    for count in SWEEP_STATE_COUNTS:
        for rep in range(SWEEP_REPS):
            sc = canonical_recovery_scenario(hops=3, rdc=RDC.CONTIKIMAC,
                                             state_count=count,
                                             seed=seed + 7919 * rep)
            crash_at = max(e.time for e in sc.events)
            sc.settle = SWEEP_SETTLE_MS
            sc.asserts.append(_check(crash_at - 500.0, "snapshot", "n1"))
            sc.asserts.append(_check(None, "restored", "n1"))
            scenarios.append(sc)
    return scenarios


def mass_reboot(seed: int, nodes: int = MASS_REBOOT_NODES) -> list[Scenario]:
    """Power outage: every node holds 5 PUT states and 1 observe, then all
    crash at once and must all come back `restored`."""
    rng = random.Random(seed)
    sc = Scenario(scenario_id=f"mass_reboot[nodes={nodes}]", seed=seed,
                  rdc=RDC.NULLRDC, settle=2000.0)
    sc.clients.append(ClientDecl("c1", CLIENT_ADDR))
    window = 20_000.0
    events = []
    for i in range(nodes):
        decl = NodeDecl(f"n{i}", node_addr(i), hops=1 + i % 3)
        paths = [f"cfg/r{k}" for k in range(5)]
        for path in paths + ["s/t"]:
            decl.resources[path] = b"0"
        sc.nodes.append(decl)
        for path in paths:
            events.append(_event(1000.0 + rng.uniform(0.0, window), "put", client="c1",
                                 node=decl.name, path=path,
                                 value=b"%d" % rng.randint(1, 999), cf=0))
        events.append(_event(1000.0 + rng.uniform(0.0, window), "observe",
                             client="c1", node=decl.name, path="s/t", obs=0))
    events.sort(key=lambda e: e.time)
    snapshot_at = 1000.0 + window + 3000.0
    crash_at = snapshot_at + 500.0
    events += [_event(crash_at, "crash", node=d.name, down=500.0) for d in sc.nodes]
    sc.events = events
    sc.asserts = [_check(snapshot_at, "snapshot", d.name) for d in sc.nodes]
    sc.asserts += [_check(crash_at + 10_000.0, "restored", d.name) for d in sc.nodes]
    return [sc]


def observe_stream(seed: int, nodes: int = OBSERVE_STREAM_NODES,
                   stream: int = OBSERVE_STREAM_EVENTS) -> list[Scenario]:
    """A long stream over a standing directory of one observe and one PUT
    entry per node: resource changes (CON notifications out, client ACKs
    in), PUT updates, and deregister/re-observe churn, with no crash.  It
    ends with two checks per node: the last PUT value and the client's
    observation."""
    rng = random.Random(seed)
    sc = Scenario(scenario_id=f"observe_stream[nodes={nodes}]", seed=seed,
                  rdc=RDC.NULLRDC, settle=1000.0)
    sc.clients.append(ClientDecl("c1", CLIENT_ADDR))
    events = []
    last_put: dict[str, int] = {}
    busy_until: dict[str, float] = {}
    for i in range(nodes):
        decl = NodeDecl(f"n{i}", node_addr(i), hops=1 + i % 3)
        decl.resources.update({"s/t": b"0", "cfg/v": b"0"})
        sc.nodes.append(decl)
        t = 1000.0 + rng.uniform(0.0, 1000.0)
        events.append(_event(t, "observe", client="c1", node=decl.name, path="s/t", obs=0))
        last_put[decl.name] = rng.randint(1, 999)
        events.append(_event(t + 200.0, "put", client="c1", node=decl.name,
                             path="cfg/v", value=b"%d" % last_put[decl.name], cf=0))
        busy_until[decl.name] = 0.0
    # A fixed mix, shuffled, so every seed does the same amount of work.
    # The mix is an assumption, not a measured trace: changes (60%) are
    # the bulk, as notifications are in an observe deployment, and each
    # is a directory lookup from the LLN side; PUT updates (25%) rewrite an
    # entry from the internet side; deregister/re-observe churn (15%)
    # removes and recreates an entry.  Every path gets a sizeable share.
    # Gaps of 0-100 ms put a stream event on one node about every 5 s, far
    # longer than a round trip of at most 90 ms over 3 nullrdc hops, so
    # exchanges on one node seldom overlap.
    ops = ["change"] * (stream * 60 // 100) + ["put"] * (stream * 25 // 100)
    ops += ["churn"] * (stream - len(ops))
    rng.shuffle(ops)
    t = 3000.0
    for op in ops:
        t += rng.uniform(0.0, 100.0)
        index = rng.randrange(nodes)
        name = f"n{index}"
        if op == "churn":
            # Churn the next node that is not already churning, if any.
            free = next((f"n{(index + k) % nodes}" for k in range(nodes)
                         if busy_until[f"n{(index + k) % nodes}"] < t), None)
            if free is None:
                op = "change"
            else:
                name = free
        if op == "change":
            events.append(_event(t, "change", node=name, path="s/t",
                                 value=b"%d" % rng.randint(0, 9999)))
        elif op == "put":
            last_put[name] = rng.randint(1, 999)
            events.append(_event(t, "put", client="c1", node=name, path="cfg/v",
                                 value=b"%d" % last_put[name], cf=0))
        else:
            # The re-observe goes out well after the deregister's response.
            events.append(_event(t, "deregister", client="c1", node=name, path="s/t"))
            events.append(_event(t + 400.0, "observe", client="c1", node=name,
                                 path="s/t", obs=0))
            busy_until[name] = t + 500.0
    events.sort(key=lambda e: e.time)
    check_at = max(t, max(busy_until.values())) + 3000.0
    asserts = []
    for d in sc.nodes:
        asserts.append(_check(check_at, "resource", d.name, "cfg/v",
                              str(last_put[d.name])))
        asserts.append(_check(check_at, "observer-client", d.name, "s/t", CLIENT_ADDR))
    sc.events, sc.asserts = events, asserts
    return [sc]


def lossy_mix(seed: int) -> list[Scenario]:
    """Randomized PUT/observe/deregister/bind/deploy sequences across two
    nodes with per-hop loss, each ending with a crash and `restored`."""
    return [_lossy_scenario(seed * LOSSY_MIX_RUNS + k) for k in range(LOSSY_MIX_RUNS)]


def _lossy_scenario(seed: int) -> Scenario:
    rng = random.Random(seed)
    sc = Scenario(scenario_id=f"lossy{seed}", seed=seed, loss=LOSSY_MIX_LOSS,
                  settle=25_000.0)
    node = NodeDecl("n1", NODE_ADDR)
    paths = ["cfg/a", "cfg/b", "cfg/c", "cfg/d"]
    for path in paths:
        node.resources[path] = b"0"
    node2 = NodeDecl("n2", NODE2_ADDR)
    node2.resources["a/led"] = b"0"
    sc.nodes += [node, node2]
    sc.clients.append(ClientDecl("c1", CLIENT_ADDR))
    t = 1000.0
    observed: set[str] = set()
    for _ in range(rng.randint(4, 10)):
        op = rng.choice(["put", "put", "observe", "observe", "deregister", "bind", "deploy"])
        path = rng.choice(paths)
        if op == "put":
            sc.events.append(_event(t, "put", client="c1", node="n1", path=path,
                                    value=b"%d" % rng.randint(1, 99), cf=0))
        elif op == "observe":
            sc.events.append(_event(t, "observe", client="c1", node="n1", path=path, obs=0))
            observed.add(path)
        elif op == "deregister" and observed:
            gone = sorted(observed)[rng.randrange(len(observed))]
            observed.discard(gone)
            sc.events.append(_event(t, "deregister", client="c1", node="n1", path=gone))
        elif op == "bind":
            sc.events.append(_event(t, "bind", client="c1", node="n1", path=path,
                                    dest=NODE2_ADDR, res="a/led", pmin=1, pmax=3600))
        elif op == "deploy":
            sc.events.append(_event(t, "deploy", client="c1", node="n1",
                                    file=f"mod{rng.randint(0, 1)}",
                                    data=rng.randbytes(rng.randint(20, 90)),
                                    block=32, loader="ldr"))
        t += 700.0
    sc.asserts.append(_check(t + 2500.0, "snapshot", "n1"))
    sc.events.append(_event(t + 3000.0, "crash", node="n1", down=400.0))
    sc.asserts.append(_check(t + 14_000.0, "restored", "n1"))
    return sc


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], list[Scenario]]
    # Host seconds one untraced repeat may take, about ten times its
    # median here, before the run reports a timeout.
    budget_s: float
    # Whether a failed operation is expected (lossy links) or a defect.
    failures_expected: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("sweep_states", sweep_states, budget_s=5.0),
    Workload("mass_reboot", mass_reboot, budget_s=20.0),
    Workload("observe_stream", observe_stream, budget_s=20.0),
    Workload("lossy_mix", lossy_mix, budget_s=5.0, failures_expected=True),
)}


# -- runner -------------------------------------------------------------------

@dataclass
class Prepared:
    scenario: Scenario
    world: Optional[harness.World] = None
    outcomes: list[tuple[str, Optional[str]]] = field(default_factory=list)
    snapshots: dict = field(default_factory=dict)
    metrics: list = field(default_factory=list)
    error: Optional[str] = None
    error_text: str = ""

    def run_check(self, check: ScenarioAssert) -> None:
        problem = harness._evaluate(self.world, check, self.snapshots)
        self.outcomes.append((check.check, problem))

    def record_error(self) -> None:
        """Keep the exception being handled; the benchmark keeps going."""
        self.error = sys.exc_info()[0].__name__
        self.error_text = traceback.format_exc()

    def trace_records(self) -> list:
        return self.world.sim.trace.records if self.world is not None else []


def prepare(sc: Scenario) -> Prepared:
    """Build the world and schedule everything, in `run_scenario`'s order.
    A set-up that raises records the error, and the run is not executed."""
    p = Prepared(sc)
    try:
        world = p.world = harness.build_world(sc)
        sim = world.sim
        for node in world.nodes.values():
            sim.schedule_at(0.0, node.boot)
        for ev in sc.events:
            sim.schedule_at(ev.time, harness._dispatch, world, ev)
        for check in sc.asserts:
            if check.time is not None:
                sim.schedule_at(check.time, p.run_check, check)
    except Exception:
        p.record_error()
    return p


def execute(p: Prepared, between_steps: Callable[[], None] = lambda: None) -> None:
    """Run to the scenario's end, evaluate final checks, collect metrics.
    A run that raises keeps its partial trace and records the error.

    The simulation runs in SIM_STEPS equal steps of simulated time and
    calls `between_steps` after each, where the benchmark measures host
    speed.  Nothing is scheduled between steps, so the run is the same as
    one `sim.run(until=end)`, except that the simulator's event budget
    applies to each step."""
    if p.error is not None:
        return
    try:
        end = p.scenario.end_time()
        for step in range(1, SIM_STEPS + 1):
            p.world.sim.run(until=end if step == SIM_STEPS else end * step / SIM_STEPS)
            between_steps()
        for check in p.scenario.asserts:
            if check.time is None:
                p.run_check(check)
        p.metrics = harness.collect_metrics(p.world)
    except Exception:
        p.record_error()


def operations(p: Prepared) -> tuple[int, dict[str, int]]:
    """(attempted, failed by type) for one run."""
    attempted = sum(1 for c in p.scenario.asserts if c.check != "snapshot")
    if p.error is not None:
        attempted = max(attempted, 1)
        return attempted, {p.error: attempted}
    failed = sum(1 for check, problem in p.outcomes
                 if check != "snapshot" and problem is not None)
    return attempted, ({"mismatch": failed} if failed else {})


def digest(runs: list[Prepared]) -> str:
    """sha256 over every run's trace text, metrics CSV and outcome."""
    h = hashlib.sha256()
    for p in runs:
        if p.world is not None:
            h.update(p.world.sim.trace.text().encode())
        h.update(csv_text(p.metrics).encode())
        h.update(repr((p.outcomes, p.error)).encode())
    return h.hexdigest()


def gateway_frames(runs: list[Prepared]) -> int:
    """Frames received by the gateway: the `recv at=gw` trace records."""
    return sum(1 for p in runs for _, kind, f in p.trace_records()
               if kind == "recv" and f.get("at") == "gw")
