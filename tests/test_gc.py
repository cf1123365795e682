"""A finished run leaves no cyclic garbage.

Every exchange, replay and recovery run that a run creates is freed by
reference counting once it is done, so the cyclic garbage collector finds
nothing after the run.  Each test runs its world with the collector off,
keeps the `ScenarioRun` alive, and counts what one collection then frees.
"""

import gc
import importlib.resources
import weakref
from pathlib import Path

import pytest

from sdgateway import coap
from sdgateway.coap import Endpoint, OptionSet
from sdgateway.harness import CLIENT_ADDR, ScenarioRun
from sdgateway.lln import Frame
from sdgateway.scenario import (
    ClientDecl,
    NodeDecl,
    Scenario,
    load_scenario,
    parse_scenario,
)
from sdgateway.sim import TRACE_KINDS


def bundled(name: str) -> Path:
    return Path(importlib.resources.files("sdgateway") / "scenarios" / name)


def cyclic_garbage(sc: Scenario) -> tuple[ScenarioRun, int]:
    """Run `sc` to its end with the collector off; return the run, still
    alive, and the number of unreachable objects a collection finds."""
    gc.collect()
    gc.disable()
    try:
        run = ScenarioRun(sc)
        run.advance()
        run.finish()
        return run, gc.collect()
    finally:
        gc.enable()


def mass_reboot_scenario(nodes: int = 20) -> Scenario:
    """Every node holds 5 PUT states and 1 observe, then all crash at once."""
    sc = Scenario(scenario_id=f"mass_reboot[nodes={nodes}]", seed=1, settle=2000.0)
    sc.clients.append(ClientDecl("c1", CLIENT_ADDR))
    for i in range(nodes):
        decl = NodeDecl(f"n{i}", f"aaaa::c30c:0:0:{i + 2:x}", hops=1 + i % 3)
        decl.resources.update({f"cfg/r{k}": b"0" for k in range(5)})
        decl.resources["s/t"] = b"0"
        sc.nodes.append(decl)
        for k in range(5):
            sc.event(1000.0 + 97.0 * i + 13.0 * k, "put", client="c1", node=decl.name,
                     path=f"cfg/r{k}", value=b"%d" % (i * 5 + k), cf=0)
        sc.event(1000.0 + 97.0 * i + 70.0, "observe", client="c1", node=decl.name,
                 path="s/t", obs=0)
    for d in sc.nodes:
        sc.event(6000.0, "crash", node=d.name, down=500.0)
    for d in sc.nodes:
        sc.check(5500.0, "snapshot", d.name)
    for d in sc.nodes:
        sc.check(16_000.0, "restored", d.name)
    return sc


def test_mass_reboot_leaves_no_cyclic_garbage():
    run, garbage = cyclic_garbage(mass_reboot_scenario())
    assert run.ok, run.failures
    reports = run.world.gateway.recovery.reports
    assert len(reports) == 20 and sum(r.steps_total for r in reports) == 120
    assert garbage == 0


@pytest.mark.parametrize("name", ["fig12_19.scn", "bind_deploy.scn"])
def test_bundled_scenario_leaves_no_cyclic_garbage(name):
    run, garbage = cyclic_garbage(load_scenario(bundled(name)))
    assert run.ok, run.failures
    assert garbage == 0


# One observed, bound node receiving a block-wise deploy, then crashed twice:
# the second crash lands while the first recovery may still run.  3 hops at
# loss 0.25 make retransmissions, give-ups and failed boots common.
LOSSY = """
scenario gc_lossy
version 1
seed {seed}
hops 3
loss 0.25
settle 100000
node n1 aaaa::c30c:0:0:2
resource n1 s/t 0
resource n1 cfg/a 0
node n2 aaaa::c30c:0:0:3
resource n2 a/led 0
client c1 cccc::3
at 1000 put c1 n1 cfg/a 5
at 1500 observe c1 n1 s/t
at 2000 bind c1 n1 s/t dest=aaaa::c30c:0:0:3 res=a/led pmin=1 pmax=600
at 2500 deploy c1 n1 file=mod block=16 data=hex:000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f
at 5000 change n1 s/t 1
at 6000 change n1 s/t 2
at 100000 crash n1 down=400
at 106000 crash n1 down=400
"""

# Trace records that show each path a lossy run must cover.
PATHS = {
    "replay give-up": ("recover_step", {"outcome": "timed_out"}),
    "recovery abort": ("recover_abort", {}),
    "CON-notification give-up": ("obs_drop", {"reason": "retransmit-limit"}),
    "block deploy": ("load", {"source": "transfer"}),
}


def lossy_scenarios() -> list[Scenario]:
    scenarios = [parse_scenario(LOSSY.format(seed=seed)) for seed in (11, 43)]
    for name, seed in [("fig12_19.scn", 2), ("fig12_19.scn", 5),
                       ("bind_deploy.scn", 2), ("bind_deploy.scn", 6)]:
        sc = load_scenario(bundled(name))
        sc.seed, sc.loss = seed, 0.25
        scenarios.append(sc)
    return scenarios


def test_lossy_runs_leave_no_cyclic_garbage():
    covered = set()
    for sc in lossy_scenarios():
        run, garbage = cyclic_garbage(sc)
        assert garbage == 0, f"{sc.scenario_id} seed {sc.seed}"
        trace = run.world.sim.trace
        covered |= {path for path, (kind, match) in PATHS.items()
                    if trace.find(kind, **match)}
    assert covered == set(PATHS)


@pytest.mark.parametrize("phase", ["exchange", "gap"])
def test_an_aborted_recovery_run_is_freed_by_reference_counting(phase):
    """Abort a run while a replay is in flight, or in the pacing gap between
    two replays; nothing holds it afterwards, not even the cancelled timer
    that still waits in the event queue."""
    sc = parse_scenario("""
scenario abort
version 1
seed 4
settle 1000
node n1 aaaa::c30c:0:0:2
resource n1 r/0 0
resource n1 r/1 0
client c1 cccc::3
at 1000 put c1 n1 r/0 1
at 2000 put c1 n1 r/1 2
""")
    gc.collect()
    gc.disable()
    try:
        scenario_run = ScenarioRun(sc)
        scenario_run.advance()
        sim, recovery = scenario_run.world.sim, scenario_run.world.gateway.recovery
        node_addr = scenario_run.world.nodes["n1"].addr
        run = recovery.on_registration(node_addr)
        while phase == "gap" and run.gap_event is None:
            sim.run(until=sim.now + 1.0)
        assert (run.exchange if phase == "exchange" else run.gap_event) is not None
        ref = weakref.ref(run)
        del run
        recovery.abort(node_addr)
        assert ref() is None
    finally:
        gc.enable()
    assert recovery.reports[-1].aborted


def test_a_run_keeps_one_option_set_per_distinct_block():
    """Decoded frames with the same option bytes share one parsed
    `OptionSet`, so what a finished run keeps alive is one per distinct
    option block, however many nodes it has."""
    caches = coap.OPTION_CACHES
    held = []
    for nodes in (10, 20):
        for cache in caches:
            cache.cache_clear()
        gc.collect()
        before = {id(o) for o in gc.get_objects() if type(o) is OptionSet}
        run = ScenarioRun(mass_reboot_scenario(nodes))
        run.advance()
        run.finish()
        assert run.ok, run.failures
        for cache in caches:  # so that only what the run holds is left
            cache.cache_clear()
        gc.collect()
        left = [o for o in gc.get_objects()
                if type(o) is OptionSet and id(o) not in before]
        assert len(left) == len(set(left)), left
        held.append(len(left))
    assert held[0] == held[1]


# Where a record's `msg` is in its `t, name, *values` slice, by kind.
MSG_AT = {}
for name, layout in TRACE_KINDS.items():
    given = [word.partition(":")[0] for word in layout.split()[1:] if "=" not in word]
    if "msg" in given:
        MSG_AT[name] = 2 + given.index("msg")


def test_trace_records_hold_shared_endpoints_and_no_container_per_record(monkeypatch):
    """A record is its time, kind and values in the trace's flat list: no
    dict, tuple or `addr:port` text is made for it.  Its endpoints are the
    network's, one `Endpoint` per (addr, port): the gateway's, each node's,
    and the client's source port of each of a node's six requests.  A
    frame's `msg` is the frame's own parse, or its `raw` bytes when it has
    none, so no text or bytes are made per frame either."""
    frames = []  # every frame, kept alive so that no id is reused
    original_init, original_of = Frame.__init__, Frame.of

    def init(self, *args):
        original_init(self, *args)
        frames.append(self)

    def of(cls, *args):
        frame = original_of(*args)
        frames.append(frame)
        return frame

    monkeypatch.setattr(Frame, "__init__", init)
    monkeypatch.setattr(Frame, "of", classmethod(of))
    held = []
    for nodes in (10, 20):
        gc.collect()
        earlier = [o for o in gc.get_objects() if type(o) is Endpoint]  # kept: no id reused
        before = {id(o) for o in earlier}
        run = ScenarioRun(mass_reboot_scenario(nodes))
        run.advance()
        run.finish()
        assert run.ok, run.failures
        gc.collect()
        left = [o for o in gc.get_objects() if type(o) is Endpoint and id(o) not in before]
        assert len(left) == len(set(left)), left
        texts = {str(e) for e in left}
        trace = run.world.sim.trace
        flat = trace._flat
        assert not [v for v in flat
                    if type(v) in (dict, tuple) or (type(v) is str and v in texts)]
        assert {v for v in flat if type(v) is Endpoint} <= set(left)
        held.append(len(left))
        msgs = [record[MSG_AT[record[1]]] for _, record in trace._slices()
                if record[1] in MSG_AT]
        assert len(msgs) > 10 * nodes and len(MSG_AT) == 8
        own = {id(f.raw if f.parsed is None else f.parsed) for f in frames}
        assert all(id(v) in own for v in msgs)
        assert not [v for v in flat if type(v) is bytes]  # every frame parses
        summaries = {f.parsed.short() for f in frames}
        assert not [v for v in flat if type(v) is str and v in summaries]
        frames.clear()
    assert held == [1 + 7 * 10, 1 + 7 * 20]
