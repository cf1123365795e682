import importlib.resources
import random

from worldutil import booted_world, simple_scenario
from sdgateway.cli import main as cli_main
from sdgateway.coap import (
    GET, POST, PUT, BindingInfo, Block1, Endpoint, MidAllocator, MsgType,
    decode, encode, is_request, request,
)
from sdgateway.directory import EntryType, SDEntry, StateDirectory
from sdgateway.harness import CLIENT_ADDR, ScenarioRun, run_scenario
from sdgateway.lln import Network, RequestKind, request_kind
from sdgateway.recovery import PACING_GAP_MS, StepOutcome, build_plan, build_replay
from sdgateway.scenario import parse_scenario

GW = Endpoint("cccc::1")  # the gateway's own endpoint
NODE = Endpoint("aaaa::c30c:0:0:2", 5683)


def fig17_entries():
    c = lambda port: Endpoint("cccc::3", port)
    return [
        SDEntry(EntryType.PUT, c(50824), NODE, "a/lb",
                request(MsgType.CON, PUT, 1, "a/lb", payload=b"10", content_format=0),
                created_at=1.0),
        SDEntry(EntryType.PUT, c(33513), NODE, "a/m",
                request(MsgType.CON, PUT, 2, "a/m", payload=b"7", content_format=0),
                created_at=2.0),
        SDEntry(EntryType.OBSERVE, c(52808), NODE, "gpi/btn",
                request(MsgType.CON, GET, 3, "gpi/btn", token=b"\x0b\x2a", observe=0),
                observe_counter=10, created_at=3.0),
    ]


def replays(entries, mids=None):
    """The steps `build_plan` orders `entries` into, each as the message
    that replays it and the source it spoofs."""
    steps = build_plan(entries, mids or MidAllocator(random.Random(0)))
    return [build_replay(step, GW) for step in steps]


def test_plan_for_three_stored_entries():
    entries = fig17_entries()
    steps = build_plan(entries, MidAllocator(random.Random(0)))
    assert [entry for entry, *_ in steps] == entries
    assert len({mid for *_, mid in steps}) == 3  # each step reserves its own MID
    msgs = [build_replay(step, GW)[0] for step in steps]
    assert [m.mid for m in msgs] == [mid for *_, mid in steps]
    assert [m.code for m in msgs] == [PUT, PUT, GET]
    assert [m.options.path_str() for m in msgs] == ["a/lb", "a/m", "gpi/btn"]
    assert msgs[0].payload == b"10"
    assert msgs[2].options.observe == 10
    assert msgs[2].token == b"\x0b\x2a"


def test_put_and_observe_steps_spoof_the_stored_client():
    sources = [source for _, source in replays(fig17_entries())]
    assert sources[0] == Endpoint("cccc::3", 50824)
    assert sources[2] == Endpoint("cccc::3", 52808)
    assert all(source.addr != GW.addr for source in sources)


def test_bind_and_deploy_steps_originate_from_the_gateway():
    binding = BindingInfo("aaaa::9", "a/led", 1, 60)
    entries = [
        SDEntry(EntryType.BIND, Endpoint("cccc::3", 40000), NODE, "s/t",
                request(MsgType.CON, GET, 4, "s/t", token=b"\x09", observe=0, binding=binding),
                created_at=1.0),
        SDEntry(EntryType.DEPLOY, Endpoint("cccc::3", 40001), NODE, "ldr",
                request(MsgType.CON, POST, 5, "ldr", payload=b"x", uri_query=("file=blinker",),
                        block1=Block1(0, False, 64)),
                created_at=2.0),
    ]
    (bind, bind_src), (deploy, deploy_src) = replays(entries)
    assert [bind.code, deploy.code] == [GET, POST]
    assert bind.options.observe == 0
    assert bind.options.binding == binding
    assert deploy.options.uri_query == ("file=blinker",)
    assert bind_src == deploy_src == GW


def test_replay_fidelity_against_stored_originals():
    entries = fig17_entries()
    for entry, (msg, _) in zip(entries[:2], replays(entries)[:2]):
        assert msg.code == PUT
        assert msg.options.path_str() == entry.uri_path
        assert msg.payload == entry.request.payload
        assert msg.options.content_format == entry.request.options.content_format


def test_a_replay_carries_every_option_of_the_intercepted_request():
    put = request(MsgType.CON, PUT, 100, "a/lb", payload=b"10", uri_query=("x=1",),
                  content_format=0)
    sd = StateDirectory()
    sd.intercept_from_internet(put, Endpoint("cccc::3", 50824), NODE)
    (step,) = build_plan(sd.entries, MidAllocator(random.Random(0)))
    msg, source = build_replay(step, GW)
    assert msg.options.uri_query == ("x=1",)
    assert msg == put._replace(mid=step[-1]) and source == Endpoint("cccc::3", 50824)


def test_each_replay_is_the_client_request_with_a_fresh_mid_and_a_deploy_its_filename():
    """In a live run, the bind and PUT replays are the client's own
    requests, with type CON and the step's MID; the deploy replay is the
    loader POST of its filename alone, sent from the gateway."""
    text = (importlib.resources.files("sdgateway") / "scenarios" / "bind_deploy.scn").read_text()
    result = run_scenario(parse_scenario(text))
    assert result.ok, result.failures
    client_addr = result.world.clients["c1"].addr
    sent, injected = {}, []
    for layout, record in result.world.sim.trace._slices():
        if layout.kind == "send" and record[2].addr == client_addr and is_request(record[4].code):
            sent.setdefault(record[4].mid, record[4])  # a retransmission sends it again
        elif layout.kind == "inject":
            injected.append((record[6], record[7]))
    assert [int(f["et"]) for _, f in result.world.sim.trace.find("inject")] == [6, 7, 2]
    (bind_src, bind), (deploy_src, deploy), (_, put) = injected
    blocks = [m for m in sent.values() if m.options.block1 is not None]
    originals = [m for m in sent.values() if m.options.block1 is None]
    assert len(blocks) == 3 and len(originals) == 2
    for replay, original in zip((bind, put), originals):
        assert replay.mid != original.mid
        assert replay == original._replace(msg_type=MsgType.CON, mid=replay.mid)
    loader = blocks[-1].options.path_str()
    assert deploy == request(MsgType.CON, POST, deploy.mid, loader, uri_query=("file=blinker",))
    assert deploy.mid not in sent
    assert bind_src == deploy_src == result.world.gateway.endpoint


def test_a_step_replays_its_entry_as_it_is_when_the_step_fires():
    entries = fig17_entries()
    steps = build_plan(entries, MidAllocator(random.Random(0)))
    entries[0].request = entries[0].request._replace(payload=b"99")
    entries[0].client = Endpoint("cccc::3", 40404)
    msg, source = build_replay(steps[0], GW)
    assert msg.payload == b"99" and source == Endpoint("cccc::3", 40404)


def test_state_steps_keep_creation_order_and_observes_go_last():
    entries = fig17_entries()
    entries[0].created_at, entries[2].created_at = 9.0, 0.5  # observe is oldest now
    reordered = sorted(entries, key=lambda e: e.created_at)
    steps = build_plan(reordered, MidAllocator(random.Random(0)))
    # Observe registrations replay after state-modifying entries so the
    # seeded counter cannot be bumped by a later PUT replay.
    assert [int(entry.entry_type) for entry, *_ in steps] == [2, 2, 5]
    assert [entry.uri_path for entry, *_ in steps] == ["a/m", "a/lb", "gpi/btn"]


def test_recovery_delay_matches_stop_and_wait_formula():
    sc = parse_scenario("""
scenario formula
version 1
seed 3
settle 20000
node n1 aaaa::c30c:0:0:2
resource n1 r/0 0
resource n1 r/1 0
resource n1 r/2 0
client c1 cccc::3
at 1000 put c1 n1 r/0 1
at 2000 put c1 n1 r/1 2
at 3000 put c1 n1 r/2 3
at 5000 crash n1 down=200
""")
    run = ScenarioRun(sc)
    run.world.nodes["n1"].link.delay_range = (10.0, 10.0)  # degenerate: exact delays
    run.advance()
    report = run.world.gateway.recovery.reports[0]
    assert report.all_acked
    # Stop-and-wait: three 20 ms round trips plus two pacing gaps.
    assert abs(report.total_delay - (3 * 20.0 + 2 * PACING_GAP_MS)) < 1.0


def test_double_crash_times_out_steps_but_keeps_entries():
    sc = parse_scenario("""
scenario doublecrash
version 1
seed 9
settle 400000
node n1 aaaa::c30c:0:0:2
resource n1 r/0 0
resource n1 r/1 0
client c1 cccc::3
at 1000 put c1 n1 r/0 1
at 2000 put c1 n1 r/1 2
at 3000 observe c1 n1 r/0
assert 3500 snapshot n1
at 4000 crash n1 down=100
at 4150 crash n1 down=300000
assert final restored n1
""")
    result = run_scenario(sc)
    assert result.ok, result.failures
    reports = result.world.gateway.recovery.reports
    assert len(reports) == 2
    first, second = reports
    assert any(o.outcome is StepOutcome.TIMED_OUT for o in first.outcomes)
    assert result.flagged
    assert second.all_acked
    # Entries survived the failed recovery for the next registration.
    entries = result.world.gateway.directory.entries_for_server("aaaa::c30c:0:0:2")
    assert sorted(int(e.entry_type) for e in entries) == [2, 2, 5]
    # No response matcher outlives its exchange, timed out or acknowledged.
    assert result.world.gateway.recovery.active == {}


def _mid(summary: str) -> int:
    return int(summary.split(" mid=")[1].split()[0])


def test_a_response_answers_only_the_replay_to_the_node_that_sent_it():
    """Every client starts its tokens at 0x0B28, so the bind replays to n1
    and n2 both spoof the gateway and carry the same token.  Both are in
    flight at once; each node's response must acknowledge its own node's
    step, matched by the MID injected to that node."""
    sc = parse_scenario("""
scenario twobinds
version 1
seed 3
settle 15000
node n1 aaaa::c30c:0:0:2
node n2 aaaa::c30c:0:0:3
node n3 aaaa::c30c:0:0:4
resource n1 s/t 18
resource n2 s/t 19
resource n3 a/led 0
client c1 cccc::3
client c2 cccc::4
at 1000 bind c1 n1 s/t dest=aaaa::c30c:0:0:4 res=a/led pmin=1 pmax=600
at 1000 bind c2 n2 s/t dest=aaaa::c30c:0:0:4 res=a/led pmin=1 pmax=600
at 5000 crash n1 down=300
at 5000 crash n2 down=300
""")
    records = list(run_scenario(sc).world.sim.trace.records)
    kinds = [kind for _, kind, _ in records]
    injects = [fields for _, kind, fields in records if kind == "inject"]
    assert len(injects) == 2 and all("tok=0b28" in f["msg"] for f in injects)
    assert kinds.index("consume") > max(i for i, k in enumerate(kinds) if k == "inject")
    injected = {f["node"]: _mid(f["msg"]) for f in injects}
    steps = [i for i, kind in enumerate(kinds) if kind == "recover_step"]
    assert sorted(records[i][2]["node"] for i in steps) == sorted(injected)
    for i in steps:
        step, (_, before, consumed) = records[i][2], records[i - 1]
        assert step["outcome"] == "acked"
        assert before == "consume"
        assert _mid(consumed["msg"]) == injected[step["node"]], step["node"]


def test_second_registration_aborts_and_restarts_recovery(tmp_path, capsys):
    text = """
scenario abort
version 1
seed 13
rdc contikimac
settle 120000
node n1 aaaa::c30c:0:0:2
resource n1 r/0 0
resource n1 r/1 0
resource n1 r/2 0
client c1 cccc::3
at 2000 put c1 n1 r/0 1
at 5000 put c1 n1 r/1 2
at 8000 put c1 n1 r/2 3
assert 11000 snapshot n1
at 12000 crash n1 down=500
at 13100 crash n1 down=500
assert final restored n1
"""
    result = run_scenario(parse_scenario(text))
    assert result.ok, result.failures
    reports = result.world.gateway.recovery.reports
    assert reports[0].aborted
    assert result.world.sim.trace.find("recover_abort", node="aaaa::c30c:0:0:2")
    assert reports[-1].all_acked
    # `sdgw run` passes the run and warns of its aborted recovery.
    path = tmp_path / "abort.scn"
    path.write_text(text)
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert "warning: recovery included timed-out or aborted steps" in capsys.readouterr().out


def test_executing_a_plan_twice_leaves_state_unchanged():
    sc = parse_scenario("""
scenario idem
version 1
seed 4
settle 30000
node n1 aaaa::c30c:0:0:2
resource n1 a/lb 0
resource n1 gpio/btn 0
client c1 cccc::3
at 1000 put c1 n1 a/lb 10
at 2000 observe c1 n1 gpio/btn
at 3000 notify n1 gpio/btn counter=6
at 5000 crash n1 down=200
""")
    result = run_scenario(sc)
    world = result.world
    assert world.gateway.recovery.reports[0].all_acked
    state_after_first = world.nodes["n1"].dynamic_state()
    run = world.gateway.recovery.on_registration("aaaa::c30c:0:0:2")
    world.sim.run(until=world.sim.now + 20_000.0)
    assert run.report.all_acked
    assert world.nodes["n1"].dynamic_state() == state_after_first


def test_a_replay_is_the_last_client_request_for_its_entry(monkeypatch):
    """Each injected frame but the deploy's equals, byte for byte, the
    client's last request for its entry, but for the MID, an observe
    replay's Observe value and the gateway's source on a bind replay:
    requests and replays turn a path into Uri-Path options by one rule, the
    empty path too.  The deploy replay is the loader POST of its filename
    alone, from the gateway."""
    sc = parse_scenario("""
scenario replay_is_request
version 1
seed 5
settle 30000
node n1 aaaa::c30c:0:0:2
node n2 aaaa::c30c:0:0:3
resource n1 s/t 18
resource n2 a/led 0
client c1 cccc::3
at 1000 put c1 n1 / 5 cf=50
at 2000 put c1 n1 a/b 7
at 3000 observe c1 n1 s/t
at 3500 notify n1 s/t counter=9
at 4000 bind c1 n1 s/t dest=aaaa::c30c:0:0:3 res=a/led
at 5000 deploy c1 n1 file=img block=16 data=hex:""" + bytes(range(40)).hex() + """
at 10000 crash n1 down=500
""")
    crash_at = 10_000.0
    requests, injected = {}, []

    def key(msg):
        o = msg.options
        return (msg.code, o.path_str(), o.binding is not None, o.block1 and o.block1.num)

    def send(network, frame):
        if frame.src.addr == CLIENT_ADDR and is_request(frame.parsed.code):
            requests[key(frame.parsed)] = frame
        real_send(network, frame)

    def deliver_to_node(network, frame, *args, **kwargs):
        if network.sim.now > crash_at and is_request(frame.parsed.code):
            injected.append(frame)
        real_deliver(network, frame, *args, **kwargs)

    real_send, real_deliver = Network.send, Network.deliver_to_node
    monkeypatch.setattr(Network, "send", send)
    monkeypatch.setattr(Network, "deliver_to_node", deliver_to_node)
    result = run_scenario(sc)
    assert result.ok, result.failures
    gateway = result.world.gateway.endpoint
    kinds = []
    for frame in injected:
        replay = decode(frame.raw)
        kind = request_kind(replay)
        kinds.append(kind)
        if kind is RequestKind.LOAD:
            last_block = requests[(POST, "ldr", False, 2)]  # 40 bytes in blocks of 16
            assert replay == request(MsgType.CON, POST, replay.mid, "ldr",
                                     uri_query=("file=img",))
            assert frame.src == gateway and frame.dst == last_block.dst
            continue
        original = requests[key(replay)]
        if kind is RequestKind.OBSERVE:
            assert replay.options.observe == 9
            replay = replay._replace(options=replay.options._replace(
                observe=original.parsed.options.observe))
        assert encode(replay._replace(mid=original.parsed.mid)) == original.raw
        spoofed = kind in (RequestKind.WRITE, RequestKind.OBSERVE)
        assert frame.src == (original.src if spoofed else gateway)
        assert frame.dst == original.dst
    assert kinds == ([RequestKind.WRITE] * 2 + [RequestKind.BIND]
                     + [RequestKind.LOAD] + [RequestKind.OBSERVE])


def test_first_ever_registration_triggers_no_recovery():
    world = booted_world(simple_scenario())
    assert world.gateway.directory.known_nodes == {world.nodes["n1"].addr}
    assert world.gateway.recovery.reports == []
    assert world.sim.trace.find("reg", status="new")


def test_reboot_after_all_entries_deregistered_skips_recovery():
    result = run_scenario(parse_scenario("""
scenario emptied
version 1
seed 2
settle 20000
node n1 aaaa::c30c:0:0:2
resource n1 s/t 0
client c1 cccc::3
at 1000 observe c1 n1 s/t
at 3000 deregister c1 n1 s/t
at 5000 crash n1 down=300
"""))
    assert result.ok
    world = result.world
    assert world.gateway.directory.entries == []
    assert world.gateway.recovery.reports == []
    assert world.sim.trace.find("reg", status="known_empty")
    assert world.nodes["n1"].state.value == "up"


def test_binding_replay_originates_from_gateway_end_to_end():
    import importlib.resources
    from pathlib import Path
    path = Path(importlib.resources.files("sdgateway") / "scenarios" / "bind_deploy.scn")
    result = run_scenario(path)
    assert result.ok, result.failures
    bind_injects = [f for _, f in result.world.sim.trace.find("inject") if f["et"] == 6]
    assert bind_injects and all(f["src"].startswith("cccc::1") for f in bind_injects)
    observer_sources = {ep.addr for (_p, ep) in result.world.nodes["n1"].observers}
    assert "cccc::1" not in observer_sources  # binding adds no observer entry


def test_recovery_completes_through_a_lossy_link():
    # 10% per-hop loss: the snapshot waits out the confirmable
    # retransmission horizon so both sides are quiescent before the crash.
    result = run_scenario(parse_scenario("""
scenario lossyrec
version 1
seed 0
loss 0.1
settle 300000
node n1 aaaa::c30c:0:0:2
resource n1 r/0 0
resource n1 r/1 0
client c1 cccc::3
at 2000 put c1 n1 r/0 1
at 9000 put c1 n1 r/1 2
assert 110000 snapshot n1
at 111000 crash n1 down=500
assert final restored n1
"""))
    assert result.ok, result.failures
    assert result.world.gateway.recovery.reports[-1].all_acked
    # A lost replay frame forced the gateway's confirmable machinery to act.
    assert result.world.sim.trace.find("inject_retransmit")


def test_recoveries_for_distinct_nodes_interleave():
    result = run_scenario(parse_scenario("""
scenario twin
version 1
seed 17
rdc contikimac
settle 60000
node n1 aaaa::c30c:0:0:2
node n2 aaaa::c30c:0:0:3
resource n1 a/x 0
resource n1 a/y 0
resource n2 b/x 0
resource n2 b/y 0
client c1 cccc::3
at 1000 put c1 n1 a/x 1
at 3000 put c1 n2 b/x 2
at 5000 put c1 n1 a/y 3
at 7000 put c1 n2 b/y 4
assert 10000 snapshot n1
assert 10000 snapshot n2
at 11000 crash n1 down=300
at 11050 crash n2 down=300
assert final restored n1
assert final restored n2
"""))
    assert result.ok, result.failures
    reports = {r.node: r for r in result.world.gateway.recovery.reports}
    assert len(reports) == 2 and all(r.all_acked for r in reports.values())
    # The two executions overlapped on the simulated clock.
    spans = [(r.started_at, r.finished_at) for r in reports.values()]
    assert max(s for s, _ in spans) < min(f for _, f in spans)


def test_injected_order_in_trace_puts_observes_last():
    result = run_scenario(parse_scenario("""
scenario order
version 1
seed 6
settle 20000
node n1 aaaa::c30c:0:0:2
resource n1 a/x 0
resource n1 a/y 0
client c1 cccc::3
at 1000 observe c1 n1 a/x
at 2000 put c1 n1 a/y 3
at 4000 crash n1 down=200
"""))
    injects = result.world.sim.trace.find("inject")
    assert [f["et"] for _, f in injects] == [2, 5]
    assert [f["step"] for _, f in injects] == [0, 1]


def test_a_put_made_during_recovery_is_not_undone_by_the_replay():
    """The client writes cfg/a=9 while the recovery still has cfg/a=5 to
    replay: the step replays the entry as it is when it fires, so the node
    keeps 9."""
    result = run_scenario(parse_scenario("""
scenario put_during_recovery
version 1
seed 1
rdc contikimac
hops 3
settle 30000
node n1 aaaa::c30c:0:0:2
resource n1 cfg/a 0
resource n1 cfg/b 0
resource n1 cfg/c 0
resource n1 cfg/d 0
client c1 cccc::3
at 1000 put c1 n1 cfg/b 1
at 2000 put c1 n1 cfg/c 2
at 3000 put c1 n1 cfg/d 3
at 4000 put c1 n1 cfg/a 5
at 11000 crash n1 down=500
at 13500 put c1 n1 cfg/a 9
assert 30000 resource n1 cfg/a 9
"""))
    assert result.ok, result.failures
    trace = result.world.sim.trace
    (_, update), = trace.find("sd", uri="cfg/a", effect="Updated")
    t, replayed = trace.find("inject", uri="cfg/a")[-1]
    assert t > 13_500.0 and replayed["src"] == update["client"]  # the PUT of 9 it spoofs


def test_an_entry_deregistered_during_recovery_is_skipped():
    result = run_scenario(parse_scenario("""
scenario deregister_during_recovery
version 1
seed 1
rdc contikimac
hops 3
settle 30000
node n1 aaaa::c30c:0:0:2
resource n1 cfg/a 0
resource n1 cfg/b 0
resource n1 gpio/btn 0
client c1 cccc::3
at 1000 put c1 n1 cfg/a 1
at 2000 put c1 n1 cfg/b 2
at 4000 observe c1 n1 gpio/btn
at 11000 crash n1 down=500
at 13500 deregister c1 n1 gpio/btn
assert 30000 observer-count n1 gpio/btn 0
"""))
    assert result.ok, result.failures
    trace = result.world.sim.trace
    assert [f["outcome"] for _, f in trace.find("recover_step")] == ["acked", "acked", "skipped"]
    assert not trace.find("inject", uri="gpio/btn")
    (report,) = result.world.gateway.recovery.reports
    assert report.all_acked and not result.flagged


def test_a_block_transfer_replaced_during_its_replay_is_not_mixed_in():
    """The client deploys a new image of the same file while the old one's
    filename replay is in flight: the node reloads the old image from flash,
    then takes the new one, and the run is not flagged."""
    old = bytes(range(64))
    result = run_scenario(parse_scenario(f"""
scenario transfer_replaced_during_recovery
version 1
seed 1
rdc contikimac
hops 2
settle 40000
node n1 aaaa::c30c:0:0:2
client c1 cccc::3
at 1000 deploy c1 n1 file=img block=16 data=hex:{old.hex()}
at 11000 crash n1 down=500
at 12500 deploy c1 n1 file=img block=16 data=hex:ffff
"""))
    assert result.ok and not result.flagged, result.failures
    trace = result.world.sim.trace
    ((injected_at, _),) = trace.find("inject")
    ((acked_at, step),) = trace.find("recover_step")
    assert step["outcome"] == "acked" and injected_at < 12_500.0 < acked_at
    assert [f["source"] for _, f in trace.find("load")] == ["transfer", "flash", "transfer"]
    assert result.world.nodes["n1"].flash["img"] == b"\xff\xff"
    (entry,) = result.world.gateway.directory.entries
    assert entry.request.payload == b"\xff\xff"
