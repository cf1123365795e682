import pytest

from worldutil import booted_world, client_frames, simple_scenario
from sdgateway.coap import CHANGED, METHOD_NOT_ALLOWED, Endpoint, decode
from sdgateway.harness import ScenarioRun, run_scenario
from sdgateway.lln import Frame
from sdgateway.scenario import parse_scenario

CRASH_FREE = """
scenario crashfree
version 1
seed 21
hops 2
settle 20000
node n1 aaaa::c30c:0:0:2
resource n1 s/t 18
resource n1 a/lb 0
client c1 cccc::3
at 1000 put c1 n1 s/t 20
at 2000 observe c1 n1 s/t
at 3000 change n1 s/t 21
at 4000 get c1 n1 a/lb
at 5000 change n1 s/t 22
at 6000 deregister c1 n1 s/t
"""


def test_interception_on_off_is_byte_transparent_externally():
    on = ScenarioRun(parse_scenario(CRASH_FREE), interception=True)
    off = ScenarioRun(parse_scenario(CRASH_FREE), interception=False)
    frames_on, frames_off = client_frames(on.world), client_frames(off.world)
    on.advance()
    off.advance()
    assert frames_on == frames_off
    assert len(frames_on) > 5
    assert len(on.world.gateway.directory.entries) > 0
    assert len(off.world.gateway.directory.entries) == 0


def test_forwarded_frames_are_byte_identical_to_what_arrived():
    world = booted_world(simple_scenario(resources={"s/t": b"0"}))
    node, client = world.nodes["n1"], world.clients["c1"]
    client.put(node.addr, "s/t", b"42")
    world.sim.run(until=world.sim.now + 1000.0)
    sent = [f for _, f in world.sim.trace.find("send") if "PUT" in f["msg"]]
    received = [f for _, f in world.sim.trace.find("recv") if "PUT" in f["msg"]]
    assert sent and received
    assert sent[0]["msg"] == received[0]["msg"]
    assert node.resources["s/t"] == b"42"


def test_registration_terminates_at_gateway_and_is_never_forwarded():
    run = ScenarioRun(simple_scenario())
    received = client_frames(run.world)
    run.advance(until=10_000.0)
    world = run.world
    assert world.sim.trace.find("gw", ev="reg")
    for raw in received:
        assert b"register" not in raw
    assert world.gateway.directory.known_nodes == {world.nodes["n1"].addr}


def test_malformed_frame_forwarded_untouched_with_no_sd_effect():
    world = booted_world(simple_scenario())
    node = world.nodes["n1"]
    garbage = b"\x13\x37\x00"
    frame = Frame(garbage, Endpoint("cccc::3", 45000), node.endpoint)
    world.network.send(frame)
    world.sim.run(until=world.sim.now + 1000.0)
    assert world.sim.trace.find("gw", ev="fwd_malformed")
    assert world.sim.trace.find("drop", why="malformed", node="n1")
    assert world.gateway.directory.entries == []


def test_a_method_the_node_does_not_implement_is_forwarded_with_no_sd_effect():
    world = booted_world(simple_scenario())
    node, client = world.nodes["n1"], world.clients["c1"]
    received = client_frames(world)
    # CON FETCH (RFC 8132), MID 0x1234, token 0x77, Uri-Path "s/t".
    fetch = bytes([0x41, 0x05, 0x12, 0x34, 0x77, 0xB1, 0x73, 0x01, 0x74])
    world.network.send(Frame(fetch, Endpoint(client.addr, 45000), node.endpoint))
    world.sim.run(until=world.sim.now + 1000.0)
    assert world.sim.trace.find("intercept", dir="in")
    assert not world.sim.trace.find("gw", ev="fwd_malformed")
    assert [f for _, f in world.sim.trace.find("recv") if f["msg"].startswith("CON-0.05 ")]
    assert world.gateway.directory.entries == []
    (resp,) = [msg for msg in map(decode, received) if msg.mid == 0x1234]
    assert resp.code == METHOD_NOT_ALLOWED


def test_overlong_uri_segment_is_malformed_and_never_replayed():
    # A 300-byte Uri-Path segment is beyond what encode can send, so the
    # gateway must not store it for a replay after the crash.
    world = booted_world(simple_scenario(resources={"s/t": b"0"}))
    node, client = world.nodes["n1"], world.clients["c1"]
    client.put(node.addr, "s/t", b"7")
    world.sim.run(until=world.sim.now + 1000.0)
    before = node.dynamic_state()
    raw = bytes([0x40, 0x03, 0x12, 0x34, 0xBE, 0x00, 300 - 269]) + b"x" * 300 + b"\xff5"
    world.network.send(Frame(raw, Endpoint(client.addr, 45001), node.endpoint))
    world.sim.run(until=world.sim.now + 1000.0)
    node.crash(300.0)
    world.sim.run(until=world.sim.now + 15_000.0)
    assert world.sim.trace.find("gw", ev="fwd_malformed", dir="in")
    assert world.sim.trace.find("drop", why="malformed", node="n1")
    entries = world.gateway.directory.entries_for_server(node.addr)
    assert [e.uri_path for e in entries] == ["s/t"]
    assert world.gateway.recovery.reports[-1].all_acked
    assert node.dynamic_state() == before


def test_interception_disabled_leaves_directory_untouched():
    sc = simple_scenario(resources={"s/t": b"0"})
    world = ScenarioRun(sc, interception=False).world
    node, client = world.nodes["n1"], world.clients["c1"]
    world.sim.schedule_at(5000.0, lambda: client.put(node.addr, "s/t", b"7"))
    world.sim.run(until=10_000.0)
    assert node.resources["s/t"] == b"7"  # forwarding still works
    assert world.gateway.directory.entries == []


def test_put_intercepted_and_forwarded_in_one_pass():
    world = booted_world(simple_scenario(resources={"a/lb": b"0"}))
    node, client = world.nodes["n1"], world.clients["c1"]
    client.put(node.addr, "a/lb", b"10")
    world.sim.run(until=world.sim.now + 1000.0)
    assert node.resources["a/lb"] == b"10"
    entries = world.gateway.directory.entries_for_server(node.addr)
    assert [int(e.entry_type) for e in entries] == [2]
    assert entries[0].request.payload == b"10"


RECOVERY = """
scenario consume
version 1
seed 5
settle 20000
node n1 aaaa::c30c:0:0:2
resource n1 a/lb 0
client c1 cccc::3
at 1000 put c1 n1 a/lb 10
at 2000 crash n1 down=300
"""


def test_replay_responses_are_consumed_not_forwarded():
    result = run_scenario(parse_scenario(RECOVERY))
    world = result.world
    report = world.gateway.recovery.reports[0]
    assert report.all_acked and report.steps_total == 1
    assert len(world.sim.trace.find("consume")) == 1
    crash_time = world.sim.trace.find("crash", node="n1")[0][0]
    # After the crash, no 2.04 response ever reaches the external side: the
    # only post-crash 2.04 is the replay acknowledgement, and it was eaten.
    post_crash = [f for t, k, f in world.sim.trace.records
                  if k == "recv" and t > crash_time and "cccc::3" in f.get("at", "")]
    assert all("2.04" not in f["msg"] for f in post_crash)


def test_spurious_response_toward_gateway_is_logged_unclaimed():
    world = booted_world(simple_scenario())
    node = world.nodes["n1"]
    msg_raw = bytes([0x60, CHANGED, 0x12, 0x34])
    world.network.send(Frame(msg_raw, node.endpoint,
                             Endpoint(world.network.gateway_addr, 5683)))
    world.sim.run(until=world.sim.now + 1000.0)
    assert world.sim.trace.find("gw", ev="unclaimed")


def test_sd_observer_set_mirrors_node_observer_list_at_quiescence():
    import random as _random

    def observer_views(world):
        node = world.nodes["n1"]
        mine = {(ep.addr, ep.port, path, obs.token, obs.counter)
                for (path, ep), obs in node.observers.items()}
        sd = {(e.client.addr, e.client.port, e.uri_path, e.request.token, e.observe_counter)
              for e in world.gateway.directory.entries_for_server(node.addr)
              if int(e.entry_type) == 5}
        return mine, sd

    for seed in range(10):
        rng = _random.Random(seed)
        resources = {f"r/{i}": b"0" for i in range(3)}
        world = booted_world(simple_scenario(seed=seed, resources=resources))
        node, client = world.nodes["n1"], world.clients["c1"]
        t = world.sim.now
        mismatches = []

        def probe():
            mine, sd = observer_views(world)
            if mine != sd:
                mismatches.append((world.sim.now, mine, sd))

        for _ in range(12):
            t += 800.0
            path = f"r/{rng.randrange(3)}"
            op = rng.choice(["observe", "observe", "deregister", "change"])
            if op == "observe":
                world.sim.schedule_at(t, lambda p=path: client.observe(node.addr, p))
            elif op == "deregister":
                world.sim.schedule_at(t, lambda p=path: client.deregister(node.addr, p))
            else:
                world.sim.schedule_at(t, lambda p=path: node.change_resource(p, b"x"))
            world.sim.schedule_at(t + 700.0, probe)  # quiescent: 1-hop RTT << 700 ms
        world.sim.run(until=t + 2000.0)
        assert not mismatches, f"seed {seed}: {mismatches[0]}"


def test_frames_on_one_path_never_reorder():
    world = booted_world(simple_scenario(resources={"s/t": b"0"}))
    node, client = world.nodes["n1"], world.clients["c1"]
    t = world.sim.now
    for i in range(20):
        world.sim.schedule_at(t + i, lambda i=i: client.put(node.addr, "s/t", b"%d" % i))
    world.sim.run(until=t + 10_000.0)
    arrivals = [f for _, f in world.sim.trace.find("recv")
                if f.get("at", "").startswith("aaaa::") and "PUT" in f["msg"]]
    # Every PUT arrived, in emission order.
    payload_order = [f["msg"].split("mid=")[1] for f in arrivals]
    assert payload_order == sorted(payload_order, key=lambda s: int(s.split()[0]))
    assert node.resources["s/t"] == b"19"


@pytest.mark.parametrize("frame_to, kind, match", [
    # To an LLN address no node has: the gateway forwards it inbound.
    (lambda world, node, client: Frame(bytes([0x40, CHANGED, 0x12, 0x34]), client,
                                       Endpoint("aaaa::dead", 5683)),
     "drop", {"why": "no-route", "dst": "aaaa::dead:5683"}),
    # From a node to an external address no client has.
    (lambda world, node, client: Frame(bytes([0x60, CHANGED, 0x12, 0x34]), node.endpoint,
                                       Endpoint("cccc::99", 40000)),
     "drop", {"why": "no-client", "dst": "cccc::99:40000"}),
    # Malformed bytes addressed to the gateway itself.
    (lambda world, node, client: Frame(b"\x13\x37\x00", node.endpoint,
                                       Endpoint(world.network.gateway_addr, 5683)),
     "gw", {"ev": "drop_malformed", "src": "aaaa::c30c:0:0:2:5683"}),
])
def test_a_frame_with_nowhere_to_go_is_dropped_and_the_run_goes_on(frame_to, kind, match):
    world = booted_world(simple_scenario(resources={"s/t": b"0"}))
    node, client = world.nodes["n1"], world.clients["c1"]
    world.network.send(frame_to(world, node, Endpoint(client.addr, 45000)))
    world.sim.run(until=world.sim.now + 1000.0)
    assert len(world.sim.trace.find(kind, **match)) == 1
    client.put(node.addr, "s/t", b"7")
    world.sim.run(until=world.sim.now + 1000.0)
    assert node.resources["s/t"] == b"7"
    assert [e.uri_path for e in world.gateway.directory.entries_for_server(node.addr)] == ["s/t"]
