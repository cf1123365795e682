import random
from pathlib import Path

import pytest

import sdgateway
from worldutil import NODE2_ADDR, _sends, booted_world, client_frames, simple_scenario
from sdgateway.coap import (
    BAD_REQUEST,
    CHANGED,
    CONTENT,
    CREATED,
    DELETE,
    DELETED,
    GET,
    METHOD_NOT_ALLOWED,
    NOT_FOUND,
    POST,
    PUT,
    COAP_PORT,
    BindingInfo,
    Block1,
    CoapMessage,
    Endpoint,
    MsgType,
    OptionSet,
    encode,
    reset_for,
)
from sdgateway.gateway import Gateway
from sdgateway.harness import NODE_ADDR, ScenarioRun, run_scenario
from sdgateway.lln import Frame, Network, NodeState, ScriptedClient, VirtualNode
from sdgateway.scenario import ClientDecl, load_scenario, parse_scenario
from sdgateway.sim import Simulator


def make_request(code, path, payload=b"", mid=900, token=b"\x77", **optkw):
    return CoapMessage(MsgType.CON, code, mid, token=token,
                       options=OptionSet(uri_path=tuple(path.split("/")), **optkw),
                       payload=payload)


CLIENT_EP = Endpoint("cccc::3", 60001)
BUNDLED = Path(sdgateway.__file__).parent / "scenarios"


def _ask(node, sent, msg, src=CLIENT_EP):
    """Deliver the request `msg` from `src` to `node` and return the message
    the node sends first in answer, its response; `sent` is `_sends`'s list."""
    before = len(sent)
    node.on_frame(Frame.of(msg, src, node.endpoint))
    return sent[before].parsed


def test_network_rejects_a_gateway_address_inside_the_lln_prefix():
    with pytest.raises(ValueError):
        Network(Simulator(), lln_prefix="aaaa", gateway_addr="aaaa::1")


def test_boot_serves_after_one_round_trip():
    world = booted_world(simple_scenario())
    node = world.nodes["n1"]
    assert node.state is NodeState.UP
    assert len(node.associations) == 1
    _epoch, sent, acked = node.associations[0]
    assert sent == 0.0
    assert 10.0 <= acked - sent <= 40.0  # one LLN round trip, 1 hop


def test_single_registration_loss_adds_one_retransmission_timeout():
    world = ScenarioRun(simple_scenario()).world
    node = world.nodes["n1"]
    world.network.blackholes.add(node.addr)
    world.sim.schedule_at(1.0, lambda: world.network.blackholes.clear())
    world.sim.run(until=20_000.0)
    assert node.state is NodeState.UP
    delay = node.associations[0][2] - node.associations[0][1]
    assert 3000.0 <= delay <= 3100.0  # first retry fires after ACK_TIMEOUT
    assert node._registration.transmissions == 2
    assert world.sim.trace.find("assoc", node="n1")[0][1]["transmissions"] == 2


def test_boot_stalls_after_max_retransmit_on_dead_link():
    world = ScenarioRun(simple_scenario(settle=200_000.0)).world
    node = world.nodes["n1"]
    world.network.blackholes.add(node.addr)
    world.sim.run(until=150_000.0)
    assert node.state is NodeState.STALLED
    failures = world.sim.trace.find("boot_failed", node="n1")
    assert len(failures) == 1
    assert failures[0][1]["retries"] == 4
    sends = [f for _, f in world.sim.trace.find("send")
             if f["src"] == str(node.endpoint) and "sd/register" in f["msg"]]
    assert len(sends) == 5  # initial transmission plus MAX_RETRANSMIT retries


def test_booting_node_blocks_other_traffic():
    world = ScenarioRun(simple_scenario()).world
    node = world.nodes["n1"]
    world.network.blackholes.add(node.addr)
    world.sim.run(until=100.0)
    assert node.state is NodeState.BOOTING
    # A request delivered while blocked on the registration is dropped.
    from sdgateway.lln import Frame
    node.on_frame(Frame(bytes([0x40, GET, 0, 1]), CLIENT_EP, node.endpoint))
    assert world.sim.trace.find("drop", why="blocked-booting", node="n1")


def test_put_stores_value_and_returns_changed(monkeypatch):
    world = booted_world(simple_scenario(resources={"a/lb": b"0"}))
    node, sent = world.nodes["n1"], _sends(world, monkeypatch)
    resp = _ask(node, sent, make_request(PUT, "a/lb", b"10"))
    assert resp.code == CHANGED
    assert resp.mid == 900 and resp.token == b"\x77"
    assert node.resources["a/lb"] == b"10"


def test_get_returns_value_or_not_found(monkeypatch):
    world = booted_world(simple_scenario(resources={"s/t": b"18"}))
    node, sent = world.nodes["n1"], _sends(world, monkeypatch)
    ok = _ask(node, sent, make_request(GET, "s/t"))
    assert ok.code == CONTENT and ok.payload == b"18"
    missing = _ask(node, sent, make_request(GET, "no/where", mid=901))
    assert missing.code == NOT_FOUND


def test_recovery_observe_seeds_counter_and_next_changes_continue(monkeypatch):
    sc = simple_scenario(resources={"gpio/btn": b"0"})
    world = booted_world(sc)
    node, sent = world.nodes["n1"], _sends(world, monkeypatch)
    client = world.clients["c1"]
    client.observe(node.addr, "gpio/btn")
    world.sim.run(until=world.sim.now + 1000.0)
    rel = client.relationships[(node.addr, "gpio/btn")]
    # The registration a recovery replays: the client's port and token,
    # with the pre-crash observe value.
    resp = _ask(node, sent, make_request(GET, "gpio/btn", token=rel.token, observe=10),
                Endpoint(client.addr, rel.port))
    assert resp.code == CONTENT and resp.options.observe == 10
    obs = node.observers[("gpio/btn", Endpoint(client.addr, rel.port))]
    assert obs.counter == 10
    world.sim.run(until=world.sim.now + 1000.0)
    node.change_resource("gpio/btn", b"1")
    node.change_resource("gpio/btn", b"2")
    world.sim.run(until=world.sim.now + 1000.0)
    values = [n.observe for n in client.notifications]
    assert values[-3:] == [10, 11, 12]  # push at 10, then the two changes


def test_loader_post_for_unknown_file_is_rejected(monkeypatch):
    world = booted_world(simple_scenario())
    node, sent = world.nodes["n1"], _sends(world, monkeypatch)
    msg = make_request(POST, "ldr")
    msg = CoapMessage(MsgType.CON, POST, 901, token=b"\x01",
                      options=OptionSet(uri_path=("ldr",), uri_query=("file=ghost",)))
    resp = _ask(node, sent, msg)
    assert resp.code == BAD_REQUEST
    assert node.loaded_modules == set()


def test_loader_post_reloads_from_flash(monkeypatch):
    world = booted_world(simple_scenario())
    node, sent = world.nodes["n1"], _sends(world, monkeypatch)
    node.flash["blinker"] = b"\x01\x02"
    msg = CoapMessage(MsgType.CON, POST, 902, token=b"\x01",
                      options=OptionSet(uri_path=("ldr",), uri_query=("file=blinker",)))
    resp = _ask(node, sent, msg)
    assert resp.code == CREATED
    assert node.loaded_modules == {"blinker"}


def test_delete_removes_a_resource_or_answers_not_found(monkeypatch):
    world = booted_world(simple_scenario(resources={"s/t": b"18", "a/lb": b"0"}))
    node, sent = world.nodes["n1"], _sends(world, monkeypatch)
    resp = _ask(node, sent, make_request(DELETE, "a/lb"))
    assert resp.code == DELETED and resp.mid == 900 and resp.token == b"\x77"
    assert node.resources == {"s/t": b"18"}
    missing = _ask(node, sent, make_request(DELETE, "a/lb", mid=901))
    assert missing.code == NOT_FOUND
    assert node.resources == {"s/t": b"18"}


def test_post_outside_the_loader_path_is_not_found(monkeypatch):
    world = booted_world(simple_scenario())
    node, sent = world.nodes["n1"], _sends(world, monkeypatch)
    node.flash["blinker"] = b"\x01\x02"
    resp = _ask(node, sent, make_request(POST, "s/t", uri_query=("file=blinker",)))
    assert resp.code == NOT_FOUND
    assert node.loaded_modules == set() and node.resources == {"s/t": b"18"}


def test_loader_block_without_a_filename_is_a_bad_request(monkeypatch):
    world = booted_world(simple_scenario())
    node, sent = world.nodes["n1"], _sends(world, monkeypatch)
    for mid, method in enumerate((PUT, POST), start=900):
        resp = _ask(node, sent, make_request(method, "ldr", b"\x01" * 16, mid=mid,
                                             block1=Block1(0, False, 16)))
        assert resp.code == BAD_REQUEST
    assert node.flash == {} and node.loaded_modules == set()


def test_a_method_other_than_get_put_post_or_delete_is_answered_method_not_allowed(monkeypatch):
    world = booted_world(simple_scenario())
    node, sent = world.nodes["n1"], _sends(world, monkeypatch)
    fetch = 0x05  # FETCH (RFC 8132), a method the node does not implement
    # CON FETCH, MID 900, token 0x77, Uri-Path "s", payload "7".
    node.on_frame(Frame(bytes([0x41, fetch, 0x03, 0x84, 0x77, 0xB1, 0x73, 0xFF, 0x37]),
                        CLIENT_EP, node.endpoint))
    assert not world.sim.trace.find("drop", node="n1")
    (resp,) = [f.parsed for f in sent]
    assert (resp.msg_type, resp.code, resp.mid, resp.token) == (
        MsgType.ACK, METHOD_NOT_ALLOWED, 900, b"\x77")
    assert node.resources == {"s/t": b"18"}


def test_a_binding_to_a_missing_resource_is_not_found(monkeypatch):
    world = booted_world(simple_scenario())
    node, sent = world.nodes["n1"], _sends(world, monkeypatch)
    info = BindingInfo(dest_addr=NODE2_ADDR, dest_resource="a/led", pmin=5, pmax=600)
    resp = _ask(node, sent, make_request(GET, "no/where", observe=0, binding=info))
    assert resp.code == NOT_FOUND
    assert node.bindings == {} and not world.sim.trace.find("binding_add")


def _node_sends(world, node) -> list[str]:
    """The frame of each `send` record from `node` in the trace, in order."""
    return [f["msg"] for _, f in world.sim.trace.find("send", src=str(node.endpoint))]


def test_the_response_goes_out_before_the_push_a_registration_causes():
    world = booted_world(simple_scenario())  # no loss
    node, client = world.nodes["n1"], world.clients["c1"]
    before = len(_node_sends(world, node))
    client.observe(node.addr, "s/t")
    world.sim.run(until=world.sim.now + 1000.0)
    response, push = _node_sends(world, node)[before:]
    assert response.startswith("ACK-2.05 ") and push.startswith("NON-2.05 ")


def test_the_response_goes_out_before_the_notification_a_put_causes():
    world = booted_world(simple_scenario())  # no loss
    node, client = world.nodes["n1"], world.clients["c1"]
    client.observe(node.addr, "s/t")
    world.sim.run(until=world.sim.now + 1000.0)
    before = len(_node_sends(world, node))
    client.put(node.addr, "s/t", b"5")
    world.sim.run(until=world.sim.now + 1000.0)
    response, notification = _node_sends(world, node)[before:]
    assert response.startswith("ACK-2.04 ")
    assert notification.startswith("CON-2.05 ") and notification.endswith("len=1")


def test_notify_without_observers_sends_nothing():
    world = booted_world(simple_scenario())
    node = world.nodes["n1"]
    before = len(world.sim.trace.find("send"))
    node.notify("s/t")
    world.sim.run(until=world.sim.now + 500.0)
    assert len(world.sim.trace.find("send")) == before


def test_scripted_counter_jumps_but_never_backward():
    world = booted_world(simple_scenario(resources={"s/t": b"1"}))
    node = world.nodes["n1"]
    client = world.clients["c1"]
    world.sim.schedule_at(world.sim.now, lambda: client.observe(node.addr, "s/t"))
    world.sim.run(until=world.sim.now + 1000.0)
    with pytest.raises(ValueError, match="cancellation sentinel"):
        node.notify("s/t", counter=1)  # the observer is at 0, so 1 is not backward
    for value in (12, 20, 44):
        node.notify("s/t", counter=value)
        world.sim.run(until=world.sim.now + 500.0)
    values = [n.observe for n in client.notifications]
    assert values == [0, 0, 12, 20, 44]  # registration echo, push, then jumps
    node.notify("s/t", counter=5)  # backward: skipped and traced, not raised
    world.sim.run(until=world.sim.now + 500.0)
    assert [n.observe for n in client.notifications] == values
    [obs] = node.observers.values()
    assert obs.counter == 44
    assert [f for _, f in world.sim.trace.find("notify_ignored")] == [
        {"node": "n1", "uri": "s/t", "client": str(obs.client), "counter": 5, "current": 44}]


def test_crash_clears_volatile_state_but_keeps_flash(monkeypatch):
    world = booted_world(simple_scenario(resources={"s/t": b"18"}))
    node, sent = world.nodes["n1"], _sends(world, monkeypatch)
    node.flash["img"] = b"\xaa"
    _ask(node, sent, make_request(PUT, "s/t", b"25"))
    _ask(node, sent, make_request(GET, "s/t", observe=0, mid=901))
    epoch = node.boot_epoch
    node.crash(500.0)
    assert node.state is NodeState.DOWN
    world.sim.run(until=world.sim.now + 5000.0)
    assert node.state is NodeState.UP
    assert node.boot_epoch == epoch + 1
    assert node.resources == {"s/t": b"18"}          # back to declared defaults
    assert node.observers == {} and node.bindings == {}
    assert node.loaded_modules == set()
    assert node.flash == {"img": b"\xaa"}            # persistent across the crash
    assert node.addr == NODE_ADDR


def test_crash_during_inflight_exchange_completes_via_retransmission():
    sc = simple_scenario(resources={"s/t": b"0"}, settle=60_000.0)
    world = booted_world(sc)
    node, client = world.nodes["n1"], world.clients["c1"]
    t = world.sim.now
    world.sim.schedule_at(t + 100.0, lambda: node.crash(1000.0))
    world.sim.schedule_at(t + 150.0, lambda: client.put(node.addr, "s/t", b"9"))
    world.sim.run(until=t + 30_000.0)
    assert world.sim.trace.find("client_retransmit", client="c1")
    assert node.resources["s/t"] == b"9"  # retransmitted request finally served
    assert not world.sim.trace.find("client_timeout", client="c1")


def test_binding_pushes_put_to_destination_respecting_pmin():
    sc = simple_scenario(resources={"s/t": b"18"}, second_node=True)
    world = booted_world(sc)
    node, node2, client = world.nodes["n1"], world.nodes["n2"], world.clients["c1"]
    info = BindingInfo(dest_addr=NODE2_ADDR, dest_resource="a/led", pmin=5, pmax=600)
    t = world.sim.now
    world.sim.schedule_at(t, lambda: client.bind(node.addr, "s/t", info))
    world.sim.run(until=t + 1000.0)
    assert ("s/t", NODE2_ADDR, "a/led") in node.bindings
    # Two rapid changes within pmin coalesce into one deferred push.
    node.change_resource("s/t", b"20")
    node.change_resource("s/t", b"21")
    world.sim.run(until=world.sim.now + 20_000.0)
    puts = world.sim.trace.find("binding_put", node="n1")
    assert len(puts) == 1
    assert node2.resources["a/led"] == b"21"


def test_binding_keepalive_fires_at_pmax():
    sc = simple_scenario(resources={"s/t": b"18"}, second_node=True, settle=40_000.0)
    world = booted_world(sc)
    node, client = world.nodes["n1"], world.clients["c1"]
    info = BindingInfo(dest_addr=NODE2_ADDR, dest_resource="a/led", pmin=1, pmax=10)
    world.sim.schedule_at(world.sim.now, lambda: client.bind(node.addr, "s/t", info))
    world.sim.run(until=world.sim.now + 25_000.0)
    # No changes at all: the pmax timer alone must have pushed at least twice.
    assert len(world.sim.trace.find("binding_put", node="n1")) >= 2


def test_a_binding_pushes_at_most_once_per_instant():
    # The change at 2000 ms is held back until pmin after the bind, the
    # instant the pmax refresh is due too.  The one push there carries the
    # changed value.
    result = run_scenario(parse_scenario("""
scenario one_push
version 1
seed 3
settle 5000
node n1 aaaa::c30c:0:0:2
resource n1 s/t 18
node n2 aaaa::c30c:0:0:3
resource n2 a/led 0
client c1 cccc::3
at 1000 bind c1 n1 s/t dest=aaaa::c30c:0:0:3 res=a/led pmin=5 pmax=5
at 2000 change n1 s/t 21
"""))
    world = result.world
    puts = [t for t, _ in world.sim.trace.find("binding_put", node="n1")]
    assert puts and len(set(puts)) == len(puts)
    assert world.nodes["n2"].resources["a/led"] == b"21"


def test_a_change_at_the_instant_a_held_back_push_is_due_pushes_once():
    # A change within pmin holds its push back until pmin after the last
    # push; a second change lands at that very instant, ahead of the
    # held-back push.  It pushes the current value, and nothing follows it.
    sc = simple_scenario(resources={"s/t": b"18"}, second_node=True)
    world = booted_world(sc)
    node, node2, client = world.nodes["n1"], world.nodes["n2"], world.clients["c1"]
    info = BindingInfo(dest_addr=NODE2_ADDR, dest_resource="a/led", pmin=5, pmax=600)
    world.sim.schedule_at(world.sim.now, lambda: client.bind(node.addr, "s/t", info))
    world.sim.run(until=world.sim.now + 1000.0)
    binding = node.bindings[("s/t", NODE2_ADDR, "a/led")]
    now = world.sim.now
    due = now + (binding.last_sent + 5000.0 - now)  # as `_binding_due` reckons it
    world.sim.schedule_at(due, lambda: node.change_resource("s/t", b"21"))
    node.change_resource("s/t", b"20")
    assert binding.pending_event[0] == due
    world.sim.run(until=world.sim.now + 20_000.0)
    assert [t for t, _ in world.sim.trace.find("binding_put", node="n1")] == [due]
    assert binding.pending_event is None
    assert node2.resources["a/led"] == b"21"


def test_boot_of_a_running_node_cancels_its_binding_timers():
    # At 3000 ms a push is deferred to pmin (about 6000 ms), and the
    # keepalive is due at about 9000 ms.  The boot at 3500 ms wipes the
    # binding; the replayed one is installed fresh and has nothing to push
    # before its own keepalive, after the run ends.
    result = run_scenario(parse_scenario("""
scenario reboot_binding
version 1
seed 5
settle 7000
node n1 aaaa::c30c:0:0:2
resource n1 s/t 18
node n2 aaaa::c30c:0:0:3
resource n2 a/led 0
client c1 cccc::3
at 1000 bind c1 n1 s/t dest=aaaa::c30c:0:0:3 res=a/led pmin=5 pmax=8
at 3000 change n1 s/t 20
at 3500 boot n1
"""))
    trace = result.world.sim.trace
    assert [f["epoch"] for _, f in trace.find("boot", node="n1")] == [1, 2]
    assert len(trace.find("binding_add", node="n1")) == 2  # installed, then replayed
    assert trace.find("binding_put", node="n1") == []


def test_node_to_node_traffic_bypasses_gateway():
    sc = simple_scenario(resources={"s/t": b"18"}, second_node=True)
    world = booted_world(sc)
    node, node2, client = world.nodes["n1"], world.nodes["n2"], world.clients["c1"]
    info = BindingInfo(dest_addr=NODE2_ADDR, dest_resource="a/led", pmin=0, pmax=600)
    received = client_frames(world)
    world.sim.schedule_at(world.sim.now, lambda: client.bind(node.addr, "s/t", info))
    world.sim.run(until=world.sim.now + 1000.0)
    entries_before = len(world.gateway.directory.entries)
    node.change_resource("s/t", b"33")
    world.sim.run(until=world.sim.now + 2000.0)
    assert node2.resources["a/led"] == b"33"
    # The binding push created no directory traffic and never reached a client.
    assert len(world.gateway.directory.entries) == entries_before
    assert not [f for f in received if b"33" in f]


def test_deterministic_trace_for_same_seed():
    def run_once():
        sc = simple_scenario(seed=77, loss=0.2, resources={"s/t": b"1", "a/b": b"2"})
        world = ScenarioRun(sc).world
        node, client = world.nodes["n1"], world.clients["c1"]
        world.sim.schedule_at(8000.0, lambda: client.put(node.addr, "s/t", b"5"))
        world.sim.schedule_at(9000.0, lambda: client.observe(node.addr, "a/b"))
        world.sim.schedule_at(12_000.0, lambda: node.crash(700.0))
        world.sim.run(until=60_000.0)
        return world.sim.trace.text()

    assert run_once() == run_once()


def _node_in_state(state):
    world = ScenarioRun(simple_scenario(settle=200_000.0)).world
    node = world.nodes["n1"]
    if state in (NodeState.BOOTING, NodeState.STALLED):
        world.network.blackholes.add(node.addr)
    until = {NodeState.BOOTING: 5000.0, NodeState.STALLED: 100_000.0}.get(state, 1000.0)
    world.sim.run(until=until)
    if state is NodeState.DOWN:
        node.crash(50_000.0)
    assert node.state is state
    return world, node


@pytest.mark.parametrize("state", [NodeState.BOOTING, NodeState.STALLED, NodeState.DOWN])
def test_crash_requires_a_running_node(state):
    world, node = _node_in_state(state)
    records = len(world.sim.trace.records)
    with pytest.raises(AssertionError, match="crash requires a running node"):
        node.crash(1000.0)
    assert node.state is state and len(world.sim.trace.records) == records


def test_crash_cancels_pending_notifications():
    world = booted_world(simple_scenario(settle=200_000.0))
    node, client = world.nodes["n1"], world.clients["c1"]
    client.observe(node.addr, "s/t")
    world.sim.run(until=world.sim.now + 1000.0)
    world.network.blackholes.add(node.addr)
    node.change_resource("s/t", b"19")  # NON
    node.change_resource("s/t", b"20")  # CON, never acknowledged
    assert [o.pending is not None for o in node.observers.values()] == [True]
    world.sim.run(until=world.sim.now + 4000.0)
    assert len(world.sim.trace.find("retransmit", node="n1")) == 1
    node.crash(200_000.0)
    world.sim.run(until=world.sim.now + 100_000.0)
    assert len(world.sim.trace.find("retransmit", node="n1")) == 1


def test_boot_while_booting_restarts_the_registration():
    world = ScenarioRun(simple_scenario()).world
    node = world.nodes["n1"]
    world.network.blackholes.add(node.addr)
    world.sim.schedule_at(1000.0, node.boot)
    world.sim.schedule_at(1001.0, lambda: world.network.blackholes.clear())
    world.sim.run(until=30_000.0)
    assert node.state is NodeState.UP and node.boot_epoch == 2
    registrations = [t for t, f in world.sim.trace.find("send")
                     if f["src"] == str(node.endpoint) and "sd/register" in f["msg"]]
    assert registrations == [0.0, 1000.0, 4000.0]  # epoch 1's retry at 3 s never fires


# -- the client's notification lookup ---------------------------------------

def _notification(world, src_addr, token, port, counter=7):
    msg = CoapMessage(MsgType.CON, CONTENT, 4242, token=token,
                      options=OptionSet(observe=counter), payload=b"x")
    return Frame(encode(msg), Endpoint(src_addr, COAP_PORT),
                 Endpoint(world.clients["c1"].addr, port))


def _observed(world, path="s/t"):
    node, client = world.nodes["n1"], world.clients["c1"]
    client.observe(node.addr, path)
    world.sim.run(until=world.sim.now + 1000.0)
    return client.relationships[(node.addr, path)]


def _client_sends(world):
    return [f for _, f in world.sim.trace.find("send")
            if f["src"].startswith(world.clients["c1"].addr)]


def test_notification_from_another_node_with_the_same_token_is_ignored():
    world = booted_world(simple_scenario(second_node=True))
    client = world.clients["c1"]
    rel = _observed(world)
    seen, sent = len(client.notifications), len(_client_sends(world))
    client.on_frame(_notification(world, NODE2_ADDR, rel.token, rel.port))
    assert len(client.notifications) == seen
    assert len(_client_sends(world)) == sent  # neither ACK nor RST
    client.on_frame(_notification(world, NODE_ADDR, rel.token, rel.port))
    assert client.notifications[-1].node == NODE_ADDR
    assert client.notifications[-1].path == "s/t"
    assert len(_client_sends(world)) == sent + 1  # the ACK


@pytest.mark.parametrize("ended_by", ["deregister", "rst"])
def test_notification_for_an_ended_relationship_is_ignored(ended_by):
    world = booted_world(simple_scenario())
    node, client = world.nodes["n1"], world.clients["c1"]
    rel = _observed(world)
    if ended_by == "deregister":
        client.deregister(node.addr, "s/t")
    else:
        client.cancel_with_rst(node.addr, "s/t")
        node.change_resource("s/t", b"19")  # answered with RST
    world.sim.run(until=world.sim.now + 1000.0)
    assert client.relationships == {} and node.observers == {}
    seen, sent = len(client.notifications), len(_client_sends(world))
    client.on_frame(_notification(world, node.addr, rel.token, rel.port))
    assert len(client.notifications) == seen
    assert len(_client_sends(world)) == sent


def test_reobserve_after_deregister_is_matched_under_its_new_token():
    world = booted_world(simple_scenario())
    node, client = world.nodes["n1"], world.clients["c1"]
    old = _observed(world)
    client.deregister(node.addr, "s/t")
    world.sim.run(until=world.sim.now + 1000.0)
    new = _observed(world)
    assert new.token != old.token and new.port != old.port
    node.change_resource("s/t", b"21")
    world.sim.run(until=world.sim.now + 1000.0)
    assert client.notifications[-1].path == "s/t"
    assert client.notifications[-1].payload == b"21"
    seen = len(client.notifications)
    client.on_frame(_notification(world, node.addr, old.token, new.port))
    assert len(client.notifications) == seen
    client.on_frame(_notification(world, node.addr, new.token, new.port, counter=90))
    assert client.notifications[-1].observe == 90


@pytest.mark.parametrize("loss", [0.0, 0.3])
def test_a_blackholed_hop_draws_what_a_delivered_one_draws(loss):
    # Each hop draws its delays, then its losses when the link has any,
    # whether or not a blackhole then drops the frame.
    states = []
    for blackholed in (False, True):
        world = booted_world(simple_scenario(hops=2, loss=loss))
        node, rng = world.nodes["n1"], world.sim.rng
        if blackholed:
            world.network.blackholes.add(node.addr)
        before = rng.getstate()
        world.network.deliver_to_node(Frame.of(make_request(GET, "s/t"), CLIENT_EP,
                                               node.endpoint))
        states.append(rng.getstate())
        rng.setstate(before)
        for _ in range(4 if loss else 2):  # two hops: two delays, then two losses
            rng.random()
        assert states[-1] == rng.getstate()
    assert states[0] == states[1]


# -- one call per link leg ------------------------------------------------------

def _leg_draws(world, frame):
    """Send `frame` down to n1 and run past its leg: (the leg's arrival time
    or None when it was dropped, the RNG state right after the leg)."""
    sim, node = world.sim, world.nodes["n1"]
    world.network.deliver_to_node(frame)
    after = sim.rng.getstate()
    sent_at = sim.now
    sim.run(until=sent_at + 1000.0)
    arrivals = [t for t, f in sim.trace.find("recv", at=str(node.endpoint))
                if t >= sent_at and f["msg"] == frame.parsed.short()]
    drops = [t for t, f in sim.trace.find("drop", why="loss")
             if t == sent_at and f["msg"] == frame.parsed.short()]
    assert len(arrivals) + len(drops) == 1
    return (arrivals[0] if arrivals else None), after


@pytest.mark.parametrize("blackholed", [False, True])
@pytest.mark.parametrize("loss", [0.0, 0.3])
@pytest.mark.parametrize("hops", [1, 2, 3])
def test_a_link_leg_draws_as_sample_delay_then_draw_lost(hops, loss, blackholed):
    # `LinkModel.sample_delay` and `draw_lost` are the reference: on a copy
    # of the RNG they give the leg's arrival, its drop and every draw it takes.
    for seed in range(6):
        world = booted_world(simple_scenario(seed=seed, hops=hops, loss=loss))
        node, sim = world.nodes["n1"], world.sim
        if blackholed:
            world.network.blackholes.add(node.addr)
        reference = random.Random()
        reference.setstate(sim.rng.getstate())
        delay = node.link.sample_delay(reference)
        lost = node.link.draw_lost(reference)
        now = sim.now
        arrival, after = _leg_draws(world, Frame.of(make_request(GET, "s/t", mid=seed),
                                                    CLIENT_EP, node.endpoint))
        assert arrival == (None if lost or blackholed else now + delay)
        assert after == reference.getstate()


def test_a_link_changed_after_construction_takes_effect_on_the_next_leg():
    world = booted_world(simple_scenario(hops=2))
    node = world.nodes["n1"]
    node.link.delay_range = (10.0, 10.0)
    now = world.sim.now
    arrival, _ = _leg_draws(world, Frame.of(make_request(GET, "s/t"), CLIENT_EP,
                                            node.endpoint))
    assert arrival == now + 20.0
    node.link.hops = 3
    now = world.sim.now
    arrival, _ = _leg_draws(world, Frame.of(make_request(GET, "s/t", mid=901), CLIENT_EP,
                                            node.endpoint))
    assert arrival == now + 30.0


@pytest.mark.parametrize("seed, loss", [(7, 0.0), (2, 0.25)])
def test_every_arrival_first_traces_its_recv(monkeypatch, seed, loss):
    # The gateway, a node and a client each trace their own
    # `recv`, before anything else the arrival does; the lossy run also
    # delivers to a node that is down and to one that is booting.
    arrivals = []

    def spy(cls, name, at):
        original = getattr(cls, name)

        def receive(self, frame, *args):
            # A record keeps the frame's own parse, or its bytes when malformed.
            msg = frame.raw if frame.parsed is None else frame.parsed
            arrivals.append((cls, self.sim.trace._flat, len(self.sim.trace._flat),
                             at(frame), msg))
            original(self, frame, *args)
        monkeypatch.setattr(cls, name, receive)

    spy(Gateway, "on_frame", lambda frame: "gw")
    spy(VirtualNode, "on_frame", lambda frame: frame.dst)
    spy(ScriptedClient, "on_frame", lambda frame: frame.dst)
    sc = load_scenario(BUNDLED / "fig12_19.scn")
    sc.seed, sc.loss = seed, loss
    run = ScenarioRun(sc)
    run.advance()
    flat = run.world.sim.trace._flat
    assert {cls for cls, *_ in arrivals} == {Gateway, VirtualNode, ScriptedClient}
    for _, trace, start, at, msg in arrivals:
        assert trace is flat
        assert flat[start + 1:start + 3] == ["recv", at] and flat[start + 3] is msg
    assert len(arrivals) == len(run.world.sim.trace.find("recv"))


# -- client paths the traffic does not take -------------------------------------

def test_a_deploy_the_node_answers_not_found_is_warned():
    world = booted_world(simple_scenario())
    node, client = world.nodes["n1"], world.clients["c1"]
    client.deploy(node.addr, "m.bin", b"x" * 100, loader_path="no/loader")
    world.sim.run(until=world.sim.now + 1000.0)
    assert [f for _, f in world.sim.trace.find("client_warn")] == [
        {"client": "c1", "why": "deploy-failed", "file": "m.bin"}]
    assert client.responses[-1].msg.code == NOT_FOUND
    assert "m.bin" not in node.flash and not world.sim.trace.find("deploy_done")


def test_a_reset_answering_an_open_request_rejects_it():
    world = booted_world(simple_scenario())
    node, client = world.nodes["n1"], world.clients["c1"]
    world.network.blackholes.add(node.addr)  # the request gets no answer of its own
    client.get(node.addr, "s/t")
    (request,) = [exchange.frame for exchange in client._exchanges.values()]
    responses = len(client.responses)
    client.on_frame(Frame(encode(reset_for(request.parsed.mid)), request.dst, request.src))
    assert world.sim.trace.find("client_rejected") == [
        (world.sim.now, {"client": "c1", "mid": request.parsed.mid})]
    assert client._exchanges == {} and len(client.responses) == responses
    world.sim.run(until=world.sim.now + 100_000.0)
    assert not world.sim.trace.find("client_retransmit")


def test_each_client_numbers_its_ports_and_tokens_from_its_own_start(monkeypatch):
    # An observe relationship takes the next port and the next token, and
    # keeps them when it is renewed; a plain request takes the next port.
    sc = simple_scenario(resources={"s/t": b"18", "s/u": b"1"})
    sc.clients.append(ClientDecl("c2", "cccc::4"))
    world = booted_world(sc)
    node, c1, c2 = world.nodes["n1"], world.clients["c1"], world.clients["c2"]
    sent = _sends(world, monkeypatch)
    c1.observe(node.addr, "s/t")
    c2.observe(node.addr, "s/t")
    c1.observe(node.addr, "s/u")
    c1.observe(node.addr, "s/t")
    c1.get(node.addr, "s/t")
    world.sim.run(until=world.sim.now + 1000.0)
    assert [(r.port, r.token) for r in c1.relationships.values()] == [
        (49152, b"\x0b\x28"), (49153, b"\x0b\x29")]
    assert [(r.port, r.token) for r in c2.relationships.values()] == [(49152, b"\x0b\x28")]
    ports = {(f.src.addr, f.src.port) for f in sent if f.src.addr in (c1.addr, c2.addr)}
    assert ports == {(c1.addr, 49152), (c1.addr, 49153), (c1.addr, 49154), (c2.addr, 49152)}


def test_malformed_bytes_delivered_to_a_client_are_dropped():
    world = booted_world(simple_scenario())
    client = world.clients["c1"]
    target = Endpoint(client.addr, 49152)
    world.network.deliver_to_client(Frame(b"\x00\x01", Endpoint(NODE_ADDR), target))
    world.sim.run(until=world.sim.now + 100.0)
    records = [(kind, f) for _, kind, f in world.sim.trace.records][-2:]
    assert records == [("recv", {"at": str(target), "msg": "malformed[2B]"}),
                       ("drop", {"why": "malformed", "client": "c1"})]
    assert client.responses == [] and client.notifications == []


# -- partial block transfers -------------------------------------------------------

def test_a_new_block_transfer_drops_those_abandoned_for_the_exchange_lifetime():
    """The node is blackholed after a deploy's first block until the client
    gives up.  A deploy soon after keeps the abandoned transfer on both the
    node and the gateway's directory; one 250 s later drops it."""
    world = booted_world(simple_scenario())
    node, client, sim = world.nodes["n1"], world.clients["c1"], world.sim
    directory = world.gateway.directory

    def deploy_first_block(filename: str) -> None:
        client.deploy(node.addr, filename, filename.encode() * 16, block_size=16)
        while filename not in {name for _, name in node._incoming_blocks}:
            sim.run(until=sim.now + 1.0)

    deploy_first_block("old")
    world.network.blackholes.add(node.addr)
    sim.run(until=sim.now + 100_000.0)
    assert sim.trace.find("client_timeout", client="c1")
    world.network.blackholes.clear()
    (old_node,), (old_sd,) = node._incoming_blocks, directory._pending_blocks
    deploy_first_block("mid")  # within the lifetime: both transfers are held
    assert len(node._incoming_blocks) == len(directory._pending_blocks) == 2
    sim.run(until=sim.now + 1000.0)
    assert set(node._incoming_blocks) == {old_node} and node.flash["mid"] == b"mid" * 16
    assert set(directory._pending_blocks) == {old_sd}
    sim.run(until=sim.now + 250_000.0)
    deploy_first_block("new")
    ((new_node, (_, blocks)),) = node._incoming_blocks.items()
    assert new_node != old_node and blocks == [b"new" * 5 + b"n"]
    ((new_sd, (_, blocks)),) = directory._pending_blocks.items()
    assert new_sd != old_sd and [m.payload for m in blocks] == [b"new" * 5 + b"n"]
    sim.run(until=sim.now + 1000.0)
    assert node.flash["new"] == b"new" * 16
    assert node._incoming_blocks == directory._pending_blocks == {}
