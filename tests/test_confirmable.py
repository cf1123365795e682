"""The message layer: the one confirmable-exchange primitive (RFC 7252
backoff, give-up and cancellation), the one rule that matches an ACK or
RST to the exchange it answers, and the one duplicate filter, on a bare
simulator and through the node, the client and the gateway."""

import gc
import weakref

import pytest

from worldutil import NODE2_ADDR, booted_world, simple_scenario
from sdgateway.coap import (
    CHANGED,
    CONTENT,
    EMPTY,
    EXCHANGE_LIFETIME_MS,
    GET,
    PUT,
    CoapMessage,
    Endpoint,
    MsgType,
    OptionSet,
    empty_ack,
    encode,
    registration_request,
)
from sdgateway.lln import Confirmable, Frame, NodeState, answer
from sdgateway.sim import Simulator

FRAME = Frame(encode(CoapMessage(MsgType.CON, GET, 42, options=OptionSet(uri_path=("s",)))),
              Endpoint("cccc::3", 50000), Endpoint("aaaa::2"))
CLIENT_EP = Endpoint("cccc::3", 60001)


def exchange(sim):
    sent, retries, give_ups = [], [], []
    ex = Confirmable(sim, FRAME, lambda frame: sent.append((sim.now, frame)), table={},
                     on_answer=sent.append, on_retry=retries.append,
                     on_give_up=lambda: give_ups.append(sim.now))
    return ex, sent, retries, give_ups


def test_backoff_doubles_and_gives_up_once():
    sim = Simulator()
    ex, sent, retries, give_ups = exchange(sim)
    sim.run()
    assert [t for t, _ in sent] == [0.0, 3000.0, 9000.0, 21000.0, 45000.0]
    assert all(frame is FRAME for _, frame in sent)  # the same Frame every time
    assert retries == [1, 2, 3, 4]
    assert give_ups == [93000.0]
    assert ex.transmissions == 5


def test_a_built_exchange_is_in_its_table_and_has_sent_its_first_copy():
    sim = Simulator()
    sent, table = [], {}
    ex = Confirmable(sim, FRAME, sent.append, table=table, on_answer=sent.append,
                     on_give_up=lambda: sent.append("give-up"))
    assert table == {(FRAME.dst, FRAME.src, 42): ex}
    assert sent == [FRAME] and ex.transmissions == 1


@pytest.mark.parametrize("cancel_at", [0.0, 1.0, 9000.5, 93000.0])
def test_cancel_stops_sends_and_callbacks(cancel_at):
    sim = Simulator()
    ex, sent, retries, give_ups = exchange(sim)
    sim.run(until=cancel_at)
    before = (len(sent), list(retries), list(give_ups))
    ex.cancel()
    ex.cancel()  # idempotent
    sim.run()
    assert (len(sent), retries, give_ups) == before


class Owner:
    """Holds its exchange; the exchange's callbacks are the owner's methods."""

    def __init__(self, sim, gave_up):
        self.gave_up = gave_up
        self.exchanges = {}
        self.exchange = Confirmable(sim, FRAME, self.transmit, table=self.exchanges,
                                    on_answer=self.transmit, on_retry=self.retry,
                                    on_give_up=self.give_up)

    def transmit(self, frame):
        pass

    def retry(self, attempt):
        pass

    def give_up(self):
        self.gave_up.append(self.exchange.transmissions)


@pytest.mark.parametrize("ending", ["cancel", "give-up"])
def test_a_finished_exchange_lets_its_owner_go(ending):
    sim, gave_up = Simulator(), []
    gc.collect()
    gc.disable()
    try:
        owner = Owner(sim, gave_up)
        sim.run(until=1.0)
        ref = weakref.ref(owner)
        exchange = owner.exchange
        del owner
        assert ref() is not None  # the pending timer reaches it
        if ending == "cancel":
            exchange.cancel()
        del exchange
        sim.run()
        assert ref() is None  # freed by reference counting alone
    finally:
        gc.enable()
    assert gave_up == ([] if ending == "cancel" else [5])


def test_client_request_to_blackholed_node_times_out():
    world = booted_world(simple_scenario(settle=200_000.0))
    node, client = world.nodes["n1"], world.clients["c1"]
    world.network.blackholes.add(node.addr)
    t = world.sim.now
    client.get(node.addr, "s/t")
    world.sim.run(until=t + 150_000.0)
    retries = world.sim.trace.find("client_retransmit", client="c1")
    timeouts = world.sim.trace.find("client_timeout", client="c1")
    assert [f["attempt"] for _, f in retries] == [1, 2, 3, 4]
    assert len(timeouts) == 1 and timeouts[0][0] == t + 93_000.0
    assert timeouts[0][0] > retries[-1][0]
    assert client._exchanges == {}


# -- answer: one matching rule ------------------------------------------------

def reply(msg_type, code=EMPTY, mid=42, src=FRAME.dst, dst=FRAME.src):
    """A frame from FRAME's destination back to its source, by default."""
    return Frame(encode(CoapMessage(msg_type, code, mid)), src, dst)


def open_exchange(sim):
    table, answers, give_ups = {}, [], []
    ex = Confirmable(sim, FRAME, lambda frame: None, table=table, on_answer=answers.append,
                     on_give_up=lambda: give_ups.append(sim.now))
    return ex, table, answers, give_ups


@pytest.mark.parametrize("frame", [
    reply(MsgType.ACK), reply(MsgType.RST), reply(MsgType.ACK, code=CONTENT),
], ids=["empty-ACK", "RST", "piggy-backed-ACK"])
def test_an_ack_or_rst_from_the_peer_answers_the_exchange_once(frame):
    sim = Simulator()
    ex, table, answers, give_ups = open_exchange(sim)
    assert table == {(FRAME.dst, FRAME.src, 42): ex}
    assert answer(table, frame)
    assert answers == [frame] and table == {}
    assert not answer(table, frame)  # a second copy answers nothing
    sim.run()
    assert ex.transmissions == 1 and give_ups == [] and answers == [frame]


@pytest.mark.parametrize("frame", [
    reply(MsgType.ACK, mid=43),
    reply(MsgType.ACK, src=Endpoint("aaaa::3")),
    reply(MsgType.ACK, src=Endpoint("aaaa::2", 5684)),
    reply(MsgType.ACK, dst=Endpoint("cccc::3", 50001)),
    reply(MsgType.ACK, src=FRAME.src, dst=FRAME.dst),
    reply(MsgType.CON, code=GET),
    reply(MsgType.NON, code=CONTENT),
], ids=["other-MID", "other-node", "other-port", "to-other-port", "reversed",
        "request", "NON-response"])
def test_a_frame_that_does_not_match_answers_nothing(frame):
    sim = Simulator()
    ex, table, answers, give_ups = open_exchange(sim)
    assert not answer(table, frame)
    assert table == {(FRAME.dst, FRAME.src, 42): ex} and answers == []
    sim.run()
    assert ex.transmissions == 5 and give_ups == [93000.0]
    assert table == {}  # a given-up exchange has left the table


def test_a_cancelled_exchange_is_answered_by_nothing():
    sim = Simulator()
    ex, table, answers, _ = open_exchange(sim)
    ex.cancel()
    assert table == {} and not answer(table, reply(MsgType.ACK)) and answers == []


def _sends(world, monkeypatch) -> list[Frame]:
    sent: list[Frame] = []
    original = world.network.send

    def send(frame):
        sent.append(frame)
        original(frame)

    monkeypatch.setattr(world.network, "send", send)
    return sent


def test_an_ack_from_another_endpoint_completes_no_client_request(monkeypatch):
    world = booted_world(simple_scenario())
    node, client = world.nodes["n1"], world.clients["c1"]
    sent = _sends(world, monkeypatch)
    world.network.blackholes.add(node.addr)
    client.put(node.addr, "s/t", b"5")
    (request,) = sent
    mid = request.parsed.mid
    ack = encode(CoapMessage(MsgType.ACK, CHANGED, mid))
    client.on_frame(Frame(ack, Endpoint(NODE2_ADDR), request.src))  # another node
    world.sim.run(until=world.sim.now + 4000.0)
    assert client.responses == []
    assert world.sim.trace.find("client_retransmit", client="c1", mid=mid)
    client.on_frame(Frame(ack, request.dst, request.src))
    assert [r["msg"].code for r in client.responses] == [CHANGED]


def test_an_ack_from_another_endpoint_leaves_a_notification_unacknowledged():
    world = booted_world(simple_scenario())
    node, client = world.nodes["n1"], world.clients["c1"]
    client.observe(node.addr, "s/t")
    world.sim.run(until=world.sim.now + 1000.0)
    client.silence(True)
    node.change_resource("s/t", b"19")
    (obs,) = node.observers.values()
    mid = obs.last_mid
    ack = encode(empty_ack(mid))
    node.on_frame(Frame(ack, Endpoint(client.addr, obs.client.port + 1), node.endpoint))
    world.sim.run(until=world.sim.now + 4000.0)
    assert len(world.sim.trace.find("retransmit", node="n1", mid=mid)) == 1
    node.on_frame(Frame(ack, obs.client, node.endpoint))
    assert obs.pending is None
    world.sim.run(until=world.sim.now + 100_000.0)
    assert len(world.sim.trace.find("retransmit", node="n1", mid=mid)) == 1


def test_an_ack_from_another_endpoint_does_not_end_a_boot(monkeypatch):
    world = booted_world(simple_scenario())
    node = world.nodes["n1"]
    sent = _sends(world, monkeypatch)
    world.network.blackholes.add(node.addr)
    node.crash(100.0)
    world.sim.run(until=world.sim.now + 200.0)
    (registration,) = sent
    ack = encode(empty_ack(registration.parsed.mid))
    node.on_frame(Frame(ack, Endpoint("cccc::3"), node.endpoint))  # not the gateway
    assert node.state is NodeState.BOOTING
    assert world.sim.trace.find("drop", why="blocked-booting", node="n1")
    node.on_frame(Frame(ack, registration.dst, node.endpoint))
    assert node.state is NodeState.UP


# -- the duplicate filter -----------------------------------------------------

def test_a_node_keeps_each_reply_for_the_exchange_lifetime(monkeypatch):
    world = booted_world(simple_scenario())
    node = world.nodes["n1"]
    sent = _sends(world, monkeypatch)

    def put(mid, value):
        msg = CoapMessage(MsgType.CON, PUT, mid, options=OptionSet(uri_path=("s", "t")),
                          payload=value)
        node.on_frame(Frame(encode(msg), CLIENT_EP, node.endpoint))
        return sent[-1]

    kept_at = world.sim.now
    first = put(1000, b"first")
    for i in range(1, 70):
        put(1000 + i, b"%d" % i)
    assert node.resources["s/t"] == b"69"
    world.sim.run(until=kept_at + EXCHANGE_LIFETIME_MS - 1.0)
    assert put(1000, b"first") is first  # the kept reply; the PUT does not run again
    assert node.resources["s/t"] == b"69"
    world.sim.run(until=kept_at + EXCHANGE_LIFETIME_MS)
    again = put(1000, b"first")
    assert again is not first and again.raw == first.raw
    assert node.resources["s/t"] == b"first"


def test_a_duplicate_con_notification_is_recorded_once_and_acked_again(monkeypatch):
    world = booted_world(simple_scenario())
    node, client = world.nodes["n1"], world.clients["c1"]
    client.observe(node.addr, "s/t")
    world.sim.run(until=world.sim.now + 1000.0)
    rel = client.relationships[(node.addr, "s/t")]
    seen = len(client.notifications)
    sent = _sends(world, monkeypatch)
    note = Frame(encode(CoapMessage(MsgType.CON, CONTENT, 4242, token=rel.token,
                                    options=OptionSet(observe=9), payload=b"x")),
                 node.endpoint, Endpoint(client.addr, rel.port))
    client.on_frame(note)
    client.on_frame(note)  # resent after a lost ACK
    assert len(client.notifications) == seen + 1
    assert [(f.raw, f.src, f.dst) for f in sent] == 2 * [(encode(empty_ack(4242)),
                                                          note.dst, note.src)]


def test_a_registration_is_a_duplicate_per_node_and_mid_for_the_lifetime(monkeypatch):
    world = booted_world(simple_scenario(second_node=True))
    gateway, n1, n2 = world.gateway, world.nodes["n1"], world.nodes["n2"]
    acks: list[Frame] = []
    monkeypatch.setattr(world.network, "deliver_to_node", acks.append)

    def register(node, mid):
        frame = Frame(encode(registration_request(mid)), node.endpoint, gateway.endpoint)
        gateway.on_frame(frame)
        _, fields = world.sim.trace.find("gw", node=node.addr, mid=mid)[-1]
        return fields["ev"]

    start = world.sim.now
    assert register(n1, 777) == "reg"
    assert register(n1, 777) == "reg_dup"  # a retransmission
    assert register(n2, 777) == "reg"  # the same MID from another node
    assert register(n1, 778) == "reg"  # a reboot
    assert register(n1, 777) == "reg_dup"  # a late copy from the boot before
    world.sim.run(until=start + EXCHANGE_LIFETIME_MS)
    assert register(n1, 777) == "reg"
    assert [a.dst for a in acks] == [n1.endpoint, n1.endpoint, n2.endpoint,
                                     n1.endpoint, n1.endpoint, n1.endpoint]
    assert acks[0].raw == acks[1].raw == acks[4].raw == encode(empty_ack(777))
