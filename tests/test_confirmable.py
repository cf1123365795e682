"""The one confirmable-exchange primitive: RFC 7252 backoff, give-up and
cancellation, on a bare simulator and through the scripted client."""

import pytest

from worldutil import booted_world, simple_scenario
from sdgateway.coap import GET, CoapMessage, Endpoint, MsgType, OptionSet, encode
from sdgateway.lln import Confirmable, Frame
from sdgateway.sim import Simulator

FRAME = Frame(encode(CoapMessage(MsgType.CON, GET, 42, options=OptionSet(uri_path=("s",)))),
              Endpoint("cccc::3", 50000), Endpoint("aaaa::2"))


def exchange(sim):
    sent, retries, give_ups = [], [], []
    ex = Confirmable(sim, FRAME, lambda frame: sent.append((sim.now, frame)),
                     on_retry=retries.append,
                     on_give_up=lambda: give_ups.append(sim.now))
    ex.start()
    return ex, sent, retries, give_ups


def test_backoff_doubles_and_gives_up_once():
    sim = Simulator()
    ex, sent, retries, give_ups = exchange(sim)
    sim.run()
    assert [t for t, _ in sent] == [0.0, 3000.0, 9000.0, 21000.0, 45000.0]
    assert all(frame is FRAME for _, frame in sent)  # the same Frame every time
    assert retries == [1, 2, 3, 4]
    assert give_ups == [93000.0]
    assert ex.transmissions == 5 and ex.mid == 42


def test_nothing_is_sent_before_start():
    sim = Simulator()
    sent = []
    Confirmable(sim, FRAME, sent.append, on_give_up=lambda: sent.append("give-up"))
    sim.run()
    assert sent == []


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
    assert client._pending == {}
