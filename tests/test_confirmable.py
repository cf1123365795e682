"""The one confirmable-exchange primitive: RFC 7252 backoff, give-up and
cancellation, on a bare simulator and through the scripted client."""

import gc
import weakref

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


class Owner:
    """Holds its exchange; the exchange's callbacks are the owner's methods."""

    def __init__(self, sim, gave_up):
        self.gave_up = gave_up
        self.exchange = Confirmable(sim, FRAME, self.transmit, on_retry=self.retry,
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
        owner.exchange.start()
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
    assert client._pending == {}
