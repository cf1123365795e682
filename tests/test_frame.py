"""While a simulation runs, only bytes from outside the program are parsed,
each frame of them once; a frame built from a message is neither encoded
nor parsed, and retransmissions and duplicate replies resend the frame they
first sent instead of building (and parsing) a new one."""

import dataclasses
import importlib.resources
import sys
from collections import Counter

import pytest

from worldutil import _sends, booted_world, simple_scenario
from sdgateway import coap
from sdgateway.coap import (
    CHANGED,
    CONTENT,
    EMPTY,
    GET,
    PUT,
    CoapMessage,
    Endpoint,
    MsgType,
    OptionSet,
    encode,
    registration_request,
)
from sdgateway.harness import ScenarioRun, sweep
from sdgateway.lln import Frame
from sdgateway.scenario import load_scenario

CLIENT_EP = Endpoint("cccc::3", 60001)


def bundled(name: str):
    return load_scenario(importlib.resources.files("sdgateway") / "scenarios" / name)


def lossy_fig12_19():
    # Seed 5 at 25% loss exercises client, notification and replay
    # retransmissions.
    sc = bundled("fig12_19.scn")
    sc.seed, sc.loss = 5, 0.25
    return sc


@pytest.fixture
def spies(monkeypatch):
    """Record every Frame built, by `Frame(raw, ...)` or `Frame.of`, the
    frames `Frame.of` built from a message, and every decode call, on each
    sdgateway module that binds `coap.decode`."""
    frames: list[Frame] = []
    from_messages: list[Frame] = []
    decoded: Counter = Counter()
    original_init, original_of, original_decode = Frame.__init__, Frame.of, coap.decode

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        frames.append(self)

    def of(cls, *args, **kwargs):
        frame = original_of(*args, **kwargs)
        frames.append(frame)
        from_messages.append(frame)
        return frame

    def decode(data):
        decoded[id(data)] += 1
        return original_decode(data)

    monkeypatch.setattr(Frame, "__init__", init)
    monkeypatch.setattr(Frame, "of", classmethod(of))
    for name, module in list(sys.modules.items()):
        if name.startswith("sdgateway") and getattr(module, "decode", None) is original_decode:
            monkeypatch.setattr(module, "decode", decode)
    return frames, from_messages, decoded


@pytest.mark.parametrize("make", [
    lambda: bundled("fig12_19.scn"),
    lambda: bundled("bind_deploy.scn"),
    lossy_fig12_19,
], ids=["fig12_19.scn", "bind_deploy.scn", "fig12_19-loss0.25"])
def test_no_frame_is_decoded_more_than_once(spies, make):
    frames, from_messages, decoded = spies
    # The simulation only: reading the trace, as the final checks do,
    # renders each traced message from its bytes, and so decodes them.  The
    # bundled scenarios inject no bytes from outside, so nothing is parsed.
    ScenarioRun(make()).advance()
    # `frames` keeps every raw alive, so no id is reused during the run.
    per_raw = Counter(id(f.raw) for f in frames)
    assert frames and not decoded, f"{sum(decoded.values())} decodes while simulating"
    assert set(decoded) <= set(per_raw), "decoded bytes that belong to no Frame"
    over = {raw: n for raw, n in decoded.items() if n > per_raw[raw]}
    assert not over, f"{len(over)} frames decoded more than once"
    # A frame built from a message takes its parse from the message.
    assert len(from_messages) > len(frames) // 2
    parsed_again = [f for f in from_messages if decoded[id(f.raw)]]
    assert not parsed_again, f"{len(parsed_again)} frames built from a message were decoded"


@pytest.fixture
def codec_calls(monkeypatch):
    """Count the calls of `coap.encode` and `coap.decode`, by the value each
    is given, on each sdgateway module that binds them."""
    calls = {"encode": Counter(), "decode": Counter()}
    for name, seen in calls.items():
        original = getattr(coap, name)

        def spy(value, original=original, seen=seen):
            seen[value] += 1
            return original(value)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("sdgateway") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, spy)
    return calls


def test_a_run_makes_no_bytes_and_a_read_renders_each_message_once(codec_calls):
    encoded, decoded = codec_calls["encode"], codec_calls["decode"]
    # A sweep, the paper's figure path, never reads its trace.
    assert sweep("state_count", [1, 8], 2, seed=3)
    runs = [ScenarioRun(bundled("fig12_19.scn")), ScenarioRun(bundled("bind_deploy.scn"))]
    for run in runs:
        run.advance()
    assert not encoded and not decoded, "bytes made while simulating"
    for run in runs:
        trace = run.world.sim.trace
        kept = [record[index] for layout, record in trace._slices() for index in layout.frames]
        assert kept and all(type(msg) is CoapMessage for msg in kept)
        trace.text()
        # Each distinct message is encoded once, and its bytes decoded once.
        assert encoded == Counter(set(kept)) and len(encoded) < len(kept)
        assert decoded == Counter({encode(msg) for msg in kept})
        encoded.clear()
        decoded.clear()


def test_frame_parse_is_cached(spies):
    _, _, decoded = spies
    msg = CoapMessage(MsgType.CON, PUT, 7, token=b"\x01",
                      options=OptionSet(uri_path=("a", "lb")), payload=b"10")
    frame = Frame(encode(msg), CLIENT_EP, Endpoint("aaaa::2"))
    assert frame.parsed == msg
    assert frame.parsed is frame.parsed
    assert coap.summarize(frame.raw) == msg.short()
    assert decoded[id(frame.raw)] == 2  # the frame once, the direct summarize once
    with pytest.raises(dataclasses.FrozenInstanceError):
        frame.raw = b""  # the parse would no longer describe the bytes


def test_a_built_frame_makes_its_bytes_once_when_they_are_read(codec_calls):
    msg = CoapMessage(MsgType.CON, PUT, 7, token=b"\x01",
                      options=OptionSet(uri_path=("a", "lb")), payload=b"10")
    frame = Frame.of(msg, CLIENT_EP, Endpoint("aaaa::2"))
    assert frame.traced is frame.parsed and not codec_calls["encode"]
    assert frame.raw is frame.raw and frame.raw == encode(msg)
    assert list(codec_calls["encode"].values()) == [1] and not codec_calls["decode"]
    for attr in ("raw", "src", "parsed", "traced"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(frame, attr, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(frame, attr)
    assert repr(frame) == (f"Frame(src={CLIENT_EP!r}, dst={Endpoint('aaaa::2')!r}, "
                           f"parsed={frame.parsed!r})")
    # A malformed frame's record keeps its bytes.
    garbage = Frame(b"\x13\x37\x00", CLIENT_EP, Endpoint("aaaa::2"))
    assert garbage.parsed is None and garbage.traced is garbage.raw


def test_a_message_holding_the_cached_options_is_its_own_parse():
    msg = CoapMessage(MsgType.CON, PUT, 7, token=b"\x01",
                      options=OptionSet(uri_path=("a", "lb")), payload=b"10")
    parse = Frame.of(msg, CLIENT_EP, Endpoint("aaaa::2")).parsed
    assert parse == msg and parse is not msg and type(parse) is CoapMessage
    assert parse.options is coap.decode(encode(msg)).options  # the cached set
    for own in (parse, coap.empty_ack(7), CoapMessage(MsgType.ACK, CONTENT, 7, b"\x01")):
        assert Frame.of(own, CLIENT_EP, Endpoint("aaaa::2")).parsed is own


def test_malformed_frame_is_forwarded_by_gateway_and_dropped_by_node(spies):
    _, _, decoded = spies
    world = booted_world(simple_scenario())
    node = world.nodes["n1"]
    garbage = b"\x13\x37\x00"
    frame = Frame(garbage, Endpoint("cccc::3", 45000), node.endpoint)
    assert frame.parsed is None
    world.network.send(frame)
    world.sim.run(until=world.sim.now + 1000.0)
    assert decoded[id(garbage)] == 1  # reading the trace below decodes it again
    assert world.sim.trace.find("send", msg="malformed[3B]")
    assert world.sim.trace.find("gw", ev="fwd_malformed", dir="in")
    assert world.sim.trace.find("drop", why="malformed", node="n1")


def test_client_retransmission_resends_the_same_frame(monkeypatch):
    world = booted_world(simple_scenario())
    node, client = world.nodes["n1"], world.clients["c1"]
    sent = _sends(world, monkeypatch)
    world.network.blackholes.add(node.addr)
    client.put(node.addr, "s/t", b"5")
    world.sim.run(until=world.sim.now + 2000.0)  # the first copy is lost
    world.network.blackholes.clear()
    world.sim.run(until=world.sim.now + 3000.0)  # the retransmission arrives
    assert world.sim.trace.find("client_retransmit", client="c1")
    requests = [f for f in sent if f.src.addr == client.addr]
    assert len(requests) == 2 and requests[0] is requests[1]
    assert node.resources["s/t"] == b"5"


def test_node_dedup_resends_the_same_response_frame(monkeypatch):
    world = booted_world(simple_scenario())
    node = world.nodes["n1"]
    sent = _sends(world, monkeypatch)
    raw = encode(CoapMessage(MsgType.CON, GET, 900, token=b"\x77",
                             options=OptionSet(uri_path=("s", "t"))))
    node.on_frame(Frame(raw, CLIENT_EP, node.endpoint))
    node.on_frame(Frame(raw, CLIENT_EP, node.endpoint))  # a retransmission
    assert len(sent) == 2 and sent[0] is sent[1]


def test_a_duplicate_put_gets_the_kept_response_and_notifies_once(monkeypatch):
    world = booted_world(simple_scenario())
    node, client = world.nodes["n1"], world.clients["c1"]
    client.observe(node.addr, "s/t")
    world.sim.run(until=world.sim.now + 1000.0)
    notified = len(world.sim.trace.find("notify", node="n1"))
    sent = _sends(world, monkeypatch)
    raw = encode(CoapMessage(MsgType.CON, PUT, 903, options=OptionSet(uri_path=("s", "t")),
                             payload=b"5"))
    node.on_frame(Frame(raw, CLIENT_EP, node.endpoint))
    node.on_frame(Frame(raw, CLIENT_EP, node.endpoint))  # a retransmission
    response, notification, again = sent
    assert again is response and response.parsed.code == CHANGED
    assert notification.parsed.code == CONTENT and notification.dst != CLIENT_EP
    assert len(world.sim.trace.find("notify", node="n1")) == notified + 1


def test_gateway_dedup_resends_the_same_registration_ack(monkeypatch):
    world = booted_world(simple_scenario())
    node, gateway = world.nodes["n1"], world.gateway
    delivered: list[Frame] = []
    monkeypatch.setattr(world.network, "deliver_to_node",
                        lambda frame, origin="gw": delivered.append(frame))
    registration = Frame.of(registration_request(901), node.endpoint, gateway.endpoint)
    gateway.on_frame(registration)
    gateway.on_frame(registration)  # a retransmission
    assert world.sim.trace.find("gw", ev="reg_dup", mid=901)
    acks = [f for f in delivered if f.parsed.code == EMPTY]
    assert len(acks) == 2 and acks[0] is acks[1]


def test_client_dedup_resends_the_same_notification_ack(monkeypatch):
    world = booted_world(simple_scenario(resources={"gpio/btn": b"0"}))
    node, client = world.nodes["n1"], world.clients["c1"]
    client.observe(node.addr, "gpio/btn")
    world.sim.run(until=world.sim.now + 1000.0)
    rel = client.relationships[(node.addr, "gpio/btn")]
    note = Frame.of(CoapMessage(MsgType.CON, CONTENT, 902, token=rel.token,
                                options=OptionSet(observe=7), payload=b"1"),
                    node.endpoint, Endpoint(client.addr, rel.port))
    sent = _sends(world, monkeypatch)
    seen = len(client.notifications)
    client.on_frame(note)
    client.on_frame(note)  # a retransmission
    assert len(client.notifications) == seen + 1
    assert len(sent) == 2 and sent[0] is sent[1] and sent[0].parsed.mid == 902


def test_notification_retransmission_resends_the_same_frame(monkeypatch):
    world = booted_world(simple_scenario(resources={"gpio/btn": b"0"}))
    node, client = world.nodes["n1"], world.clients["c1"]
    client.observe(node.addr, "gpio/btn")
    world.sim.run(until=world.sim.now + 1000.0)
    client.silence(True)
    sent = _sends(world, monkeypatch)
    node.change_resource("gpio/btn", b"1")
    world.sim.run(until=world.sim.now + 4000.0)
    assert world.sim.trace.find("retransmit", node="n1")
    notes = [f for f in sent if f.src.addr == node.addr]
    assert len(notes) == 2 and notes[0] is notes[1]


def test_registration_retransmission_resends_the_same_frame(monkeypatch):
    world = booted_world(simple_scenario())
    node = world.nodes["n1"]
    sent = _sends(world, monkeypatch)
    world.network.blackholes.add(node.addr)
    node.crash(100.0)
    world.sim.run(until=world.sim.now + 3500.0)
    assert node._registration.transmissions == 2
    assert len(sent) == 2 and sent[0] is sent[1]
