import copy
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from sdgateway.coap import (
    CHANGED,
    CONTENT,
    EMPTY,
    GET,
    MAX_RETRANSMIT,
    POST,
    PUT,
    BindingInfo,
    Block1,
    CoapMessage,
    Endpoint,
    MsgType,
    OptionSet,
    empty_ack,
    reset_for,
)
import sdgateway
from sdgateway.directory import (
    DirectoryInvariantError,
    EffectKind,
    EntryType,
    RegistrationStatus,
    SDEffect,
    SDEntry,
    StateDirectory,
)

NODE = Endpoint("aaaa::c30c:0:0:2", 5683)
NODE_B = Endpoint("aaaa::c30c:0:0:3", 5683)
CLIENT = Endpoint("cccc::3", 50824)


def put_msg(path, value, mid=100, cf=0):
    return CoapMessage(MsgType.CON, PUT, mid,
                       options=OptionSet(uri_path=tuple(path.split("/")), content_format=cf),
                       payload=value)


def observe_msg(path, obs, mid=200, token=b"\x0b\x2a"):
    return CoapMessage(MsgType.CON, GET, mid, token=token,
                       options=OptionSet(uri_path=tuple(path.split("/")), observe=obs))


def notif_msg(obs, mid, token=b"\x0b\x2a"):
    return CoapMessage(MsgType.CON, CONTENT, mid, token=token,
                       options=OptionSet(observe=obs, max_age=60), payload=b"1")


def test_put_creates_entry_type_2():
    sd = StateDirectory()
    effect = sd.intercept_from_internet(put_msg("a/lb", b"10"), CLIENT, NODE)
    assert effect.kind is EffectKind.CREATED
    entry = effect.entry
    assert entry.entry_type is EntryType.PUT and int(entry.entry_type) == 2
    assert entry.request.payload == b"10"
    assert entry.uri_path == "a/lb"
    assert entry.client == CLIENT and entry.server == NODE


def test_second_put_updates_single_entry():
    sd = StateDirectory()
    sd.intercept_from_internet(put_msg("s/t", b"18", mid=1), CLIENT, NODE)
    effect = sd.intercept_from_internet(put_msg("s/t", b"20", mid=2), Endpoint("cccc::3", 33513), NODE)
    assert effect.kind is EffectKind.UPDATED
    assert len(sd.entries) == 1
    assert sd.entries[0].request.payload == b"20"
    assert sd.entries[0].client.port == 33513  # latest client endpoint kept for spoofing


def test_observe_register_creates_with_zero_counters():
    sd = StateDirectory()
    effect = sd.intercept_from_internet(observe_msg("gpio/btn", 0), CLIENT, NODE)
    assert effect.kind is EffectKind.CREATED
    assert effect.entry.entry_type is EntryType.OBSERVE
    assert effect.entry.observe_counter == 0
    assert effect.entry.retransmit_counter == 0
    assert effect.entry.request.token == b"\x0b\x2a"


def test_observe_reregister_updates_token_and_mid():
    sd = StateDirectory()
    sd.intercept_from_internet(observe_msg("gpio/btn", 0, mid=1, token=b"\x01"), CLIENT, NODE)
    effect = sd.intercept_from_internet(observe_msg("gpio/btn", 0, mid=2, token=b"\x02"), CLIENT, NODE)
    assert effect.kind is EffectKind.UPDATED
    assert len(sd.entries) == 1
    assert sd.entries[0].request.token == b"\x02" and sd.entries[0].mid == 2


def test_deregister_without_entry_is_no_effect_and_leaves_sd_identical():
    sd = StateDirectory()
    sd.intercept_from_internet(put_msg("a/lb", b"10"), CLIENT, NODE)
    before = copy.deepcopy(sd.entries)
    effect = sd.intercept_from_internet(observe_msg("gpio/btn", 1), CLIENT, NODE)
    assert effect.kind is EffectKind.NO_EFFECT
    assert sd.entries == before


def test_deregister_removes_matching_entry():
    sd = StateDirectory()
    sd.intercept_from_internet(observe_msg("s/t", 0), CLIENT, NODE)
    effect = sd.intercept_from_internet(observe_msg("s/t", 1), CLIENT, NODE)
    assert effect.kind is EffectKind.REMOVED
    assert sd.entries == []


def test_notification_counter_sequence_reaches_44():
    sd = StateDirectory()
    sd.intercept_from_internet(observe_msg("s/t", 0), CLIENT, NODE)
    for obs, mid in ((12, 301), (20, 302), (44, 303)):
        effect = sd.intercept_from_lln(notif_msg(obs, mid), NODE, CLIENT)
        assert effect.kind is EffectKind.UPDATED
    assert sd.entries[0].observe_counter == 44
    assert sd.entries[0].mid == 303


def test_notification_retransmissions_remove_entry_at_max():
    sd = StateDirectory()
    sd.intercept_from_internet(observe_msg("s/t", 0), CLIENT, NODE)
    sd.intercept_from_lln(notif_msg(5, 400), NODE, CLIENT)
    for i in range(1, 4):
        effect = sd.intercept_from_lln(notif_msg(5, 400), NODE, CLIENT)
        assert effect.kind is EffectKind.UPDATED
        assert sd.entries[0].retransmit_counter == i
    effect = sd.intercept_from_lln(notif_msg(5, 400), NODE, CLIENT)
    assert effect.kind is EffectKind.REMOVED
    assert sd.entries == []


def test_client_ack_resets_retransmit_counter():
    sd = StateDirectory()
    sd.intercept_from_internet(observe_msg("s/t", 0), CLIENT, NODE)
    sd.intercept_from_lln(notif_msg(5, 400), NODE, CLIENT)
    sd.intercept_from_lln(notif_msg(5, 400), NODE, CLIENT)
    assert sd.entries[0].retransmit_counter == 1
    effect = sd.intercept_from_internet(empty_ack(400), CLIENT, NODE)
    assert effect.kind is EffectKind.UPDATED
    assert sd.entries[0].retransmit_counter == 0
    # A second matching ACK changes nothing.
    assert sd.intercept_from_internet(empty_ack(400), CLIENT, NODE).kind is EffectKind.NO_EFFECT


def test_rst_from_client_removes_entry():
    sd = StateDirectory()
    sd.intercept_from_internet(observe_msg("s/t", 0), CLIENT, NODE)
    sd.intercept_from_lln(notif_msg(7, 512), NODE, CLIENT)
    effect = sd.intercept_from_internet(reset_for(512), CLIENT, NODE)
    assert effect.kind is EffectKind.REMOVED
    assert sd.entries == []


def test_plain_response_from_lln_is_no_effect():
    sd = StateDirectory()
    sd.intercept_from_internet(observe_msg("s/t", 0), CLIENT, NODE)
    before = copy.deepcopy(sd.entries)
    msg = CoapMessage(MsgType.ACK, CHANGED, 99)
    assert sd.intercept_from_lln(msg, NODE, CLIENT).kind is EffectKind.NO_EFFECT
    assert sd.entries == before


def test_a_response_with_observe_is_a_notification_and_no_other_message_acks_one():
    sd = StateDirectory()
    sd.intercept_from_internet(observe_msg("s/t", 0), CLIENT, NODE)
    sd.intercept_from_lln(notif_msg(5, 400), NODE, CLIENT)
    sd.intercept_from_lln(notif_msg(5, 400), NODE, CLIENT)
    before = copy.deepcopy(sd.entries)
    # A client's piggy-backed response or CON ping with the notification's
    # MID neither acknowledges nor resets it.
    for msg in (CoapMessage(MsgType.ACK, CHANGED, 400), CoapMessage(MsgType.CON, EMPTY, 400)):
        assert sd.intercept_from_internet(msg, CLIENT, NODE).kind is EffectKind.NO_EFFECT
    assert sd.entries == before and sd.entries[0].retransmit_counter == 1
    # A piggy-backed response that carries Observe is a notification.
    piggy = CoapMessage(MsgType.ACK, CONTENT, 401, token=b"\x0b\x2a",
                        options=OptionSet(observe=9, max_age=60), payload=b"1")
    assert sd.intercept_from_lln(piggy, NODE, CLIENT).kind is EffectKind.UPDATED
    e = sd.entries[0]
    assert (e.observe_counter, e.mid, e.retransmit_counter) == (9, 401, 0)


def test_notification_without_entry_is_no_effect():
    sd = StateDirectory()
    assert sd.intercept_from_lln(notif_msg(3, 1), NODE, CLIENT).kind is EffectKind.NO_EFFECT
    assert sd.entries == []


def test_binding_request_creates_bind_entry():
    sd = StateDirectory()
    info = BindingInfo("aaaa::c30c:0:0:3", "a/led", pmin=1, pmax=60)
    msg = CoapMessage(MsgType.CON, GET, 7, token=b"\x05",
                      options=OptionSet(uri_path=("s", "t"), observe=0, binding=info))
    effect = sd.intercept_from_internet(msg, CLIENT, NODE)
    assert effect.kind is EffectKind.CREATED
    assert effect.entry.entry_type is EntryType.BIND and int(effect.entry.entry_type) == 6
    assert effect.entry.request.options.binding == info
    # Same binding again updates in place.
    assert sd.intercept_from_internet(msg, CLIENT, NODE).kind is EffectKind.UPDATED
    assert len(sd.entries) == 1


def deploy_block(num, more, payload, mid, filename="blinker", path="ldr"):
    return CoapMessage(MsgType.CON, POST, mid,
                       options=OptionSet(uri_path=(path,),
                                         uri_query=(f"file={filename}",),
                                         block1=Block1(num, more, 64)),
                       payload=payload)


def test_deploy_filename_mode_stores_name_only():
    sd = StateDirectory()
    assert sd.intercept_from_internet(deploy_block(0, True, b"a" * 64, 1), CLIENT, NODE).kind \
        is EffectKind.NO_EFFECT
    effect = sd.intercept_from_internet(deploy_block(1, False, b"b" * 10, 2), CLIENT, NODE)
    assert effect.kind is EffectKind.CREATED
    entry = effect.entry
    assert entry.entry_type is EntryType.DEPLOY and int(entry.entry_type) == 7
    assert entry.request.options.query_value("file") == "blinker"
    assert entry.request.options.path_str() == "ldr"
    # A last block that names no file stores nothing.
    assert sd.intercept_from_internet(deploy_block(0, False, b"c", 3, filename=""),
                                      CLIENT, NODE).kind is EffectKind.NO_EFFECT
    assert sd.entries == [entry]


def test_redeploying_a_filename_updates_its_one_entry():
    sd = StateDirectory()
    sd.intercept_from_internet(deploy_block(0, True, b"a" * 64, 1), CLIENT, NODE)
    sd.intercept_from_internet(deploy_block(1, True, b"b" * 64, 2), CLIENT, NODE)
    created = sd.intercept_from_internet(deploy_block(2, False, b"c" * 8, 3), CLIENT, NODE)
    assert created.kind is EffectKind.CREATED
    redeploy = deploy_block(0, False, b"z" * 5, 4)
    updated = sd.intercept_from_internet(redeploy, CLIENT, NODE)
    assert updated.kind is EffectKind.UPDATED and updated.entry is created.entry
    assert sd.entries == [created.entry] and created.entry.request is redeploy


def test_copies_of_more_blocks_do_nothing_and_each_copy_of_the_last_block_upserts_its_entry():
    sd = StateDirectory()
    # The ACK was lost and block 0 is retransmitted, then block 1 twice.
    for num, payload, mid in ((0, b"a", 1), (0, b"a", 1), (1, b"b", 2), (1, b"b", 2)):
        effect = sd.intercept_from_internet(deploy_block(num, True, payload * 64, mid),
                                            CLIENT, NODE)
        assert effect.kind is EffectKind.NO_EFFECT and not sd.entries
    last = deploy_block(2, False, b"c" * 4, 3)
    created = sd.intercept_from_internet(last, CLIENT, NODE)
    assert created.kind is EffectKind.CREATED and created.entry.request is last
    # The last block retransmitted updates that entry, as a repeated PUT does.
    updated = sd.intercept_from_internet(last, CLIENT, NODE)
    assert updated.kind is EffectKind.UPDATED and updated.entry is created.entry
    assert created.entry.request is last and sd.entries == [created.entry]


def test_lossy_block_transfer_still_deploys_the_exact_image():
    from sdgateway.scenario import parse_scenario
    from sdgateway.harness import run_scenario

    image = bytes(range(0x50))
    sc = parse_scenario(f"""
scenario lossydeploy
version 1
seed 3
loss 0.15
settle 60000
node n1 aaaa::c30c:0:0:2
client c1 cccc::3
at 1000 deploy c1 n1 file=img block=16 data=hex:{image.hex()}
""")
    result = run_scenario(sc)
    assert len(result.world.sim.trace.find("client_retransmit")) >= 2
    entry, = result.world.gateway.directory.entries_for_server(NODE.addr)
    assert entry.entry_type is EntryType.DEPLOY
    assert entry.request.options.query_value("file") == "img"
    assert result.world.nodes["n1"].flash["img"] == image


def test_directory_and_node_agree_on_the_module_of_a_last_block_that_continues_no_transfer():
    from sdgateway.harness import ScenarioRun
    from sdgateway.scenario import parse_scenario

    run = ScenarioRun(parse_scenario(f"""version 1
settle 0
node n1 {NODE.addr}
client c1 {CLIENT.addr}
assert 6000 snapshot n1
at 6500 crash n1 down=400
assert 20000 restored n1
"""))
    client, sim, node = run.world.clients["c1"], run.world.sim, run.world.nodes["n1"]
    directory = run.world.gateway.directory
    sim.schedule_at(3000.0, lambda: client._request(
        NODE.addr, POST, "ldr", payload=b"7", block1=Block1(2, False, 16),
        uri_query=("file=m",)))
    at_snapshot = []
    sim.schedule_at(6000.0, lambda: at_snapshot.append((
        {e.request.options.query_value("file") for e in directory.entries_for_server(NODE.addr)
         if e.entry_type is EntryType.DEPLOY}, set(node.loaded_modules))))
    run.advance()
    (deployed, loaded), = at_snapshot
    assert deployed == loaded
    assert run.ok, run.failures


def test_entries_for_server_ordered_by_creation():
    clock = iter(range(100))
    sd = StateDirectory(clock=lambda: float(next(clock)))
    sd.intercept_from_internet(put_msg("a/lb", b"10", mid=1), CLIENT, NODE)
    sd.intercept_from_internet(put_msg("a/m", b"7", mid=2), Endpoint("cccc::3", 33513), NODE)
    sd.intercept_from_internet(observe_msg("gpi/btn", 0, mid=3, token=b"\x0b\x2a"),
                               Endpoint("cccc::3", 52808), NODE)
    types = [int(e.entry_type) for e in sd.entries_for_server(NODE.addr)]
    assert types == [2, 2, 5]
    assert sd.entries_for_server("aaaa::ffff") == []


class ListDirectory:
    """Reference model of the directory's semantics, by brute force over a
    flat list: an update keeps the entry's position, remove-then-recreate
    appends, and every lookup takes the first match in creation order.  It
    renders each entry's value, content-format, binding and deploy columns
    from what the caller says the request holds, not from the request."""

    def __init__(self):
        self.entries = []
        self.columns = {}  # id of an entry -> those four columns

    def first(self, et, **match):
        return next((e for e in self.entries if e.entry_type is et
                     and all(getattr(e, k) == v for k, v in match.items())), None)

    def upsert(self, found, et, now, client, server, uri, request, columns=("-",) * 4):
        if found is None:
            found = SDEntry(et, client, server, uri, request, request.mid,
                            created_at=now, updated_at=now)
            self.entries.append(found)
            effect = EffectKind.CREATED
        else:
            found.client, found.request, found.mid, found.updated_at = (
                client, request, request.mid, now)
            effect = EffectKind.UPDATED
        self.columns[id(found)] = columns
        return effect

    def remove(self, found):
        if found is None:
            return EffectKind.NO_EFFECT
        self.entries.remove(found)
        return EffectKind.REMOVED

    def notify(self, now, server, client, token, obs, mid):
        e = next((e for e in self.entries if e.entry_type is EntryType.OBSERVE
                  and e.server == server and e.client == client
                  and e.request.token == token), None)
        if e is None:
            return EffectKind.NO_EFFECT
        if e.mid == mid:
            e.retransmit_counter += 1
            if e.retransmit_counter >= MAX_RETRANSMIT:
                return self.remove(e)
        else:
            e.observe_counter, e.mid, e.retransmit_counter = obs, mid, 0
        e.updated_at = now
        return EffectKind.UPDATED

    def client_ack(self, now, client, server, mid):
        e = self.first(EntryType.OBSERVE, client=client, server=server, mid=mid)
        if e is None or e.retransmit_counter == 0:
            return EffectKind.NO_EFFECT
        e.retransmit_counter, e.updated_at = 0, now
        return EffectKind.UPDATED


    def render(self, e):
        return "\t".join([
            str(int(e.entry_type)), str(e.client), str(e.server), e.uri_path,
            e.request.token.hex() or "-", str(e.mid), str(e.observe_counter),
            str(e.retransmit_counter), *self.columns[id(e)],
            f"{e.created_at:.3f}", f"{e.updated_at:.3f}"])


def test_interleaved_servers_query_independently():
    for seed in (1, 2, 3, 42):
        check_against_reference(seed)


def check_against_reference(seed):
    """Random PUT/observe/deregister/notify/RST/ACK/bind/deploy steps over
    two servers and two clients; after every step the directory must
    agree with `ListDirectory` on the effect and the whole state."""
    rng = random.Random(seed)
    now = [0.0]
    sd = StateDirectory(clock=lambda: now[0])
    ref = ListDirectory()
    clients = [CLIENT, Endpoint("cccc::4", 40001)]
    tokens = [b"\x01", b"\x02"]
    mids = itertools.count(1)
    notified = []  # (server, client, token, mid) of notifications sent so far
    for step in range(400):
        now[0] = float(step)
        server, client = rng.choice([NODE, NODE_B]), rng.choice(clients)
        path, token, mid = rng.choice(["s/a", "s/b"]), rng.choice(tokens), next(mids)
        op = rng.choice(["put", "observe", "deregister", "notify", "notify", "rst",
                         "ack", "bind", "deploy"])
        if op == "put":
            value = b"%d" % rng.randrange(3)
            msg = put_msg(path, value, mid)
            got = sd.intercept_from_internet(msg, client, server)
            want = ref.upsert(ref.first(EntryType.PUT, server=server, uri_path=path),
                              EntryType.PUT, now[0], client, server, path, msg,
                              (value.hex(), "0", "-", "-"))
        elif op == "observe":
            msg = observe_msg(path, 0, mid, token)
            got = sd.intercept_from_internet(msg, client, server)
            found = ref.first(EntryType.OBSERVE, client=client, server=server, uri_path=path)
            want = ref.upsert(found, EntryType.OBSERVE, now[0], client, server, path, msg)
        elif op == "deregister":
            got = sd.intercept_from_internet(observe_msg(path, 1, mid, token), client, server)
            want = ref.remove(ref.first(EntryType.OBSERVE, client=client, server=server,
                                        uri_path=path))
        elif op == "notify":
            observes = [e for e in ref.entries if e.entry_type is EntryType.OBSERVE]
            if notified and rng.random() < 0.5:  # retransmit the latest notification
                server, client, token, mid = notified[-1]
            elif observes and rng.random() < 0.7:
                e = rng.choice(observes)
                server, client, token = e.server, e.client, e.request.token
            obs = rng.randrange(2, 50)
            notified.append((server, client, token, mid))
            for _ in range(rng.choice([1, 1, MAX_RETRANSMIT])):  # then its retransmissions
                got = sd.intercept_from_lln(notif_msg(obs, mid, token), server, client)
                want = ref.notify(now[0], server, client, token, obs, mid)
                assert got.kind is want, (step, op)
        elif op in ("rst", "ack"):
            if notified and rng.random() < 0.8:
                server, client, _, mid = rng.choice(notified[-3:])
            if op == "rst":
                got = sd.intercept_from_internet(reset_for(mid), client, server)
                want = ref.remove(ref.first(EntryType.OBSERVE, client=client, server=server,
                                            mid=mid))
            else:
                got = sd.intercept_from_internet(empty_ack(mid), client, server)
                want = ref.client_ack(now[0], client, server, mid)
        elif op == "bind":
            info = BindingInfo(rng.choice([NODE_B.addr, NODE.addr]), rng.choice(["a/led", "a/x"]),
                               pmin=1, pmax=rng.randrange(10, 13))
            msg = CoapMessage(MsgType.CON, GET, mid, token=token,
                              options=OptionSet(uri_path=tuple(path.split("/")), observe=0,
                                                binding=info))
            got = sd.intercept_from_internet(msg, client, server)
            found = next((e for e in ref.entries if e.entry_type is EntryType.BIND
                          and e.server == server and e.uri_path == path
                          and (e.request.options.binding.dest_addr,
                               e.request.options.binding.dest_resource)
                          == (info.dest_addr, info.dest_resource)), None)
            want = ref.upsert(found, EntryType.BIND, now[0], client, server, path, msg,
                              ("-", "-", f"{info.dest_addr},{info.dest_resource},"
                                         f"{info.pmin},{info.pmax}", "-"))
        else:
            filename, loader = rng.choice(["blinker", "meter"]), rng.choice(["ldr", "ldr2"])
            nblocks = rng.randrange(1, 4)
            for num in range(nblocks):
                more, mid = num + 1 < nblocks, next(mids)
                msg = deploy_block(num, more, b"x" * 16, mid, filename, loader)
                for _ in range(rng.choice([1, 2])):  # maybe retransmitted
                    got = sd.intercept_from_internet(msg, client, server)
                    if more:
                        assert got.kind is EffectKind.NO_EFFECT
                        continue
                    # Each copy of the last block upserts the module's entry.
                    found = next((e for e in ref.entries if e.entry_type is EntryType.DEPLOY
                                  and e.server == server
                                  and e.request.options.uri_query == (f"file={filename}",)),
                                 None)
                    want = ref.upsert(found, EntryType.DEPLOY, now[0], client, server, loader,
                                      msg, ("-", "-", "-", f"{filename},{loader},0"))
                    assert got.kind is want, (step, op)
        assert got.kind is want, (step, op)
        assert sd.entries == ref.entries, (step, op)
        assert sd.snapshot_lines() == [ref.render(e) for e in ref.entries], (step, op)
        for addr in (NODE.addr, NODE_B.addr):
            assert sd.entries_for_server(addr) == [e for e in ref.entries
                                                   if e.server.addr == addr]


def test_register_node_status_transitions():
    sd = StateDirectory()
    assert sd.register_node(NODE.addr) is RegistrationStatus.NEW
    assert sd.register_node(NODE.addr) is RegistrationStatus.KNOWN_EMPTY
    sd.intercept_from_internet(observe_msg("s/t", 0), CLIENT, NODE)
    assert sd.register_node(NODE.addr) is RegistrationStatus.KNOWN_WITH_STATE
    sd.intercept_from_internet(observe_msg("s/t", 1), CLIENT, NODE)
    assert sd.register_node(NODE.addr) is RegistrationStatus.KNOWN_EMPTY


def test_snapshot_lines_are_stable():
    sd = StateDirectory()
    sd.intercept_from_internet(put_msg("a/lb", b"10", mid=55541), CLIENT, NODE)
    lines = sd.snapshot_lines()
    assert len(lines) == 1
    fields = lines[0].split("\t")
    assert fields[0] == "2"
    assert fields[1] == "cccc::3:50824"
    assert fields[2] == "aaaa::c30c:0:0:2:5683"
    assert fields[3] == "a/lb"
    assert sd.snapshot_lines() == lines


def test_observe_counter_never_decreases_within_epoch():
    rng = random.Random(7)
    sd = StateDirectory()
    sd.intercept_from_internet(observe_msg("s/t", 0), CLIENT, NODE)
    counter, mid = 0, 1000
    for _ in range(200):
        counter += rng.randrange(1, 9)
        mid += 1
        before = sd.entries[0].observe_counter
        sd.intercept_from_lln(notif_msg(counter, mid), NODE, CLIENT)
        assert sd.entries[0].observe_counter >= before


CORRUPT_PUT = """
import sys
from sdgateway.coap import PUT, CoapMessage, Endpoint, MsgType, OptionSet
from sdgateway.directory import DirectoryInvariantError, StateDirectory

node, client = Endpoint("aaaa::c30c:0:0:2"), Endpoint("cccc::3", 50824)
put = CoapMessage(MsgType.CON, PUT, 1, options=OptionSet(uri_path=("a", "lb")), payload=b"10")
sd = StateDirectory()
sd.intercept_from_internet(put, client, node).entry.observe_counter = 3
try:
    sd.intercept_from_internet(put, client, node)
except DirectoryInvariantError:
    print("raised", sys.flags.optimize)
"""


def bind_msg(mid, info=BindingInfo("aaaa::c30c:0:0:3", "a/led", pmin=1, pmax=60)):
    return CoapMessage(MsgType.CON, GET, mid, token=b"\x05",
                       options=OptionSet(uri_path=("s", "t"), observe=0, binding=info))


def unbound(entry):
    entry.request = entry.request._replace(
        options=entry.request.options._replace(binding=None))


# Per entry type: the request that makes the entry, a corruption of it, and
# the next request that touches it.  An intercept that reaches a BIND or
# DEPLOY entry replaces its request before the check, so for those (None)
# the test runs the check itself on the corrupt entry.
CORRUPTIONS = {
    # Only OBSERVE entries carry a counter.
    "put": (put_msg("a/lb", b"10"), lambda e: setattr(e, "observe_counter", 3),
            put_msg("a/lb", b"11")),
    "observe": (observe_msg("a/lb", 0),
                lambda e: setattr(e, "retransmit_counter", MAX_RETRANSMIT + 1),
                observe_msg("a/lb", 0, mid=202)),
    "bind": (bind_msg(7), unbound, None),
    "deploy": (deploy_block(0, False, b"z", 1),
               lambda e: setattr(e, "request", deploy_block(0, False, b"z", 1, filename="")),
               None),
}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_corrupt_entry_raises_on_next_intercept_touching_it(kind):
    made, corrupt, touch = CORRUPTIONS[kind]
    sd = StateDirectory()
    sd.intercept_from_internet(made, CLIENT, NODE)
    sd.intercept_from_internet(observe_msg("s/t", 0), CLIENT, NODE)
    corrupt(sd.entries[0])
    # An intercept that touches another entry does not look at it ...
    sd.intercept_from_internet(observe_msg("s/t", 0, mid=201), CLIENT, NODE)
    # ... the next one that touches it does.
    with pytest.raises(DirectoryInvariantError, match=f"corrupt {kind.upper()} entry"):
        if touch is None:
            sd._done("in", SDEffect(EffectKind.UPDATED, sd.entries[0]))
        else:
            sd.intercept_from_internet(touch, CLIENT, NODE)


def test_entry_check_survives_python_O():
    src = str(Path(sdgateway.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-O", "-c", CORRUPT_PUT], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["raised", "1"]


def test_effect_and_entry_must_agree():
    entry = SDEntry(EntryType.PUT, CLIENT, NODE, "a/lb", put_msg("a/lb", b"10"))
    with pytest.raises(DirectoryInvariantError):
        SDEffect(EffectKind.CREATED)
    with pytest.raises(DirectoryInvariantError):
        SDEffect(EffectKind.NO_EFFECT, entry)


# One request of each entry type, sent twice: the second updates in place.
HELD_KINDS = {
    "put": lambda mid: put_msg("a/lb", b"%d" % mid, mid=mid),
    "observe": lambda mid: observe_msg("s/t", 0, mid=mid),
    "bind": bind_msg,
    "deploy": lambda mid: deploy_block(0, False, b"z" * mid, mid),
}


@pytest.mark.parametrize("kind", sorted(HELD_KINDS))
def test_an_entry_updated_in_place_is_still_held(kind):
    sd = StateDirectory()
    entry = sd.intercept_from_internet(HELD_KINDS[kind](1), CLIENT, NODE).entry
    assert sd.holds(entry)
    effect = sd.intercept_from_internet(HELD_KINDS[kind](2), CLIENT, NODE)
    assert effect.kind is EffectKind.UPDATED and effect.entry is entry
    assert sd.holds(entry)


def test_a_removed_entry_is_not_held():
    sd = StateDirectory()
    entry = sd.intercept_from_internet(observe_msg("s/t", 0), CLIENT, NODE).entry
    sd.intercept_from_internet(observe_msg("s/t", 1), CLIENT, NODE)
    assert sd.entries == [] and not sd.holds(entry)


def test_after_remove_then_recreate_only_the_new_entry_is_held():
    sd = StateDirectory()
    old = sd.intercept_from_internet(observe_msg("s/t", 0, mid=1), CLIENT, NODE).entry
    sd.intercept_from_internet(observe_msg("s/t", 1, mid=2), CLIENT, NODE)
    new = sd.intercept_from_internet(observe_msg("s/t", 0, mid=3), CLIENT, NODE).entry
    assert new is not old and sd.entries == [new]
    assert sd.holds(new) and not sd.holds(old)


def test_an_equal_key_on_another_server_does_not_count():
    sd = StateDirectory()
    on_a = sd.intercept_from_internet(observe_msg("s/t", 0), CLIENT, NODE).entry
    on_b = sd.intercept_from_internet(observe_msg("s/t", 0), CLIENT, NODE_B).entry
    sd.intercept_from_internet(observe_msg("s/t", 1), CLIENT, NODE)
    assert not sd.holds(on_a) and sd.holds(on_b)
    # Neither a copy of a held entry nor that copy moved to another server is held.
    twin = copy.copy(on_b)
    assert twin == on_b and not sd.holds(twin)
    twin.server = NODE
    assert not sd.holds(twin)
