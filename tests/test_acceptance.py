"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers when it holds."""

import random
import statistics
import time
import importlib.resources
from pathlib import Path

from msggen import random_message
from worldutil import booted_world, client_frames, random_interaction_scenario, simple_scenario
from sdgateway.coap import CoapMessage, MalformedFrame, decode, encode
from sdgateway.harness import (
    CLIENT_ADDR,
    NODE_ADDR,
    MetricKind,
    ScenarioRun,
    run_scenario,
    sweep,
)
from sdgateway.lln import RDC
from sdgateway.scenario import ClientDecl, NodeDecl, Scenario


def bundled(name: str) -> Path:
    return Path(importlib.resources.files("sdgateway") / "scenarios" / name)


def test_criterion_1_functional_recovery_replication():
    started = time.perf_counter()
    result = run_scenario(bundled("fig12_19.scn"))
    assert result.ok, result.failures

    world = result.world
    node = world.nodes["n1"]
    client = world.clients["c1"]
    crash_time = world.sim.trace.find("crash", node="n1")[0][0]

    # Directory snapshot before the crash held exactly [2, 2, 5]; the
    # scenario assertion checked it at t=3000, re-derive it from the trace.
    created = [f["et"] for t, f in world.sim.trace.find("sd", effect="Created")
               if t < crash_time]
    assert created == [2, 2, 5]

    # Post-crash resource values match the pre-crash ones exactly.
    assert node.resources["a/lb"] == b"10"
    assert node.resources["a/m"] == b"7"

    # The re-registered observer is the original client, not the gateway.
    (path, endpoint), = node.observers.keys()
    assert path == "gpio/btn" and endpoint.addr == CLIENT_ADDR

    post = [n for n in client.notifications if n.time > crash_time]
    assert [n.observe for n in post] == [10, 11, 12]
    assert [n.type for n in post] == ["NON", "CON", "CON"]
    # Fresh MID space: consecutive after the reboot, not a continuation of
    # the pre-crash sequence.
    pre = [n for n in client.notifications if n.time < crash_time]
    post_mids = [n.mid for n in post]
    assert post_mids[1] == (post_mids[0] + 1) & 0xFFFF
    assert post_mids[2] == (post_mids[0] + 2) & 0xFFFF
    assert post_mids[0] != (pre[-1].mid + 1) & 0xFFFF

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"PASS criterion 1: recovery replication (obs 10->11->12, "
          f"MIDs {post_mids}, {elapsed:.2f}s wall)")


def test_criterion_2_observe_lifecycle():
    def lifecycle(cancel_via: str):
        world = booted_world(simple_scenario(seed=23, resources={"s/t": b"1"}))
        sim, node, client = world.sim, world.nodes["n1"], world.clients["c1"]
        gw = world.gateway
        probes = {}

        t = sim.now
        sim.schedule_at(t + 100, lambda: client.observe(node.addr, "s/t"))

        def probe_created():
            entry, = gw.directory.entries_for_server(node.addr)
            probes["created"] = (entry.observe_counter, entry.retransmit_counter,
                                 int(entry.entry_type))

        sim.schedule_at(t + 1000, probe_created)
        for offset, counter in ((2000, 12), (3000, 20), (4000, 44)):
            sim.schedule_at(t + offset, lambda c=counter: node.notify("s/t", counter=c))
        if cancel_via == "deregister":
            sim.schedule_at(t + 5000, lambda: client.deregister(node.addr, "s/t"))
        else:
            sim.schedule_at(t + 5000, lambda: client.cancel_with_rst(node.addr, "s/t"))
            sim.schedule_at(t + 5500, lambda: node.notify("s/t", counter=45))
        sim.run(until=t + 10_000)

        assert probes["created"] == (0, 0, 5)
        updates = [f["obs"] for _, f in sim.trace.find("sd", effect="Updated")]
        distinct = [v for i, v in enumerate(updates) if i == 0 or updates[i - 1] != v]
        assert distinct[:4] == [0, 12, 20, 44]
        assert gw.directory.entries_for_server(node.addr) == []
        assert node.observers == {}
        removed = sim.trace.find("sd_remove")[0][1]
        expected_reason = "deregister" if cancel_via == "deregister" else "rst"
        assert removed["reason"] == expected_reason

    lifecycle("deregister")
    lifecycle("rst")
    print("PASS criterion 2: observe lifecycle (0/0 create, 0->12->20->44, "
          "deregister and RST removal)")


def _silent_client_run(seed: int):
    sc = simple_scenario(seed=seed, resources={"s/t": b"1"}, settle=130_000)
    world = ScenarioRun(sc).world
    sim, node, client = world.sim, world.nodes["n1"], world.clients["c1"]
    sim.schedule_at(1000.0, lambda: client.observe(node.addr, "s/t"))
    sim.schedule_at(2000.0, lambda: client.silence(True))
    sim.schedule_at(3000.0, lambda: node.change_resource("s/t", b"2"))
    sim.run(until=130_000.0)
    return world


def test_criterion_3_retransmission_cancellation_agreement():
    for seed in range(100):
        world = _silent_client_run(seed)
        trace = world.sim.trace
        drops = trace.find("obs_drop", node="n1", reason="retransmit-limit")
        assert len(drops) == 1, f"seed {seed}: node never dropped the observer"
        node_drop = drops[0][1]
        assert node_drop["retries"] == 4

        removals = trace.find("sd_remove", reason="retransmit")
        assert len(removals) == 1, f"seed {seed}: SD never dropped the entry"
        sd_drop = removals[0][1]
        assert sd_drop["ret"] == 4

        # Both sides dropped on the same protocol event: the fourth
        # retransmission of the same notification exchange.
        assert node_drop["mid"] == sd_drop["mid"], f"seed {seed}"
        retransmissions = trace.find("retransmit", node="n1", mid=node_drop["mid"])
        assert len(retransmissions) == 4, f"seed {seed}"

        assert world.nodes["n1"].observers == {}
        assert world.gateway.directory.entries == []
    print("PASS criterion 3: node and SD drop the relationship on the 4th "
          "retransmission for 100/100 seeds")


def test_criterion_4_oracle_equivalence_over_randomized_sequences():
    failures = []
    for seed in range(100):
        result = run_scenario(random_interaction_scenario(seed))
        if not result.ok:
            failures.append((seed, result.failures))
    assert not failures, failures[:3]
    print("PASS criterion 4: post-recovery state == pre-crash snapshot for "
          "100/100 randomized interaction sequences")


def _mean_rows(records, metric):
    return {r.hops: r.value for r in records
            if r.metric is metric and r.scenario.endswith("/mean")}


def test_criterion_5_delay_shape_across_hops():
    hops = [1, 2, 3, 4, 5]
    means = {}
    for rdc in (RDC.NULLRDC, RDC.CONTIKIMAC):
        records = sweep("hops", hops, 30, seed=1000, rdc=rdc, state_count=3)
        means[rdc] = {
            MetricKind.ASSOCIATION_DELAY: _mean_rows(records, MetricKind.ASSOCIATION_DELAY),
            MetricKind.RECOVERY_DELAY: _mean_rows(records, MetricKind.RECOVERY_DELAY),
        }
    for rdc in means:
        for metric, by_hops in means[rdc].items():
            series = [by_hops[h] for h in hops]
            assert series == sorted(series), (rdc, metric, series)
    for metric in (MetricKind.ASSOCIATION_DELAY, MetricKind.RECOVERY_DELAY):
        for h in hops:
            assert means[RDC.CONTIKIMAC][metric][h] > means[RDC.NULLRDC][metric][h], \
                (metric, h)
    assoc3_null = means[RDC.NULLRDC][MetricKind.ASSOCIATION_DELAY][3]
    assoc3_mac = means[RDC.CONTIKIMAC][MetricKind.ASSOCIATION_DELAY][3]
    assert assoc3_null < 100.0
    assert assoc3_mac < 1000.0
    print(f"PASS criterion 5: delays nondecreasing in hops, duty-cycled always "
          f"slower; 3-hop association {assoc3_null:.0f} ms (always-on) / "
          f"{assoc3_mac:.0f} ms (duty-cycled)")


def test_criterion_6_recovery_delay_grows_with_state_count():
    reps = 30
    records = sweep("state_count", [1, 2, 3], reps, seed=2000,
                    hops=3, rdc=RDC.CONTIKIMAC)
    by_count: dict[int, dict[int, float]] = {1: {}, 2: {}, 3: {}}
    for r in records:
        if r.metric is MetricKind.RECOVERY_DELAY and "/" not in r.scenario:
            by_count[r.state_count][r.seed] = r.value
    seeds = sorted(by_count[1])
    assert len(seeds) == reps
    monotone = sum(1 for s in seeds
                   if by_count[1][s] <= by_count[2][s] <= by_count[3][s])
    assert monotone >= 28, f"only {monotone}/30 seed-paired runs were monotone"
    m = [statistics.fmean(by_count[k].values()) for k in (1, 2, 3)]
    assert m[0] <= m[1] <= m[2]
    print(f"PASS criterion 6: recovery delay nondecreasing in state count "
          f"({monotone}/30 paired, means {m[0]:.0f}/{m[1]:.0f}/{m[2]:.0f} ms)")


def _crash_free_scenario() -> Scenario:
    sc = Scenario(scenario_id="crashfree", seed=99, hops=2, settle=20_000.0)
    node = NodeDecl("n1", NODE_ADDR)
    node.resources.update({"s/t": b"18", "a/lb": b"0"})
    sc.nodes.append(node)
    sc.clients.append(ClientDecl("c1", CLIENT_ADDR))
    t = 1000.0
    script = [
        ("put", {"client": "c1", "node": "n1", "path": "s/t", "value": b"20", "cf": 0}),
        ("observe", {"client": "c1", "node": "n1", "path": "s/t", "obs": 0}),
        ("change", {"node": "n1", "path": "s/t", "value": b"21"}),
        ("get", {"client": "c1", "node": "n1", "path": "a/lb"}),
        ("change", {"node": "n1", "path": "s/t", "value": b"22"}),
        ("put", {"client": "c1", "node": "n1", "path": "a/lb", "value": b"5", "cf": 0}),
        ("change", {"node": "n1", "path": "s/t", "value": b"23"}),
        ("change", {"node": "n1", "path": "s/t", "value": b"24"}),
        ("deregister", {"client": "c1", "node": "n1", "path": "s/t"}),
    ]
    for verb, args in script:
        sc.event(t, verb, **args)
        t += 1000.0
    return sc


def test_criterion_7_transparency_and_overhead():
    on = ScenarioRun(_crash_free_scenario())
    off = ScenarioRun(_crash_free_scenario(), interception=False)
    frames_on, frames_off = client_frames(on.world), client_frames(off.world)
    on.advance()
    off.advance()
    assert len(frames_on) >= 10
    assert frames_on == frames_off  # byte-identical external sequence

    timed = run_scenario(_crash_free_scenario(), measure_overhead=True)
    samples = timed.world.gateway.overhead_us
    assert len(samples) >= 10
    mean_us = statistics.fmean(samples)
    assert mean_us < 1000.0  # < 1 ms per frame at desk scale
    print(f"PASS criterion 7: interception transparent ({len(frames_on)} external "
          f"frames byte-identical), hook mean {mean_us:.1f} us/frame")


def test_criterion_8_codec_soundness():
    rng = random.Random(0x7252)
    for _ in range(10_000):
        msg = random_message(rng)
        assert decode(encode(msg)) == msg
    crashes = 0
    for _ in range(10_000):
        data = rng.randbytes(rng.randint(0, 64))
        try:
            decoded = decode(data)
            assert isinstance(decoded, CoapMessage)
        except MalformedFrame:
            pass
        except Exception:
            crashes += 1
    assert crashes == 0
    print("PASS criterion 8: 10000 round-trips exact, 10000 random frames "
          "decoded or rejected cleanly")
