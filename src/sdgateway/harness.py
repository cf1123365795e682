"""Scenario execution and measurement front end.

Builds a world (simulator, network, gateway, nodes, clients) from a
scenario, schedules its events and assertions, runs to the scenario end
time, evaluates the assertions and collects metrics.  Sweeps run the
canonical crash-recovery scenario across a parameter range with derived,
rep-paired seeds and append mean/stddev summary rows to the CSV.
"""

from __future__ import annotations

import csv
import io
import os
import statistics
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional, Union

from .coap import BindingInfo
from .directory import EntryType
from .gateway import Gateway, GatewayConfig
from .lln import RDC, LinkModel, Network, ScriptedClient, VirtualNode
from .scenario import (
    AssertionFailure,
    ClientDecl,
    NodeDecl,
    Scenario,
    ScenarioAssert,
    ScenarioEvent,
    load_scenario,
)
from .sim import Simulator

LLN_PREFIX = "aaaa"
GATEWAY_ADDR = "cccc::1"

CSV_HEADER = ["scenario", "seed", "metric", "value", "unit", "hops", "rdc", "state_count"]


class MetricKind(Enum):
    ASSOCIATION_DELAY = "AssociationDelay"
    RECOVERY_DELAY = "RecoveryDelay"
    INTERCEPTION_OVERHEAD = "InterceptionOverhead"
    STATE_COUNT = "StateCount"
    HOP_COUNT = "HopCount"


_UNITS = {
    MetricKind.ASSOCIATION_DELAY: "ms",
    MetricKind.RECOVERY_DELAY: "ms",
    MetricKind.INTERCEPTION_OVERHEAD: "us",
    MetricKind.STATE_COUNT: "count",
    MetricKind.HOP_COUNT: "count",
}


@dataclass
class MetricRecord:
    metric: MetricKind
    value: float
    scenario: str
    seed: Union[int, str]
    hops: int
    rdc: str
    state_count: int

    @property
    def unit(self) -> str:
        return _UNITS[self.metric]

    def row(self) -> list[str]:
        if self.unit == "count":
            value = str(int(self.value))
        else:
            value = f"{self.value:.3f}"
        return [self.scenario, str(self.seed), self.metric.value, value,
                self.unit, str(self.hops), self.rdc, str(self.state_count)]


@dataclass
class World:
    sim: Simulator
    network: Network
    gateway: Gateway
    nodes: dict[str, VirtualNode]
    clients: dict[str, ScriptedClient]
    scenario: Scenario


def build_world(sc: Scenario, *, interception: bool = True,
                measure_overhead: bool = False) -> World:
    sim = Simulator(seed=sc.seed)
    network = Network(sim, lln_prefix=LLN_PREFIX, gateway_addr=GATEWAY_ADDR)
    config = GatewayConfig(lln_prefix=LLN_PREFIX, gateway_addr=GATEWAY_ADDR,
                           interception_enabled=interception,
                           deploy_mode=sc.deploy_mode,
                           pacing_gap=sc.pacing_gap,
                           measure_overhead=measure_overhead)
    gateway = Gateway(sim, network, config)
    nodes: dict[str, VirtualNode] = {}
    for decl in sc.nodes:
        link = LinkModel(hops=decl.hops if decl.hops is not None else sc.hops,
                         rdc=sc.rdc,
                         loss=decl.loss if decl.loss is not None else sc.loss)
        node = VirtualNode(sim, network, name=decl.name, addr=decl.addr, link=link,
                           defaults=decl.resources, loader_path=decl.loader,
                           notify_policy=sc.notify_policy)
        node.flash.update(decl.flash)
        network.add_node(node)
        nodes[decl.name] = node
    clients: dict[str, ScriptedClient] = {}
    for decl in sc.clients:
        client = ScriptedClient(sim, network, name=decl.name, addr=decl.addr)
        network.add_client(client)
        clients[decl.name] = client
    return World(sim, network, gateway, nodes, clients, sc)


def _dispatch(world: World, ev: ScenarioEvent) -> None:
    nodes, clients = world.nodes, world.clients
    a = ev.args
    if ev.verb == "boot":
        nodes[a["node"]].boot()
    elif ev.verb == "put":
        clients[a["client"]].put(nodes[a["node"]].addr, a["path"], a["value"], cf=a["cf"])
    elif ev.verb == "get":
        clients[a["client"]].get(nodes[a["node"]].addr, a["path"])
    elif ev.verb == "observe":
        clients[a["client"]].observe(nodes[a["node"]].addr, a["path"], obs=a["obs"])
    elif ev.verb == "deregister":
        clients[a["client"]].deregister(nodes[a["node"]].addr, a["path"])
    elif ev.verb == "rst":
        clients[a["client"]].cancel_with_rst(nodes[a["node"]].addr, a["path"])
    elif ev.verb == "bind":
        info = BindingInfo(dest_addr=a["dest"], dest_resource=a["res"],
                           pmin=a["pmin"], pmax=a["pmax"])
        clients[a["client"]].bind(nodes[a["node"]].addr, a["path"], info)
    elif ev.verb == "deploy":
        clients[a["client"]].deploy(nodes[a["node"]].addr, a["file"], a["data"],
                                    block_size=a["block"], loader_path=a["loader"])
    elif ev.verb == "change":
        nodes[a["node"]].change_resource(a["path"], a["value"])
    elif ev.verb == "notify":
        nodes[a["node"]].notify(a["path"], a["counter"])
    elif ev.verb == "crash":
        nodes[a["node"]].crash(a["down"])
    elif ev.verb == "silence":
        clients[a["client"]].silence(a["on"])
    elif ev.verb == "blackhole":
        addr = nodes[a["node"]].addr
        if a["on"]:
            world.network.blackholes.add(addr)
        else:
            world.network.blackholes.discard(addr)
    else:  # pragma: no cover - parser rejects unknown verbs
        raise ValueError(ev.verb)


def _evaluate(world: World, check: ScenarioAssert, snapshots: dict) -> Optional[str]:
    a = check.args
    directory = world.gateway.directory
    if check.check == "trace-contains":
        for line in world.sim.trace.lines():
            if all(tok in line for tok in a):
                return None
        return f"no trace line contains {a}"
    node = world.nodes[a[0]]
    if check.check == "sd-types":
        want = [int(x) for x in a[1].split(",")] if a[1] != "-" else []
        got = [int(e.entry_type) for e in directory.entries_for_server(node.addr)]
        return None if got == want else f"sd types {got} != {want}"
    if check.check == "sd-count":
        got = len(directory.entries_for_server(node.addr))
        return None if got == int(a[1]) else f"sd count {got} != {a[1]}"
    if check.check == "sd-obs":
        path, want = a[1].lstrip("/"), int(a[2])
        for e in directory.entries_for_server(node.addr):
            if e.entry_type is EntryType.OBSERVE and e.uri_path == path:
                return None if e.observe_counter == want else \
                    f"sd observe counter {e.observe_counter} != {want}"
        return f"no OBSERVE entry for {path}"
    if check.check == "resource":
        path = a[1].lstrip("/")
        want = a[2].encode("utf-8")
        got = node.resources.get(path)
        return None if got == want else f"resource {path} = {got!r}, wanted {want!r}"
    if check.check == "observer-count":
        path = a[1].lstrip("/")
        got = sum(1 for (p, _) in node.observers if p == path)
        return None if got == int(a[2]) else f"observer count {got} != {a[2]}"
    if check.check == "observer-client":
        path = a[1].lstrip("/")
        addrs = sorted({ep.addr for (p, ep) in node.observers if p == path})
        return None if addrs == [a[2]] else f"observer clients {addrs} != [{a[2]}]"
    if check.check == "snapshot":
        snapshots[a[0]] = node.dynamic_state()
        return None
    if check.check == "restored":
        if a[0] not in snapshots:
            return "restored without a prior snapshot"
        return None if node.dynamic_state() == snapshots[a[0]] else \
            "dynamic state differs from snapshot"
    return f"unknown check {check.check}"  # pragma: no cover


class ScenarioRun:
    """One run of a scenario, and its result.  The constructor builds the
    world and schedules every node boot at 0 ms, then the events, then the
    timed checks; `advance` runs the simulator, in one call or in steps;
    `finish` runs the final checks, collects the metrics and writes the
    artifacts to `out_dir` (when given)."""

    def __init__(self, sc: Scenario, *, interception: bool = True,
                 measure_overhead: bool = False, out_dir: Optional[Path] = None) -> None:
        self.scenario = sc
        self.out_dir = None if out_dir is None else Path(out_dir)
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        self.world = build_world(sc, interception=interception,
                                 measure_overhead=measure_overhead)
        # (check name, problem or None), in the order the checks ran.
        self.assertions: list[tuple[str, Optional[str]]] = []
        self.metrics: list[MetricRecord] = []
        self.flagged = False
        self._snapshots: dict[str, dict] = {}
        sim = self.world.sim
        for node in self.world.nodes.values():
            sim.schedule_at(0.0, node.boot)
        for ev in sc.events:
            sim.schedule_at(ev.time, _dispatch, self.world, ev)
        for check in sc.asserts:
            if check.time is not None:
                sim.schedule_at(check.time, self._check, check)

    @property
    def failures(self) -> list[str]:
        return [f"{name}: {problem}" for name, problem in self.assertions
                if problem is not None]

    @property
    def ok(self) -> bool:
        return not self.failures

    def raise_for_failures(self) -> None:
        if self.failures:
            raise AssertionFailure(self.failures)

    def _check(self, check: ScenarioAssert) -> None:
        self.assertions.append((check.name, _evaluate(self.world, check, self._snapshots)))
        if self.out_dir is not None:
            stamp = "final" if check.time is None else f"{check.time:g}"
            self.world.gateway.directory.write_snapshot(
                self.out_dir / f"{self.scenario.scenario_id}.sd@{stamp}.txt")

    def advance(self, until: Optional[float] = None) -> None:
        """Run the simulator to `until`, or to the scenario's end time."""
        self.world.sim.run(until=self.scenario.end_time() if until is None else until)

    def finish(self) -> "ScenarioRun":
        for check in self.scenario.asserts:
            if check.time is None:
                self._check(check)
        world = self.world
        self.metrics = collect_metrics(world,
                                       include_overhead=world.gateway.config.measure_overhead)
        self.flagged = any(not r.all_acked for r in world.gateway.recovery.reports)
        if self.out_dir is not None:
            sid = self.scenario.scenario_id
            write_csv(self.out_dir / f"{sid}.metrics.csv", self.metrics)
            world.sim.trace.write(self.out_dir / f"{sid}.trace.txt")
        return self


def run_scenario(source: Union[Scenario, str, Path], *, interception: bool = True,
                 measure_overhead: bool = False, out_dir: Optional[Path] = None,
                 trace_path: Optional[Path] = None) -> ScenarioRun:
    sc = source if isinstance(source, Scenario) else load_scenario(source)
    run = ScenarioRun(sc, interception=interception, measure_overhead=measure_overhead,
                      out_dir=out_dir)
    run.advance()
    run.finish()
    if trace_path is not None:
        run.world.sim.trace.write(trace_path)
    return run


def collect_metrics(world: World, *, include_overhead: bool = False) -> list[MetricRecord]:
    sc = world.scenario
    rdc = sc.rdc.value
    records: list[MetricRecord] = []
    reports = world.gateway.recovery.reports
    run_states = max((r.steps_total for r in reports), default=0)
    for name, node in sorted(world.nodes.items()):
        for _epoch, sent, acked in node.associations:
            records.append(MetricRecord(MetricKind.ASSOCIATION_DELAY, acked - sent,
                                        sc.scenario_id, sc.seed, node.link.hops,
                                        rdc, run_states))
    for report in reports:
        if report.aborted:
            continue
        node = world.network.nodes[report.node]
        records.append(MetricRecord(MetricKind.RECOVERY_DELAY, report.total_delay,
                                    sc.scenario_id, sc.seed, node.link.hops, rdc,
                                    report.steps_total))
        records.append(MetricRecord(MetricKind.STATE_COUNT, report.steps_total,
                                    sc.scenario_id, sc.seed, node.link.hops, rdc,
                                    report.steps_total))
    if world.nodes:
        records.append(MetricRecord(MetricKind.HOP_COUNT,
                                    max(n.link.hops for n in world.nodes.values()),
                                    sc.scenario_id, sc.seed,
                                    max(n.link.hops for n in world.nodes.values()),
                                    rdc, run_states))
    # Wall-clock overhead rows are opt-in: they would break the
    # byte-identical-rerun guarantee of the metrics CSV.
    if include_overhead and world.gateway.overhead_us:
        mean = statistics.fmean(world.gateway.overhead_us)
        hops = max((n.link.hops for n in world.nodes.values()), default=1)
        records.append(MetricRecord(MetricKind.INTERCEPTION_OVERHEAD, mean,
                                    sc.scenario_id, sc.seed, hops, rdc, run_states))
    return records


def csv_text(records: list[MetricRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for record in records:
        writer.writerow(record.row())
    return buf.getvalue()


def write_csv(path, records: list[MetricRecord]) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_text(records))


# -- canonical crash-recovery scenario and sweeps ---------------------------

NODE_ADDR = "aaaa::c30c:0:0:2"
CLIENT_ADDR = "cccc::3"


def canonical_recovery_scenario(*, hops: int, rdc, state_count: int,
                                seed: int, loss: float = 0.0) -> Scenario:
    """One node, one client: `state_count` PUTs, a crash, a recovery.
    The measurement workhorse behind the sweeps."""
    sc = Scenario(scenario_id=f"recovery[hops={hops},rdc={rdc.value},states={state_count}]",
                  seed=seed, rdc=rdc, hops=hops, loss=loss, settle=25_000.0)
    node = NodeDecl("n1", NODE_ADDR)
    for i in range(state_count):
        node.resources[f"cfg/r{i}"] = b"0"
    sc.nodes.append(node)
    sc.clients.append(ClientDecl("c1", CLIENT_ADDR))
    for i in range(state_count):
        sc.events.append(ScenarioEvent(4000.0 * (i + 1), "put",
                                       {"client": "c1", "node": "n1",
                                        "path": f"cfg/r{i}",
                                        "value": b"%d" % (10 + i), "cf": 0}, 0))
    crash_at = 4000.0 * state_count + 4000.0
    sc.events.append(ScenarioEvent(crash_at, "crash", {"node": "n1", "down": 1000.0}, 0))
    return sc


SWEEP_PARAMS = ("hops", "state_count", "rdc")


def sweep(param: str, values: list, reps: int, seed: int, *,
          hops: int = 3, rdc=None, state_count: int = 3) -> list[MetricRecord]:
    """Run the canonical scenario `reps` times per parameter value with
    rep-paired derived seeds; returns per-run rows plus summary rows."""
    if param not in SWEEP_PARAMS:
        raise ValueError(f"unknown sweep parameter {param!r}")
    if not values or reps < 1:
        raise ValueError("sweep needs a nonempty range and reps >= 1")
    if rdc is None:
        rdc = RDC.NULLRDC

    records: list[MetricRecord] = []
    for value in values:
        cfg = {"hops": hops, "rdc": rdc, "state_count": state_count}
        cfg[param] = value
        per_metric: dict[MetricKind, list[float]] = {}
        scenario_id = None
        for rep in range(reps):
            derived = seed + 7919 * rep
            sc = canonical_recovery_scenario(seed=derived, loss=0.0, **cfg)
            scenario_id = sc.scenario_id
            result = run_scenario(sc)
            result.raise_for_failures()
            records.extend(result.metrics)
            for record in result.metrics:
                if record.metric in (MetricKind.ASSOCIATION_DELAY,
                                     MetricKind.RECOVERY_DELAY):
                    per_metric.setdefault(record.metric, []).append(record.value)
        for metric, samples in sorted(per_metric.items(), key=lambda kv: kv[0].value):
            mean = statistics.fmean(samples)
            std = statistics.pstdev(samples)
            hop_val = cfg["hops"]
            records.append(MetricRecord(metric, mean, f"{scenario_id}/mean", seed,
                                        hop_val, cfg["rdc"].value, cfg["state_count"]))
            records.append(MetricRecord(metric, std, f"{scenario_id}/stddev", seed,
                                        hop_val, cfg["rdc"].value, cfg["state_count"]))
    return records


def default_out_dir() -> Path:
    return Path(os.environ.get("SDGATEWAY_OUT_DIR", "out"))
