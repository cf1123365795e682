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

from .gateway import Gateway
from .lln import RDC, LinkModel, Network, ScriptedClient, VirtualNode
from .scenario import (
    CHECKS,
    VERBS,
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


@dataclass(slots=True)
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
    gateway = Gateway(sim, network, interception=interception,
                      measure_overhead=measure_overhead)
    nodes: dict[str, VirtualNode] = {}
    for decl in sc.nodes:
        link = LinkModel(hops=decl.hops if decl.hops is not None else sc.hops,
                         rdc=sc.rdc,
                         loss=decl.loss if decl.loss is not None else sc.loss)
        node = VirtualNode(sim, network, name=decl.name, addr=decl.addr, link=link,
                           defaults=decl.resources, loader_path=decl.loader)
        node.flash.update(decl.flash)
        network.nodes[node.addr] = nodes[decl.name] = node
    clients: dict[str, ScriptedClient] = {}
    for decl in sc.clients:
        client = ScriptedClient(sim, network, name=decl.name, addr=decl.addr)
        network.clients[client.addr] = clients[decl.name] = client
    return World(sim, network, gateway, nodes, clients, sc)


def _dispatch(world: World, ev: ScenarioEvent) -> None:
    VERBS[ev.verb].act(world, ev.args)


def _evaluate(world: World, check: ScenarioAssert, snapshots: dict) -> Optional[str]:
    return CHECKS[check.check].evaluate(world, check.args, snapshots)


class ScenarioRun:
    """One run of a scenario, and its result.  The constructor builds the
    world and schedules every node boot at 0 ms, then the events, then the
    timed checks; `advance` runs the simulator, in one call or in steps;
    `finish` runs the final checks, collects the metrics and writes the
    artifacts to `out_dir` (when given) and the trace to `trace_path` (when
    given)."""

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

    def finish(self, trace_path: Optional[Path] = None) -> "ScenarioRun":
        for check in self.scenario.asserts:
            if check.time is None:
                self._check(check)
        world = self.world
        self.metrics = collect_metrics(world)
        self.flagged = any(not r.all_acked for r in world.gateway.recovery.reports)
        trace_paths = [] if trace_path is None else [trace_path]
        if self.out_dir is not None:
            sid = self.scenario.scenario_id
            write_csv(self.out_dir / f"{sid}.metrics.csv", self.metrics)
            trace_paths.append(self.out_dir / f"{sid}.trace.txt")
        if trace_paths:
            world.sim.trace.write(*trace_paths)  # one render for both files
        return self


def run_scenario(source: Union[Scenario, str, Path], *, interception: bool = True,
                 measure_overhead: bool = False, out_dir: Optional[Path] = None,
                 trace_path: Optional[Path] = None) -> ScenarioRun:
    sc = source if isinstance(source, Scenario) else load_scenario(source)
    run = ScenarioRun(sc, interception=interception, measure_overhead=measure_overhead,
                      out_dir=out_dir)
    run.advance()
    return run.finish(trace_path)


def collect_metrics(world: World) -> list[MetricRecord]:
    sc = world.scenario
    reports = world.gateway.recovery.reports
    run_states = max((r.steps_total for r in reports), default=0)

    def record(metric: MetricKind, value: float, hops: int, states: int = run_states):
        return MetricRecord(metric, value, sc.scenario_id, sc.seed, hops, sc.rdc.value, states)

    records = [record(MetricKind.ASSOCIATION_DELAY, acked - sent, node.link.hops)
               for _, node in sorted(world.nodes.items())
               for _epoch, sent, acked in node.associations]
    for report in reports:
        if not report.aborted:
            hops = world.network.nodes[report.node].link.hops
            records.append(record(MetricKind.RECOVERY_DELAY, report.total_delay, hops,
                                  report.steps_total))
            records.append(record(MetricKind.STATE_COUNT, report.steps_total, hops,
                                  report.steps_total))
    hops = max((n.link.hops for n in world.nodes.values()), default=None)
    if hops is not None:
        records.append(record(MetricKind.HOP_COUNT, hops, hops))
    # Wall-clock rows are opt-in, filled only under `measure_overhead`:
    # they would break the byte-identical-rerun guarantee of the metrics CSV.
    if world.gateway.overhead_us:
        records.append(record(MetricKind.INTERCEPTION_OVERHEAD,
                              statistics.fmean(world.gateway.overhead_us), hops or 1))
    return records


def csv_text(records: list[MetricRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for record in records:
        writer.writerow(record.row())
    return buf.getvalue()


def write_csv(path, records: list[MetricRecord]) -> None:
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
# How long a sweep run goes on after its crash: longer than a recovery takes
# at any value swept so far (about 31 s for 32 states at contikimac over 3
# hops), so that every run yields its recovery rows.  Nothing happens after
# a recovery finishes, so a longer run gives the same rows.
SWEEP_SETTLE_MS = 600_000.0


def check_sweep(param: str, values: list, reps: int, *, hops: int = 3,
                state_count: int = 3) -> None:
    """Raise ValueError for `sweep` arguments that some run could not take:
    the canonical scenario needs at least one hop, and a state count below
    zero would crash the node before it boots."""
    if param not in SWEEP_PARAMS:
        raise ValueError(f"unknown sweep parameter {param!r}")
    if not values or reps < 1:
        raise ValueError("sweep needs a nonempty range and reps >= 1")
    for name, least, swept in (("hops", 1, hops), ("state_count", 0, state_count)):
        for value in values if param == name else [swept]:
            if value < least:
                raise ValueError(f"{name} must be >= {least}, not {value}")


def sweep(param: str, values: list, reps: int, seed: int, *,
          hops: int = 3, rdc=None, state_count: int = 3) -> list[MetricRecord]:
    """Run the canonical scenario `reps` times per parameter value with
    rep-paired derived seeds; returns per-run rows plus summary rows."""
    check_sweep(param, values, reps, hops=hops, state_count=state_count)
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
            sc.settle = SWEEP_SETTLE_MS
            result = run_scenario(sc)
            if result.world.gateway.recovery.active:
                raise RuntimeError(f"{sc.scenario_id}: recovery still active "
                                   f"{SWEEP_SETTLE_MS:g} ms after the crash")
            result.raise_for_failures()
            records.extend(result.metrics)
            for record in result.metrics:
                if record.metric in (MetricKind.ASSOCIATION_DELAY,
                                     MetricKind.RECOVERY_DELAY):
                    per_metric.setdefault(record.metric, []).append(record.value)
        for metric, samples in sorted(per_metric.items(), key=lambda kv: kv[0].value):
            for name, stat in (("mean", statistics.fmean), ("stddev", statistics.pstdev)):
                records.append(MetricRecord(metric, stat(samples), f"{scenario_id}/{name}", seed,
                                            cfg["hops"], cfg["rdc"].value, cfg["state_count"]))
    return records


def default_out_dir() -> Path:
    return Path(os.environ.get("SDGATEWAY_OUT_DIR", "out"))
