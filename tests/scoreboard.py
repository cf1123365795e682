"""The correctness scoreboard: the Baseline figures of ROADMAP.md, from
runs of the lossy scenarios.

It prints four things:

- criterion 4's generator (`worldutil.random_interaction_scenario`) at
  seeds 0-59 and loss 0.05, 0.1 and 0.25: per loss, the failing
  `restored` checks and the aborts, each abort with its reason;
- both bundled scenarios at seeds 1-24 and loss 0.1 and 0.25: how many
  runs pass, fail and abort, in all and for the runs of seeds 1-12, which
  `lossy_pins.tsv` pins;
- the trace line where `fig12_19.scn`, as bundled, counts a piggy-backed
  registration response as a notification retransmission (`ret=1`), or
  that there is none;
- ROADMAP item 12's shape sweep: 360 shapes of one client request to a
  node that holds `cfg/a`, `mod0` in flash and the loader `ldr`, without
  loss, then `snapshot`, a crash and `restored`.  Per family of shapes,
  how many fail `restored`, and how many leave a directory entry whose
  claim the node does not hold at the snapshot: a PUT entry's value is the
  node's resource, an OBSERVE entry has its observer, a BIND entry its
  binding and a DEPLOY entry its loaded module.  Then how many shapes fail
  either check.

pytest does not collect this file.  Run from the root of a source
checkout:

    PYTHONPATH=src python tests/scoreboard.py
"""

from __future__ import annotations

import importlib.resources
import itertools
import sys
from collections import Counter
from pathlib import Path
from typing import NamedTuple, Optional

from lossy_pins import run
from worldutil import random_interaction_scenario
from sdgateway.coap import DELETE, GET, POST, PUT, BindingInfo, Block1
from sdgateway.directory import EntryType
from sdgateway.harness import CLIENT_ADDR, NODE_ADDR, ScenarioRun
from sdgateway.scenario import load_scenario, parse_scenario

BUNDLED = ("fig12_19.scn", "bind_deploy.scn")


def check_kind(name: str) -> str:
    """The kind of a check named like `L0[18500 restored n1]`."""
    return name.partition("[")[2].split()[1]


def bundled(name: str):
    return load_scenario(Path(importlib.resources.files("sdgateway") / "scenarios" / name))


def generator_lines() -> list[str]:
    lines = []
    for loss in (0.05, 0.1, 0.25):
        mismatches, aborts = 0, Counter()
        for seed in range(60):
            sc = random_interaction_scenario(seed)
            sc.loss = loss
            result, abort = run(sc)
            if abort is not None:
                aborts[abort] += 1
            mismatches += sum(1 for name, problem in result.assertions
                              if problem is not None and check_kind(name) == "restored")
        why = "; ".join(f"{n} {reason}" for reason, n in sorted(aborts.items()))
        lines.append(f"generator loss={loss}: {mismatches} restored mismatches, "
                     f"{sum(aborts.values())} aborts" + (f" ({why})" if why else ""))
    return lines


def bundled_lines() -> list[str]:
    every, pinned = Counter(), Counter()
    for name in BUNDLED:
        for seed in range(1, 25):
            for loss in (0.1, 0.25):
                sc = bundled(name)
                sc.seed, sc.loss = seed, loss
                result, abort = run(sc)
                outcome = "abort" if abort is not None else "pass" if result.ok else "fail"
                every[outcome] += 1
                if seed <= 12:
                    pinned[outcome] += 1
    return [f"bundled {label}: {c['pass']} pass, {c['fail']} fail, {c['abort']} abort"
            for label, c in (("seeds 1-24", every), ("seeds 1-12", pinned))]


def ret1_line() -> str:
    result, abort = run(bundled("fig12_19.scn"))
    if abort is not None:
        return f"fig12_19.scn aborted: {abort}"
    found = [line.strip() for line in result.world.sim.trace.iter_lines()
             if " sd dir=lln " in line and line.endswith(" ret=1")]
    return f"fig12_19.scn ret=1: {found[0]}" if found else "fig12_19.scn: no ret=1"


# The set-up of every shape: the request goes out at 3,000 ms, and a PUT of
# the same path at 1,500 ms when the shape has one.
SHAPE_BASE = f"""version 1
settle 0
node n1 {NODE_ADDR}
client c1 {CLIENT_ADDR}
resource n1 cfg/a 0
flash n1 mod0 image
assert 6000 snapshot n1
at 6500 crash n1 down=400
assert 20000 restored n1
"""
SHAPE_BINDING = BindingInfo("aaaa::c30c:0:0:9", "a/led")


FAMILIES = ("DELETE", "POST load", "Block1 PUT", "Block1 POST", "GET missing path", "other")


class Shape(NamedTuple):
    method: int
    observe: Optional[int]
    block1: bool  # one final block
    file: bool  # `?file=mod0`
    path: str  # the default resource, a missing path or the loader
    binding: bool
    put_before: bool

    def family(self) -> str:
        if self.method == DELETE:
            return "DELETE"
        if self.method == POST and not self.block1:
            return "POST load"
        if self.block1 and self.path != "ldr" and self.method != GET:
            return "Block1 PUT" if self.method == PUT else "Block1 POST"
        if self.method == GET and self.path != "cfg/a" and not self.put_before:
            return "GET missing path"
        return "other"


def shapes():
    for method, observe, block1, file, path, put_before in itertools.product(
            (GET, POST, PUT, DELETE), (None, 0, 1), (False, True), (False, True),
            ("cfg/a", "no/such", "ldr"), (False, True)):
        for binding in (False, True) if method == GET else (False,):
            yield Shape(method, observe, block1, file, path, binding, put_before)


def holds(node, e) -> bool:
    """Whether `node` holds what its directory entry `e` claims."""
    o = e.request.options
    if e.entry_type is EntryType.PUT:
        return node.resources.get(e.uri_path) == e.request.payload
    if e.entry_type is EntryType.OBSERVE:
        return (e.uri_path, e.client) in node.observers
    if e.entry_type is EntryType.BIND:
        return (e.uri_path, o.binding.dest_addr, o.binding.dest_resource) in node.bindings
    return o.query_value("file") in node.loaded_modules


def run_shape(shape: Shape) -> tuple[bool, bool]:
    """Whether the shape fails `restored`, and whether a claim diverges at
    the snapshot."""
    run = ScenarioRun(parse_scenario(SHAPE_BASE))
    client, sim = run.world.clients["c1"], run.world.sim
    if shape.put_before:
        sim.schedule_at(1500.0, lambda: client._request(NODE_ADDR, PUT, shape.path,
                                                         payload=b"1"))
    sim.schedule_at(3000.0, lambda: client._request(
        NODE_ADDR, shape.method, shape.path,
        payload=b"7" if shape.method in (PUT, POST) else b"",
        observe=shape.observe,
        block1=Block1(0, False, 16) if shape.block1 else None,
        uri_query=("file=mod0",) if shape.file else (),
        binding=SHAPE_BINDING if shape.binding else None))
    node, directory, diverged = run.world.nodes["n1"], run.world.gateway.directory, []
    sim.schedule_at(6000.0, lambda: diverged.append(not all(
        holds(node, e) for e in directory.entries_for_server(NODE_ADDR))))
    run.advance()
    return not run.ok, diverged[0]  # a snapshot check never fails


def shape_lines() -> list[str]:
    total, restored, claims, either = 0, Counter(), Counter(), 0
    for shape in shapes():
        failed, diverged = run_shape(shape)
        total += 1
        restored[shape.family()] += failed
        claims[shape.family()] += diverged
        either += failed or diverged

    def by_family(c: Counter) -> str:
        return f"{sum(c.values())} (" + ", ".join(f"{f} {c[f]}" for f in FAMILIES if c[f]) + ")"

    return [f"shapes restored failures: {by_family(restored)}",
            f"shapes claim divergences: {by_family(claims)}",
            f"shapes failing either check: {either} of {total}"]


def main() -> int:
    for line in generator_lines() + bundled_lines() + [ret1_line()] + shape_lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
