"""The correctness scoreboard: the Baseline figures of ROADMAP.md, from
runs of the lossy scenarios.

It prints three things:

- criterion 4's generator (`worldutil.random_interaction_scenario`) at
  seeds 0-59 and loss 0.05, 0.1 and 0.25: per loss, the failing
  `restored` checks and the aborts, each abort with its reason;
- both bundled scenarios at seeds 1-24 and loss 0.1 and 0.25: how many
  runs pass, fail and abort, in all and for the runs of seeds 1-12, which
  `lossy_pins.tsv` pins;
- the trace line where `fig12_19.scn`, as bundled, counts a piggy-backed
  registration response as a notification retransmission (`ret=1`), or
  that there is none.

pytest does not collect this file.  Run from the root of a source
checkout:

    PYTHONPATH=src python tests/scoreboard.py
"""

from __future__ import annotations

import importlib.resources
import sys
from collections import Counter
from pathlib import Path

from lossy_pins import run
from worldutil import random_interaction_scenario
from sdgateway.scenario import load_scenario

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


def main() -> int:
    for line in generator_lines() + bundled_lines() + [ret1_line()]:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
