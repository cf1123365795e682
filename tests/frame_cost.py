"""Host cost per gateway frame of the benchmark workloads, as deterministic
counts: for each workload of `bench/workloads.py`, the frames the gateway
receives, the simulator events that fire, and the calls cProfile records
over `execute` (set-up excluded) per gateway frame: calls of Python
functions and calls of builtin functions and methods (those cProfile files
under `~`) in separate columns, since the two cost very different amounts.

The counts depend only on the program and the seed, not on the host, so a
change to the per-frame path can quote them where a timing would need
many alternating runs.  cProfile counts Python functions and builtin
functions and methods, not slot wrappers such as `object.__setattr__`,
and the calls include the runner's own (`execute` calls its
`between_steps` hook 100 times per run).  Run from the root of a source
checkout:

    PYTHONPATH=src python tests/frame_cost.py --seed 1
    PYTHONPATH=src python tests/frame_cost.py --seed 1 --workload mass_reboot
"""

from __future__ import annotations

import argparse
import cProfile
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads as W  # noqa: E402
from sdgateway import coap  # noqa: E402
from sdgateway.sim import Simulator  # noqa: E402


def calls_over_execute(name: str, seed: int) -> tuple[int, int, int]:
    """(Python-function calls and builtin calls cProfile records over
    `execute`, gateway frames) of one repeat."""
    prepared = [W.prepare(sc) for sc in W.WORKLOADS[name].generate(seed)]
    # Cold codec caches, so that a count does not depend on what ran before.
    for cache in coap.OPTION_CACHES:
        cache.cache_clear()
    profile = cProfile.Profile()
    profile.enable()
    for p in prepared:
        W.execute(p)
    profile.disable()
    # Summed per profiled function; `pstats` would merge functions that share
    # a label, such as dataclasses' generated `__init__`s, in no fixed way.
    # A builtin's entry has a description for its code, not a code object.
    python = builtin = 0
    for entry in profile.getstats():
        if isinstance(entry.code, str):
            builtin += entry.callcount
        else:
            python += entry.callcount
    return python, builtin, W.gateway_frames(prepared)


def events_fired(name: str, seed: int) -> int:
    """Simulator events that fire in one repeat, counted by wrapping each
    callback where `Simulator.schedule_at` schedules it."""
    fired = 0
    schedule_at = Simulator.schedule_at

    def counting(sim, time, fn, *args):
        def event(*event_args):
            nonlocal fired
            fired += 1
            return fn(*event_args)
        return schedule_at(sim, time, event, *args)

    Simulator.schedule_at = counting
    try:
        prepared = [W.prepare(sc) for sc in W.WORKLOADS[name].generate(seed)]
        for p in prepared:
            W.execute(p)
    finally:
        Simulator.schedule_at = schedule_at
    return fired


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=tuple(W.WORKLOADS), action="append",
                        help="a workload to count (repeatable); all when omitted")
    args = parser.parse_args(argv)
    print("workload\tgw_frames\tsim_events\tpython_calls\tbuiltin_calls"
          "\tpython_per_gw_frame\tbuiltin_per_gw_frame\tcalls_per_gw_frame")
    for name in args.workload or W.WORKLOADS:
        python, builtin, frames = calls_over_execute(name, args.seed)
        events = events_fired(name, args.seed)
        print(f"{name}\t{frames}\t{events}\t{python}\t{builtin}\t{python / frames:.1f}"
              f"\t{builtin / frames:.1f}\t{(python + builtin) / frames:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
