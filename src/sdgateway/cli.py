"""Command line front end: run a scenario file or sweep a parameter."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import SWEEP_PARAMS, check_sweep, default_out_dir, run_scenario, sweep, write_csv
from .lln import RDC
from .scenario import ParseError, load_scenario


def _parse_range(text: str, param: str):
    if param == "rdc":
        names = text.split(",") if "," in text else [text]
        return [RDC(name.strip()) for name in names]
    if ".." in text:
        lo, _, hi = text.partition("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",")]


def _cmd_run(args) -> int:
    out_dir = Path(args.out) if args.out else default_out_dir()
    try:
        sc = load_scenario(args.scenario)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        print(f"error: cannot read {args.scenario}: {reason}", file=sys.stderr)
        return 2
    result = run_scenario(sc, interception=not args.no_intercept,
                          measure_overhead=args.measure_overhead, out_dir=out_dir,
                          trace_path=Path(args.trace) if args.trace else None)
    for name, problem in result.assertions:
        status = "ok  " if problem is None else "FAIL"
        detail = "" if problem is None else f"  ({problem})"
        print(f"{status} {name}{detail}")
    print(f"scenario {result.scenario.scenario_id}: {len(result.metrics)} metric rows, "
          f"artifacts in {out_dir}")
    if result.flagged:
        print("warning: recovery included timed-out or aborted steps")
    if not result.ok:
        print(f"{len(result.failures)} assertion(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args) -> int:
    try:
        values = _parse_range(args.range, args.param)
        check_sweep(args.param, values, args.reps, hops=args.hops, state_count=args.states)
    except ValueError as exc:
        print(f"bad range: {exc}", file=sys.stderr)
        return 2
    out_path = Path(args.out) if args.out else default_out_dir() / "sweep.csv"
    rdcs = [RDC(args.rdc)] if args.rdc != "both" else [RDC.NULLRDC, RDC.CONTIKIMAC]
    records = []
    if args.param == "rdc":
        records.extend(sweep("rdc", values, args.reps, args.seed,
                             hops=args.hops, state_count=args.states))
    else:
        for rdc in rdcs:
            records.extend(sweep(args.param, values, args.reps, args.seed,
                                 hops=args.hops, rdc=rdc, state_count=args.states))
    write_csv(out_path, records)
    print(f"wrote {len(records)} rows to {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdgw",
        description="Crash-recovery gateway simulator: run scenarios, sweep parameters.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario file")
    run_p.add_argument("scenario", help="path to a .scn scenario file")
    run_p.add_argument("--out", help="artifact directory (default $SDGATEWAY_OUT_DIR or ./out)")
    run_p.add_argument("--trace", help="also write the event trace to this file")
    run_p.add_argument("--no-intercept", action="store_true",
                       help="disable the inspection hook (overhead baseline)")
    run_p.add_argument("--measure-overhead", action="store_true",
                       help="time the hook and add an InterceptionOverhead row")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="sweep hops, state_count or rdc")
    sweep_p.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    sweep_p.add_argument("--range", required=True,
                         help="a..b, comma list, or rdc names for --param rdc")
    sweep_p.add_argument("--reps", type=int, default=30)
    sweep_p.add_argument("--seed", type=int, default=1)
    sweep_p.add_argument("--hops", type=int, default=3, help="fixed hop count")
    sweep_p.add_argument("--rdc", default="nullrdc",
                         choices=["nullrdc", "contikimac", "both"])
    sweep_p.add_argument("--states", type=int, default=3, help="fixed state count")
    sweep_p.add_argument("--out", help="CSV output path")
    sweep_p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
