#!/usr/bin/env python3
"""sdgateway benchmark: host time of whole workloads, and a traced run per layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload mass_reboot --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Each run repeats the workload's seeded input until `--seconds` have
passed, with a fresh set-up every repeat, and reports medians.  Host time
is the performance number, scaled to a reference host speed measured
throughout every repeat (see `ScaledClock`); the simulated delays
(`AssociationDelay`, `RecoveryDelay`) are the model's results and only
enter the correctness digest.  `--trace 0` reports the end-to-end metrics.  `--trace 1`
alternates untraced and traced repeats and reports the per-layer metrics
of the traced ones, with the tracing overhead.

Before the result it prints every metric with its unit, the spread and
sample count of the timings, failed operations with their base and by
type, and the sha256 digests of the workload's traces and metrics CSVs
and of the bundled scenarios.  The last line is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.

The run refuses `python -O`, which strips the program's `assert`
invariants, and exits non-zero without a result when the checkout has no
`src/sdgateway` to measure.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPANS_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("sweep_states", "mass_reboot", "observe_stream", "lossy_mix")
MIN_REPEATS = 3  # of each kind, untraced and traced, in one run
SETUPS_PER_REPEAT = 5
# A run always ends in time: MAX_OVERRUN_S after `--seconds` it stops
# and reports a timeout, as it still has too few repeats.  A traced repeat
# may take TRACED_BUDGET_FACTOR times the workload's per-repeat budget.
MAX_OVERRUN_S = 70.0
TRACED_BUDGET_FACTOR = 3

END_TO_END = {"setup_s": "s", "run_s": "s", "gw_frames_per_s": "1/s", "peak_rss_mb": "MB"}

# Span -> the statistics reported for it, as `<span>.<statistic>`.
SPAN_STATS = {
    "coap.decode": ("calls", "self_s", "us_p50"),
    "coap.encode": ("calls", "self_s"),
    "coap.summarize": ("calls",),
    "directory.intercept_in": ("calls", "self_s", "us_p50", "us_p99"),
    "directory.intercept_lln": ("calls", "self_s", "us_p50", "us_p99"),
    "directory.entries_for_server": ("calls", "self_s"),
    "gateway.on_frame": ("calls", "self_s", "us_p50", "us_p99"),
    "gateway.send_replay": ("calls",),
    "recovery.on_registration": ("calls", "self_s", "us_p50", "us_p99"),
    "recovery.build_plan": ("calls", "self_s"),
    "lln.send": ("calls", "self_s"),
    "lln.node_on_frame": ("calls", "self_s", "us_p50", "us_p99"),
    "lln.client_on_frame": ("calls", "self_s", "us_p50", "us_p99"),
    "sim.event": ("self_s",),
    "sim.run": ("self_s",),
    "sim.trace.emit": ("calls", "self_s"),
    "harness.build_world": ("calls", "self_s"),
    "harness.evaluate": ("self_s",),
    "harness.collect_metrics": ("self_s",),
}
_STAT_UNITS = {"calls": "count", "self_s": "s", "us_p50": "us", "us_p99": "us"}

# Per-layer values that are not a plain span statistic: probes inside
# spans, counts from the program's own trace records and recovery reports
# of a traced repeat, and ratios.
DERIVED = {
    "coap.decodes_per_frame": "ratio",
    "coap.malformed": "count",
    "directory.effects.created": "count",
    "directory.effects.updated": "count",
    "directory.effects.removed": "count",
    "directory.effects.none": "count",
    "directory.useful_ratio": "ratio",
    "directory.entries_max": "count",
    "gateway.consumed": "count",
    "gateway.inject_retransmits": "count",
    "recovery.steps": "count",
    "recovery.steps_acked": "count",
    "recovery.steps_timed_out": "count",
    "recovery.aborted": "count",
    "recovery.acked_ratio": "ratio",
    "lln.drops.loss": "count",
    "lln.drops.node_down": "count",
    "lln.drops.booting": "count",
    "lln.client_retransmits": "count",
    "lln.notify_retransmits": "count",
    "lln.reg_retransmits": "count",
    "sim.events": "count",
    "sim.trace.records": "count",
    "sim.trace.render_s": "s",
    "bench.trace_overhead": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{span}.{stat}": _STAT_UNITS[stat]
             for span, stats in SPAN_STATS.items() for stat in stats}
    units.update(DERIVED)
    return units


def load_program() -> None:
    """Import sdgateway from this checkout's `src`, never from elsewhere."""
    if not (SRC / "sdgateway" / "__init__.py").is_file():
        raise SystemExit(f"error: no sdgateway sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import sdgateway
    if Path(sdgateway.__file__).resolve().parent != (SRC / "sdgateway").resolve():
        raise SystemExit(f"error: imported sdgateway from {sdgateway.__file__}")


# -- measuring -------------------------------------------------------------------

# On a shared virtual machine the same work can run twice as slow, in
# swings of a few tenths of a second (seen on a 2-vCPU VM with Python
# 3.11), which moves raw medians by more than a regression bound can
# allow.  So a short fixed pure-Python probe that uses nothing of
# sdgateway runs about every PROBE_EVERY_S of timed host time, between
# steps of the simulation, and each stretch of host time between two
# probes is scaled to the speed at which the probe takes
# REFERENCE_PROBE_S.  Probe time itself is not counted.  The raw host
# medians are printed beside the scaled ones.
REFERENCE_PROBE_S = 0.0016
PROBE_ITERATIONS = 4000
PROBE_EVERY_S = 0.04


def probe_s() -> float:
    """Host seconds of the probe: dict, tuple, str and call work of the
    kind the simulator does."""
    t0 = time.perf_counter()
    table: dict = {}
    for i in range(PROBE_ITERATIONS):
        key = (i & 1023, "k")
        table[key] = table.get(key, 0) + len(f"{i}:{key[0]}")
    return time.perf_counter() - t0


class ScaledClock:
    """Host time from creation to `stop()`, raw and scaled to the
    reference speed.  `tick()` may be called often; it probes the host
    speed once PROBE_EVERY_S of host time has passed since the last probe."""

    def __init__(self) -> None:
        self.host_s = self.scaled_s = 0.0
        self._probe = probe_s()
        self._since = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._since >= PROBE_EVERY_S:
            self.stop()

    def stop(self) -> None:
        stretch = time.perf_counter() - self._since
        probe = probe_s()
        self.host_s += stretch
        self.scaled_s += stretch * REFERENCE_PROBE_S / ((self._probe + probe) / 2)
        self._probe = probe
        self._since = time.perf_counter()


def one_repeat(workload, seed: int, tracer, with_digest: bool) -> dict:
    """Set up and run the workload's input once.  Set-up is input
    generation plus building and scheduling every world; an untraced
    repeat sets up SETUPS_PER_REPEAT times, runs the last and keeps every
    set-up time, because one set-up is short and noisy."""
    import workloads as W

    setups = []
    if tracer is not None:
        tracer.install()
    try:
        for _ in range(1 if tracer is not None else SETUPS_PER_REPEAT):
            prepared = None
            gc.collect()
            setup = ScaledClock()
            prepared = [W.prepare(sc) for sc in workload.generate(seed)]
            setup.stop()
            setups.append(setup)
        run = ScaledClock()
        for p in prepared:
            W.execute(p, run.tick)
        run.stop()
        digest = W.digest(prepared) if with_digest else None
    finally:
        if tracer is not None:
            tracer.uninstall()
    attempted, failed = 0, Counter()
    for p in prepared:
        n, by_type = W.operations(p)
        attempted += n
        failed.update(by_type)
    return {"host_setup_s": [c.host_s for c in setups], "host_run_s": run.host_s,
            "setup_s": [c.scaled_s for c in setups], "run_s": run.scaled_s,
            "digest": digest,
            "attempted": attempted, "failed": failed,
            "frames": W.gateway_frames(prepared), "prepared": prepared,
            "errors": [p.error_text for p in prepared if p.error_text]}


def bundled_gate() -> tuple[bool, list[str]]:
    """Run each bundled scenario twice: assertions hold, digests agree."""
    import sdgateway
    from sdgateway.harness import csv_text, run_scenario

    ok, lines = True, []
    for path in sorted((Path(sdgateway.__file__).parent / "scenarios").glob("*.scn")):
        digests, failures = [], []
        for _ in range(2):
            try:
                result = run_scenario(path)
            except Exception as exc:  # a gate failure, by type; the run goes on
                failures.append(f"{type(exc).__name__}: {exc}")
                digests.append(f"error:{type(exc).__name__}")
                continue
            failures += result.failures
            h = hashlib.sha256(result.world.sim.trace.text().encode())
            h.update(csv_text(result.metrics).encode())
            digests.append(h.hexdigest())
        agree = digests[0] == digests[1]
        ok &= agree and not failures
        note = "2 runs agree" if agree else f"RUNS DIFFER: {digests[1]}"
        if failures:
            note += " ASSERTIONS FAILED: " + "; ".join(failures)
        lines.append(f"digest {path.name} sha256={digests[0]} {note}")
    return ok, lines


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat the workload until `seconds` have passed (at least
    MIN_REPEATS of each kind), or until one repeat overruns its budget."""
    import tracer as T
    import workloads as W

    workload = W.WORKLOADS[name]
    gate_ok, gate_lines = bundled_gate()
    plain, traced, tracers, traced_worlds = [], [], [], []
    timeout = None
    started = time.perf_counter()
    deadline = started + seconds
    give_up = deadline + MAX_OVERRUN_S
    while True:
        use_tracer = trace and len(plain) > len(traced)
        tr = T.Tracer() if use_tracer else None
        rep = one_repeat(workload, seed, tr, with_digest=use_tracer or len(plain) < 2)
        worlds = rep.pop("prepared")
        if use_tracer:
            traced_worlds = worlds  # the latest traced repeat's, for output_counts
            rep["percentiles_us"] = tr.percentiles_us()
            tr.durations.clear()
            if tracers:
                tracers[-1].spans.clear()  # only the last repeat's spans are written
            traced.append(rep)
            tracers.append(tr)
        else:
            plain.append(rep)
        took = rep["host_setup_s"][-1] + rep["host_run_s"]
        if took > workload.budget_s * (TRACED_BUDGET_FACTOR if use_tracer else 1):
            timeout = f"one repeat took {took:.1f} s, over the {workload.budget_s:.0f} s budget"
            break
        enough = len(plain) >= MIN_REPEATS and (not trace or len(traced) >= MIN_REPEATS)
        now = time.perf_counter()
        if enough and now >= deadline:
            break
        if now >= give_up:
            timeout = (f"only {len(plain)}+{len(traced)} repeats in "
                       f"{now - started:.0f} s")
            break
    if traced:
        SPANS_DIR.mkdir(exist_ok=True)
        tracers[-1].write_spans(SPANS_DIR / f"spans-{name}-seed{seed}.tsv")
    return {"workload": workload, "seed": seed, "plain": plain, "traced": traced,
            "tracers": tracers, "traced_worlds": traced_worlds, "timeout": timeout,
            "gate_ok": gate_ok, "gate_lines": gate_lines}


# -- reporting -------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def layer_metrics(m: dict) -> dict[str, float]:
    """Per-layer values: times are medians over the traced repeats, counts
    come from the traced repeats (and must agree between them)."""
    tracers = m["tracers"]
    if not tracers:  # timed out before a traced repeat
        return {name: 0.0 for name in per_layer_units()}
    last = tracers[-1]
    values: dict[str, float] = {}
    for span, stats in SPAN_STATS.items():
        for stat in stats:
            if stat == "calls":
                value = last.calls[span]
            elif stat == "self_s":
                value = statistics.median(t.self_s[span] for t in tracers)
            else:
                index = ("us_p50", "us_p99").index(stat)
                value = statistics.median(r["percentiles_us"][span][index]
                                          for r in m["traced"])
            values[f"{span}.{stat}"] = value
    values.update(output_counts(m["traced_worlds"]))
    sends = last.calls["lln.send"]
    values["coap.decodes_per_frame"] = last.calls["coap.decode"] / sends if sends else 0.0
    values["coap.malformed"] = last.malformed
    for kind in ("created", "updated", "removed", "none"):
        values[f"directory.effects.{kind}"] = last.effects[kind]
    intercepts = sum(last.effects.values())
    useful = intercepts - last.effects["none"]
    values["directory.useful_ratio"] = useful / intercepts if intercepts else 0.0
    values["directory.entries_max"] = last.entries_max
    values["sim.events"] = last.calls["sim.event"]
    values["sim.trace.render_s"] = statistics.median(
        t.self_s["sim.trace.render"] for t in tracers)
    values["bench.trace_overhead"] = (statistics.median(r["run_s"] for r in m["traced"])
                                      / statistics.median(r["run_s"] for r in m["plain"]))
    return values


def output_counts(prepared) -> dict[str, float]:
    """Counts from the trace records and recovery reports of one repeat."""
    kinds: Counter = Counter()
    reg_retransmits = 0
    for p in prepared:
        for _, kind, fields in p.trace_records():
            if kind == "drop":
                kinds["drop:" + str(fields.get("why"))] += 1
            elif kind == "assoc":
                reg_retransmits += int(fields["transmissions"]) - 1
            elif kind == "boot_failed":
                reg_retransmits += int(fields["retries"])
            else:
                kinds[kind] += 1
    steps = acked = timed_out = aborted = 0
    for p in prepared:
        if p.world is None:
            continue
        for report in p.world.gateway.recovery.reports:
            aborted += report.aborted
            for outcome in report.outcomes:
                steps += 1
                acked += outcome.outcome.value == "acked"
                timed_out += outcome.outcome.value == "timed_out"
    return {
        "gateway.consumed": kinds["consume"],
        "gateway.inject_retransmits": kinds["inject_retransmit"],
        "recovery.steps": steps,
        "recovery.steps_acked": acked,
        "recovery.steps_timed_out": timed_out,
        "recovery.aborted": aborted,
        "recovery.acked_ratio": acked / steps if steps else 0.0,
        "lln.drops.loss": kinds["drop:loss"],
        "lln.drops.node_down": kinds["drop:node-down"],
        "lln.drops.booting": kinds["drop:blocked-booting"],
        "lln.client_retransmits": kinds["client_retransmit"],
        "lln.notify_retransmits": kinds["retransmit"],
        "lln.reg_retransmits": reg_retransmits,
        "sim.trace.records": sum(len(p.trace_records()) for p in prepared),
    }


def summarize_run(m: dict, trace: bool) -> tuple[list[str], dict]:
    workload, plain, traced = m["workload"], m["plain"], m["traced"]
    reps = plain + traced
    lines = []
    attempted = sum(r["attempted"] for r in reps)
    failed: Counter = Counter()
    for r in reps:
        failed.update(r["failed"])
    n_failed = sum(failed.values())
    digests = sorted({r["digest"] for r in reps if r["digest"]})
    same_shape = len({(r["frames"], r["attempted"], tuple(sorted(r["failed"].items())))
                      for r in reps}) == 1
    same_counts = len({tuple(sorted(t.calls.items())) for t in m["tracers"]}) <= 1
    deterministic = len(digests) == 1 and same_shape and same_counts
    correct = (m["gate_ok"] and deterministic and m["timeout"] is None
               and (workload.failures_expected or n_failed == 0))

    name, seed = workload.name, m["seed"]
    frames = plain[0]["frames"]
    lines.append(f"workload {name} seed {seed}: {frames} gateway frames and "
                 f"{plain[0]['attempted']} operations per repeat")
    run_q = quartiles([r["run_s"] for r in plain])
    setup_samples = [s for r in plain for s in r["setup_s"]]
    setup_q = quartiles(setup_samples)
    host_run_q = quartiles([r["host_run_s"] for r in plain])
    host_setup_q = quartiles([s for r in plain for s in r["host_setup_s"]])
    for label, (q1, q2, q3), (h1, h2, h3), n in (
            ("setup_s", setup_q, host_setup_q, len(setup_samples)),
            ("run_s", run_q, host_run_q, len(plain))):
        lines.append(f"{label} {q2:.6f} s at reference speed (median; q1 {q1:.6f}, "
                     f"q3 {q3:.6f}; n={n}); unscaled host {h2:.6f} s "
                     f"(q1 {h1:.6f}, q3 {h3:.6f})")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": setup_q[1], "run_s": run_q[1],
               "gw_frames_per_s": frames / run_q[1], "peak_rss_mb": peak_mb}
    lines.append(f"gw_frames_per_s {metrics['gw_frames_per_s']:.1f} 1/s "
                 f"({frames} frames / median run_s)")
    lines.append(f"peak_rss_mb {peak_mb:.1f} MB")
    by_type = ", ".join(f"{k}={v}" for k, v in sorted(failed.items())) or "none"
    lines.append(f"failed_ratio {n_failed / attempted:.4f} ({n_failed}/{attempted} "
                 f"operations failed; by type: {by_type})")
    for text in sorted({e for r in reps for e in r["errors"]})[:1]:
        lines.append("first error:\n" + text.rstrip())
    lines.append(f"digest {name} seed={seed} sha256={digests[0] if digests else '-'} "
                 + ("runs agree" if deterministic
                    else f"RUNS DIFFER ({len(digests)} digests)"))
    lines += m["gate_lines"]
    if m["timeout"] is not None:
        lines.append(f"TIMEOUT in {name}: {m['timeout']}; input size unchanged")
    if trace:
        missing = sorted(set(m["tracers"][-1].missing)) if m["tracers"] else []
        if missing:
            lines.append("spans not installed (function not found): " + ", ".join(missing))
            correct = False
        units = per_layer_units()
        metrics = layer_metrics(m)
        lines += [f"{k} {v:.6g} {units[k]}" for k, v in metrics.items()]
        lines.append(f"traced repeats n={len(traced)}; spans of the last one in "
                     f"{SPANS_DIR.relative_to(ROOT)}/spans-{name}-seed{seed}.tsv")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    result = {"correct": bool(correct), "attempted": attempted, "failed": n_failed,
              "metrics": metrics}
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("error: refusing to run under python -O / PYTHONOPTIMIZE, which strips "
              "the assert invariants a measurement must keep", file=sys.stderr)
        return 2
    load_program()

    if args.workload == "all":
        return run_all(args)
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        lines, result = summarize_run(m, bool(args.trace))
    except Exception as exc:  # outside any one run: a failed workload, by type
        lines = [f"workload {args.workload} failed outside a run: {type(exc).__name__}",
                 traceback.format_exc().rstrip()]
        result = failed_result()
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def failed_result() -> dict:
    """The result of a workload that could not be measured: one operation,
    failed, and no metrics."""
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def run_all(args) -> int:
    """Each workload in its own process, so each reports its own peak
    memory; the last line combines them as `<workload>.<metric>`."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        try:
            results[name] = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode != 0:
                raise ValueError
        except (IndexError, ValueError):
            print(f"workload {name} exited with code {proc.returncode} "
                  "and no result", flush=True)
            results[name] = failed_result()
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items()
                    for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
