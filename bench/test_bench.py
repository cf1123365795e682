"""Self-tests of the benchmark: run with `python3 -m pytest bench/test_bench.py`.

They keep the benchmark honest as the program changes: every named span
must still fire (a renamed function would otherwise zero its layer),
tracing must not change what the program does, the runner must match
`harness.run_scenario`, and failures must be counted, not fatal.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402
from sdgateway.harness import csv_text, run_scenario  # noqa: E402
from sdgateway.scenario import Scenario, load_scenario  # noqa: E402

SCENARIOS = ROOT / "src" / "sdgateway" / "scenarios"


def _run(scenarios, tracer=None):
    if tracer is not None:
        tracer.install()
    try:
        prepared = [W.prepare(sc) for sc in scenarios]
        for p in prepared:
            W.execute(p)
        return prepared, W.digest(prepared)
    finally:
        if tracer is not None:
            tracer.uninstall()


def test_every_named_span_fires_on_a_tiny_run():
    tracer = T.Tracer()
    _run(W.mass_reboot(1, nodes=2), tracer)
    assert tracer.missing == []
    silent = [name for name in T.SPAN_NAMES if tracer.calls[name] == 0]
    assert silent == []
    assert set(run.SPAN_STATS) <= set(T.SPAN_NAMES)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    listed = {w["name"] for w in spec["workloads"]}
    assert listed <= set(W.WORKLOADS)
    assert not any(W.WORKLOADS[name].failures_expected for name in listed)


def test_tracing_changes_neither_outputs_nor_program():
    _, plain_digest = _run(W.observe_stream(3, nodes=3, stream=40))
    tracer = T.Tracer()
    _, traced_digest = _run(W.observe_stream(3, nodes=3, stream=40), tracer)
    assert plain_digest == traced_digest
    for name, (owner, attr) in T.SPANS.items():
        assert getattr(owner, attr).__qualname__ != "Tracer.span.<locals>.traced", name


def test_runner_matches_run_scenario():
    for path in sorted(SCENARIOS.glob("*.scn")):
        reference = run_scenario(path)
        (p,), _ = _run([load_scenario(path)])
        assert p.world.sim.trace.text() == reference.world.sim.trace.text()
        assert csv_text(p.metrics) == csv_text(reference.metrics)
        assert [problem for _, problem in p.outcomes] == \
            [problem for _, problem in reference.assertions]


def test_generators_are_seeded():
    for workload in W.WORKLOADS.values():
        first, second = workload.generate(5), workload.generate(5)
        assert repr(first) == repr(second)
        assert repr(first) != repr(workload.generate(6))


def test_listed_workloads_pass_their_checks_at_small_size():
    for scenarios in (W.mass_reboot(2, nodes=4), W.observe_stream(2, nodes=4, stream=80),
                      W.sweep_states(2)[::10]):
        prepared, _ = _run(scenarios)
        for p in prepared:
            attempted, failed = W.operations(p)
            assert attempted > 0 and failed == {}, (p.scenario.scenario_id, p.outcomes)


def test_a_run_that_raises_is_counted_by_type():
    sc = W.mass_reboot(1, nodes=1)[0]
    # A crash that lands while the node is still booting trips the node's
    # `crash requires a running node` assertion inside the event loop.
    sc.events.insert(0, W._event(0.0, "crash", node="n0", down=100.0))
    (p,), _ = _run([sc])
    assert p.error == "AssertionError"
    assert W.operations(p) == (1, {"AssertionError": 1})


def test_a_setup_that_raises_is_counted_by_type(monkeypatch):
    def broken(sc):
        raise KeyError("no such node")
    monkeypatch.setattr(W.harness, "build_world", broken)
    (p,), _ = _run(W.mass_reboot(1, nodes=2))
    assert p.world is None and p.error == "KeyError"
    assert W.operations(p) == (2, {"KeyError": 2})


def test_a_bundled_scenario_that_raises_fails_the_gate(monkeypatch):
    def broken(path):
        raise AssertionError("crash requires a running node")
    monkeypatch.setattr(W.harness, "run_scenario", broken)
    ok, lines = run.bundled_gate()
    assert not ok and len(lines) == len(list(SCENARIOS.glob("*.scn")))
    assert all("AssertionError: crash requires a running node" in line for line in lines)


def test_a_workload_that_raises_still_prints_a_failed_result(monkeypatch, capsys):
    def broken(*args):
        raise RuntimeError("event budget exhausted")
    monkeypatch.setattr(run, "measure", broken)
    assert run.main(["--workload", "sweep_states", "--seed", "1", "--seconds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result == run.failed_result()


def test_all_carries_on_past_a_workload_without_a_result(monkeypatch, capsys):
    ok = {"correct": True, "attempted": 2, "failed": 0,
          "metrics": {"run_s": {"value": 1.5, "unit": "s"}}}

    def fake_run(cmd, **kwargs):
        crashed = cmd[cmd.index("--workload") + 1] == "mass_reboot"
        return subprocess.CompletedProcess(cmd, 1 if crashed else 0,
                                           "Traceback\n" if crashed else json.dumps(ok) + "\n")
    monkeypatch.setattr(run.subprocess, "run", fake_run)
    assert run.main(["--workload", "all", "--seed", "1", "--seconds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] == 2 * (len(run.WORKLOAD_NAMES) - 1) + 1
    assert "observe_stream.run_s" in result["metrics"]


def test_empty_scenario_has_no_operations():
    (p,), _ = _run([Scenario()])
    assert W.operations(p) == (0, {})


def _bench(cwd, *extra, env_flags=()):
    return subprocess.run([sys.executable, *env_flags, "bench/run.py", "--workload",
                           "sweep_states", "--seed", "1", "--seconds", "1", "--trace", "0",
                           *extra], cwd=cwd, capture_output=True, text=True, timeout=60)


def test_refuses_python_O():
    out = _bench(ROOT, env_flags=("-O",))
    assert out.returncode != 0 and out.stdout == ""
    assert "python -O" in out.stderr


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _bench(tmp_path)
    assert out.returncode != 0 and out.stdout == ""
