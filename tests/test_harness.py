import functools
import hashlib
import importlib.resources
import runpy
import sys
from pathlib import Path

import pytest

import lossy_pins
from sdgateway import cli, coap, harness
from sdgateway.cli import main as cli_main
from sdgateway.harness import (
    MetricKind,
    ScenarioRun,
    canonical_recovery_scenario,
    csv_text,
    run_scenario,
    sweep,
)
from sdgateway.lln import RDC
from sdgateway.scenario import (
    ClientDecl,
    NodeDecl,
    ParseError,
    Scenario,
    ScenarioAssert,
    load_scenario,
    parse_scenario,
)
from sdgateway.sim import TRACE_KINDS, TraceRecorder

MINIMAL = """
scenario mini
version 1
seed 2
node n1 aaaa::c30c:0:0:2
resource n1 s/t 1
client c1 cccc::3
at 1000 put c1 n1 s/t 9
assert 2000 resource n1 s/t 9
"""


def bundled(name: str) -> Path:
    return Path(importlib.resources.files("sdgateway") / "scenarios" / name)


# Declares n1 and c1; the line under test is line 4.
NUMBERS_BASE = "version 1\nnode n1 aaaa::1\nclient c1 cccc::3\n"


@pytest.mark.parametrize("text,expect_line,fragment", [
    ("version 1\nbogus directive", 2, "unknown directive"),
    ("version 1\nat 100 put c9 n9 a 1", 2, "undeclared"),
    ("version 1\nnode n1 aaaa::1\nat 100 crash n1\nat 50 crash n1", 4, "nondecreasing"),
    ("version 2", 1, "unsupported scenario version"),
    ("scenario x", 1, "missing 'version'"),
    ("version 1\nnode n1 aaaa::1\nat -5 crash n1", 3, "nonnegative"),
    ("version 1\nassert 10 wat n1", 2, "unknown assertion"),
    ("version 1\nnode n1 aaaa::1\nnode n1 aaaa::2", 3, "duplicate"),
    ("version 1\nat 1 frobnicate", 2, "unknown event verb"),
    ("version 1\nseed nope", 2, "expected integer"),
] + [(NUMBERS_BASE + line, 4, fragment) for line, fragment in [
    ("at nan crash n1", "finite"),
    ("at inf crash n1", "finite"),
    ("assert nan resource n1 s/t 1", "finite"),
    ("settle inf", "finite"),
    ("at 10 crash n1 down=nan", "finite"),
    ("at 10 crash n1 down=-inf", "finite"),
    ("at 10 crash n1 down=abc", "expected number"),
    ("node n2 aaaa::2 hops=two", "expected integer"),
    ("node n2 aaaa::2 loss=lots", "expected number"),
    ("node n2 aaaa::2 loss=nan", "finite"),
    ("at 10 put c1 n1 s/t 1 cf=json", "expected integer"),
    ("at 10 observe c1 n1 s/t obs=1.5", "expected integer"),
    ("at 10 bind c1 n1 s/t dest=aaaa::2 res=a pmin=x", "expected integer"),
    ("at 10 bind c1 n1 s/t dest=aaaa::2 res=a pmax=", "expected integer"),
    ("at 10 deploy c1 n1 file=f data=d block=big", "expected integer"),
    ("at 10 notify n1 s/t counter=many", "expected integer"),
    ("hops 0", "hops must be >= 1"),
    ("loss 1.5", "loss probability"),
    ("node n2 aaaa::2 hops=0", "hops must be >= 1"),
    ("node n2 aaaa::2 loss=1.5", "loss probability"),
    ("settle -1", "settle must be nonnegative"),
    ("pacing-gap -50", "unknown directive 'pacing-gap'"),
    ("assert -5 resource n1 s/t 1", "assertion time must be nonnegative"),
    ("at 10 crash n1 down=-5", "down must be nonnegative"),
    ("at 10 put c1 n1 s/t 1 cf=70000", "content-format out of range"),
    ("at 10 observe c1 n1 s/t obs=99999999", "observe value out of range"),
    ("at 10 notify n1 s/t counter=99999999", "observe value out of range"),
    ("at 10 deploy c1 n1 file=f data=d block=17", "block1 size"),
    ("at 10 bind c1 n1 s/t dest=aaaa::2 res=a pmin=9 pmax=1", "pmin > pmax"),
    ("at 10 bind c1 n1 s/t dest=aaaa::2 res=", "dest_resource empty"),
    ("at 10 notify n1 s/t counter=1", "cancellation sentinel"),
    ("at 10 put c1 n1", "put: missing <path>"),
    ("at 10 put c1 n1 s/t", "put: missing <value>"),
    ("at 10 get c1", "get: missing <node>"),
    ("at 10 crash", "crash: missing <node>"),
    ("at 10 change n1 s/t", "change: missing <value>"),
    ("at 10 silence c1", "silence: missing <on|off>"),
    ("at 10 blackhole n1 maybe", "blackhole: expected on|off"),
    ("at 10 silence n1 on", "undeclared name 'n1'"),
    ("at 10 crash n1 dwon=5 extra", "crash: unexpected argument 'dwon=5'"),
    ("at 20 put c1 n1 s/t 1 fc=50", "put: unexpected argument 'fc=50'"),
    ("assert final resource n1", "resource: missing <path>"),
    ("assert final resource n1 s/t", "resource: missing <value>"),
    ("assert final sd-obs n1 a/b", "sd-obs: missing <counter>"),
    ("assert final sd-obs n1 a/b many", "expected integer, got 'many'"),
    ("assert final sd-count n1 abc", "expected integer, got 'abc'"),
    ("assert final sd-count n1", "sd-count: missing <count>"),
    ("assert final observer-count n1 a/b x", "expected integer, got 'x'"),
    ("assert final observer-client n1 a/b", "observer-client: missing <addr>"),
    ("assert final sd-types n1 1,x", "expected integer, got 'x'"),
    ("assert final sd-types n1 1,,2", "expected integer, got ''"),
    ("assert final sd-types n1", "sd-types: missing <types>"),
    ("assert final restored", "restored: missing <node>"),
    ("assert final snapshot c1", "undeclared name 'c1'"),
    ("assert final snapshot n1 now", "snapshot: unexpected argument 'now'"),
    ("assert final sd-count n1 1 2", "sd-count: unexpected argument '2'"),
    ("assert final resource n1 s/t 1 extra", "resource: unexpected argument 'extra'"),
    ("assert final trace-contains", "trace-contains: missing <text>"),
    ("node n2 aaaa::3 hop=3", "node: unknown key 'hop'"),
    ("node n2 aaaa::3 hops=2 lodaer=x", "node: unknown key 'lodaer'"),
    ("seed 1 2", "unexpected argument '2'"),
    ("settle 10 20", "unexpected argument '20'"),
    ("scenario a b", "unexpected argument 'b'"),
    ("client c2 cccc::4 extra", "unexpected argument 'extra'"),
    ("resource n1 a/b 5 extra", "unexpected argument 'extra'"),
    ("flash n1 f.bin data extra", "unexpected argument 'extra'"),
] + [(line.replace("LONG", "s/" + "x" * 256), "uri segment longer than 255 bytes") for line in [
    "at 10 put c1 n1 LONG 1",
    "at 10 get c1 n1 LONG",
    "at 10 observe c1 n1 LONG",
    "at 10 deregister c1 n1 LONG",
    "at 10 rst c1 n1 LONG",
    "at 10 bind c1 n1 LONG dest=aaaa::2 res=a",
    "at 10 bind c1 n1 s/t dest=aaaa::2 res=LONG",
    "at 10 change n1 LONG 1",
    "at 10 notify n1 LONG",
    "at 10 deploy c1 n1 file=f data=d loader=LONG",
    "at 10 deploy c1 n1 file=LONG data=d",
    "node n2 aaaa::2 loader=LONG",
    "resource n1 LONG 1",
]]] + [(NUMBERS_BASE + lines, line, "restored: no snapshot of 'n1' runs before it")
       for lines, line in [
    ("assert final restored n1", 4),
    ("assert 100 restored n1", 4),
    ("assert 100 restored n1\nassert 100 snapshot n1", 4),
    ("assert final snapshot n1\nassert 100 restored n1", 5),
    ("assert final restored n1\nassert final snapshot n1", 4),
    ("node n2 aaaa::2\nassert 10 snapshot n2\nassert final restored n1", 6),
    ("node n2 aaaa::2\nassert 10 snapshot n2\nassert 20 restored n1", 6),
]])
def test_parse_errors_carry_line_numbers(text, expect_line, fragment, tmp_path, capsys):
    with pytest.raises(ParseError) as err:
        parse_scenario(text)
    assert err.value.line == expect_line
    assert fragment in str(err.value)
    path = tmp_path / "bad.scn"
    path.write_text(text)
    assert cli_main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert f"parse error: line {expect_line}:" in capsys.readouterr().err


def test_a_node_loader_and_a_resource_path_are_read_as_verb_paths_are():
    sc = parse_scenario("""version 1
node n1 aaaa::c30c:0:0:2 loader=/ldr
client c1 cccc::3
resource n1 //s/t 5
at 1000 deploy c1 n1 file=m data=abc loader=/ldr
""")
    assert (sc.nodes[0].loader, list(sc.nodes[0].resources)) == ("ldr", ["s/t"])
    world = run_scenario(sc).world
    assert world.nodes["n1"].loaded_modules == {"m"}
    assert not world.sim.trace.find("client_warn")


@pytest.mark.parametrize("lines", [
    "assert 10 snapshot n1\nassert 20 restored n1",
    "assert 10 snapshot n1\nassert 10 restored n1",
    "assert 10 snapshot n1\nassert final restored n1",
    "assert final restored n1\nassert 10 snapshot n1",
    "assert final snapshot n1\nassert final restored n1",
])
def test_a_restored_check_after_a_snapshot_parses_and_holds(lines):
    result = run_scenario(parse_scenario(NUMBERS_BASE + lines))
    assert [problem for _, problem in result.assertions] == [None, None]


def test_a_hand_built_restored_check_without_a_snapshot_fails():
    sc = parse_scenario(NUMBERS_BASE)
    sc.asserts.append(ScenarioAssert(None, "restored", ["n1"], 0))  # not through the builders
    assert run_scenario(sc).assertions == [
        ("L0[final restored n1]", "restored without a prior snapshot")]


VERB_BASE = NUMBERS_BASE + "resource n1 s/t 1\n"


def test_rst_verb_cancels_the_observation_at_the_node_and_in_the_directory():
    result = run_scenario(parse_scenario(VERB_BASE + (
        "at 1000 observe c1 n1 s/t\n"
        "at 2000 rst c1 n1 s/t\n"
        "at 3000 change n1 s/t 2\n"
        "assert final observer-count n1 s/t 0\n"
        "assert final sd-count n1 0\n")))
    assert result.ok, result.failures
    trace = result.world.sim.trace
    [(_, dropped)] = trace.find("obs_drop", node="n1")
    assert dropped["reason"] == "rst" and dropped["uri"] == "s/t"
    [(_, removed)] = trace.find("sd_remove", server="aaaa::1")
    assert removed["reason"] == "rst" and removed["mid"] == dropped["mid"]


def test_silence_verb_drops_frames_to_the_client_only_while_on():
    result = run_scenario(parse_scenario(VERB_BASE + (
        "at 1000 observe c1 n1 s/t\n"
        "at 2000 silence c1 on\n"
        "at 3000 change n1 s/t 2\n"
        "at 4000 silence c1 off\n")))
    trace = result.world.sim.trace
    drops = trace.find("drop", why="client-silent", client="c1")
    assert drops and all(2000.0 < t < 4000.0 for t, _ in drops)
    # The notification's retransmission, after `off`, is received and ACKed.
    assert trace.find("retransmit", node="n1")
    last = result.world.clients["c1"].notifications[-1]
    assert last.payload == b"2" and last.time > 4000.0
    [observer] = result.world.nodes["n1"].observers.values()
    assert observer.pending is None


def test_blackhole_verb_loses_the_node_traffic_only_while_on():
    result = run_scenario(parse_scenario(VERB_BASE + (
        "at 1000 blackhole n1 on\n"
        "at 1500 get c1 n1 s/t\n"
        "at 2000 blackhole n1 off\n"
        "at 20000 put c1 n1 s/t 7\n"
        "assert 21000 resource n1 s/t 7\n")))
    assert result.ok, result.failures
    drops = result.world.sim.trace.find("drop", why="blackhole")
    assert drops and all(1000.0 < t < 2000.0 and f["dst"].startswith("aaaa::1:")
                         for t, f in drops)


def test_sd_count_check_passes_on_the_count_and_names_a_wrong_one():
    result = run_scenario(parse_scenario(VERB_BASE + (
        "at 1000 put c1 n1 s/t 5\n"
        "at 1500 observe c1 n1 s/t\n"
        "assert 3000 sd-count n1 2\n"
        "assert 3000 sd-count n1 3\n")))
    assert [problem for _, problem in result.assertions] == [None, "sd count 2 != 3"]


def test_parse_minimal_scenario_fields():
    sc = parse_scenario(MINIMAL)
    assert sc.scenario_id == "mini"
    assert sc.seed == 2
    assert len(sc.events) == 1 and sc.events[0].verb == "put"
    assert sc.events[0].args["value"] == b"9"
    assert len(sc.asserts) == 1


def test_flash_directive_preloads_the_node_flash():
    sc = parse_scenario(NUMBERS_BASE + "flash n1 f.bin hex:0102ff\nflash n1 g.bin text:hi\n")
    assert sc.nodes[0].flash == {"f.bin": b"\x01\x02\xff", "g.bin": b"hi"}
    node = harness.build_world(sc).nodes["n1"]
    assert node.flash == sc.nodes[0].flash and node.flash is not sc.nodes[0].flash


def test_empty_scenario_runs_clean():
    result = run_scenario(parse_scenario("scenario empty\nversion 1"))
    assert result.ok
    assert result.metrics == []


def test_failing_assertion_is_named():
    text = MINIMAL.replace("assert 2000 resource n1 s/t 9",
                           "assert 2000 resource n1 s/t 42")
    result = run_scenario(parse_scenario(text))
    assert not result.ok
    assert "resource n1 s/t 42" in result.failures[0]
    assert result.failures[0].startswith("L")
    with pytest.raises(Exception):
        result.raise_for_failures()


def test_metrics_csv_is_deterministic_across_reruns():
    first = run_scenario(load_scenario(bundled("fig12_19.scn")))
    second = run_scenario(load_scenario(bundled("fig12_19.scn")))
    assert csv_text(first.metrics) == csv_text(second.metrics)
    assert first.world.sim.trace.text() == second.world.sim.trace.text()


@pytest.mark.parametrize("name", ["fig12_19.scn", "bind_deploy.scn"])
def test_a_run_advanced_in_steps_matches_run_scenario(name):
    reference = run_scenario(bundled(name))
    run = ScenarioRun(load_scenario(bundled(name)))
    end = run.scenario.end_time()
    for step in range(1, 8):
        run.advance(until=end * step / 8)
    run.advance()
    assert run.finish() is run
    assert run.world.sim.trace.text() == reference.world.sim.trace.text()
    assert csv_text(run.metrics) == csv_text(reference.metrics)
    assert run.assertions == reference.assertions and run.ok


def test_csv_schema_is_stable():
    result = run_scenario(load_scenario(bundled("fig12_19.scn")))
    lines = csv_text(result.metrics).splitlines()
    assert lines[0] == "scenario,seed,metric,value,unit,hops,rdc,state_count"
    assert any(",AssociationDelay," in line and ",ms," in line for line in lines[1:])
    assert all(len(line.split(",")) == 8 for line in lines)


def test_run_artifacts_written(tmp_path):
    result = run_scenario(load_scenario(bundled("fig12_19.scn")), out_dir=tmp_path,
                          trace_path=tmp_path / "t.txt")
    assert result.ok
    assert (tmp_path / "fig12_19.metrics.csv").exists()
    assert (tmp_path / "fig12_19.trace.txt").exists()
    assert (tmp_path / "t.txt").read_text() == result.world.sim.trace.text()
    snapshots = list(tmp_path.glob("fig12_19.sd@*.txt"))
    assert snapshots, "SD snapshots at assertion points"


def test_run_with_a_trace_path_renders_the_trace_once(tmp_path, monkeypatch):
    passes = []
    iter_lines = TraceRecorder.iter_lines
    monkeypatch.setattr(TraceRecorder, "iter_lines",
                        lambda self: passes.append(1) or iter_lines(self))
    result = run_scenario(parse_scenario(MINIMAL), out_dir=tmp_path,
                          trace_path=tmp_path / "t.txt")
    assert len(passes) == 1
    text = result.world.sim.trace.text().encode()
    assert (tmp_path / "mini.trace.txt").read_bytes() == (tmp_path / "t.txt").read_bytes() == text


def test_trace_contains_check_stops_at_the_first_matching_line(monkeypatch):
    result = run_scenario(parse_scenario(MINIMAL + "assert final trace-contains recv at=gw\n"
                                         "assert final trace-contains recv at=n9\n"))
    assert [problem for _, problem in result.assertions[-2:]] == [
        None, "no trace line contains ['recv', 'at=n9']"]
    rendered = []
    monkeypatch.setattr(coap, "summarize", lambda raw: rendered.append(raw) or "")
    # The first record is a boot, which names no frame: no frame is rendered.
    check = ScenarioAssert(None, "trace-contains", ["boot", "node=n1"], 0)
    assert harness._evaluate(result.world, check, {}) is None and rendered == []


def test_canonical_scenario_recovers_all_states():
    sc = canonical_recovery_scenario(hops=2, rdc=RDC.NULLRDC, state_count=3, seed=5)
    result = run_scenario(sc)
    assert result.ok
    report = result.world.gateway.recovery.reports[0]
    assert report.steps_total == 3 and report.all_acked
    node = result.world.nodes["n1"]
    assert node.resources == {"cfg/r0": b"10", "cfg/r1": b"11", "cfg/r2": b"12"}


def test_sweep_single_value_single_rep():
    records = sweep("hops", [2], 1, seed=31)
    data = [r for r in records if "/" not in r.scenario]
    recovery_rows = [r for r in data if r.metric is MetricKind.RECOVERY_DELAY]
    assert len(recovery_rows) == 1
    summary = [r for r in records if r.scenario.endswith("/mean")]
    assert len(summary) == 2  # association + recovery means


def test_sweep_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sweep("frequency", [1], 1, seed=1)
    with pytest.raises(ValueError):
        sweep("hops", [], 1, seed=1)
    with pytest.raises(ValueError):
        sweep("hops", [1], 0, seed=1)
    with pytest.raises(ValueError, match="hops must be >= 1"):
        sweep("hops", [2, 0], 1, seed=1)
    with pytest.raises(ValueError, match="state_count must be >= 0"):
        sweep("rdc", [RDC.NULLRDC], 1, seed=1, state_count=-1)


def test_sweep_rdc_parameter():
    records = sweep("rdc", [RDC.NULLRDC, RDC.CONTIKIMAC], 2, seed=8, hops=1)
    rdcs = {r.rdc for r in records}
    assert rdcs == {"nullrdc", "contikimac"}


def test_sweep_runs_each_world_until_its_recovery_finishes(monkeypatch):
    # A 32-state recovery at contikimac over 3 hops takes about 30 s, longer
    # than the canonical scenario's 25 s settle.
    records = sweep("state_count", [8, 16, 32], 3, seed=1, hops=3, rdc=RDC.CONTIKIMAC)
    for count in (8, 16, 32):
        sid = f"recovery[hops=3,rdc=contikimac,states={count}]"
        rows = [r for r in records if r.scenario == sid]
        assert {r.state_count for r in rows} == {count}
        kinds = [r.metric for r in rows]
        assert kinds.count(MetricKind.RECOVERY_DELAY) == kinds.count(MetricKind.STATE_COUNT) == 3
        [mean] = [r for r in records if r.scenario == sid + "/mean"
                  and r.metric is MetricKind.RECOVERY_DELAY]
        if count == 32:
            assert mean.value > 25_000.0
    # A run that recovers within the canonical settle time gives the same rows.
    sc = canonical_recovery_scenario(hops=3, rdc=RDC.CONTIKIMAC, state_count=16, seed=1)
    assert [r for r in records if r.scenario == sc.scenario_id and r.seed == 1] == \
        run_scenario(sc).metrics
    monkeypatch.setattr(harness, "SWEEP_SETTLE_MS", 2000.0)
    with pytest.raises(RuntimeError, match="states=32.*recovery still active 2000 ms"):
        sweep("state_count", [32], 1, seed=1, hops=3, rdc=RDC.CONTIKIMAC)


def test_default_out_dir_honors_environment(monkeypatch, tmp_path):
    from sdgateway.harness import default_out_dir
    monkeypatch.setenv("SDGATEWAY_OUT_DIR", str(tmp_path / "artifacts"))
    assert default_out_dir() == tmp_path / "artifacts"
    monkeypatch.delenv("SDGATEWAY_OUT_DIR")
    assert str(default_out_dir()) == "out"


def test_cli_run_ok(tmp_path, capsys):
    rc = cli_main(["run", str(bundled("fig12_19.scn")), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ok  " in out and "FAIL" not in out


def test_cli_run_assertion_failure(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text(MINIMAL.replace("s/t 9\n", "s/t 1\n", 1).replace(
        "assert 2000 resource n1 s/t 9", "assert 2000 resource n1 s/t 777"))
    rc = cli_main(["run", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_module_runs_main_as_a_script(tmp_path, capsys, monkeypatch):
    # `python -m sdgateway.cli` runs afresh as `__main__` and exits with
    # `main`'s status, here a parse error's.
    bad = tmp_path / "broken.scn"
    bad.write_text("version 1\nwat\n")
    monkeypatch.setattr(sys, "argv", ["sdgw", "run", str(bad), "--out", str(tmp_path)])
    monkeypatch.delitem(sys.modules, "sdgateway.cli")
    with pytest.raises(SystemExit) as done:
        runpy.run_module("sdgateway.cli", run_name="__main__")
    assert done.value.code == 2
    assert "parse error" in capsys.readouterr().err


def test_cli_run_parse_error(tmp_path, capsys):
    bad = tmp_path / "broken.scn"
    bad.write_text("version 1\nwat\n")
    rc = cli_main(["run", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("make,reason", [
    (lambda path: None, "No such file or directory"),
    (lambda path: path.mkdir(), "Is a directory"),
    (lambda path: path.write_bytes(b"version 1\n\xff\n"), "can't decode byte 0xff"),
], ids=["missing", "directory", "not-utf-8"])
def test_cli_run_reports_a_scenario_path_it_cannot_read(make, reason, tmp_path, capsys):
    path = tmp_path / "unreadable.scn"
    make(path)
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: ") and reason in err


def _no_run(*_args, **_kwargs):
    raise AssertionError("a run started with an output it cannot write")


@pytest.mark.parametrize("argv,path,reason", [
    (["run", "mini.scn", "--out", "out", "--trace", "missing/t.txt"], "missing/t.txt",
     "No such file or directory"),
    (["run", "mini.scn", "--out", "file"], "file", "File exists"),
    (["sweep", "--param", "hops", "--range", "1", "--reps", "1", "--out", "file/s.csv"], "file",
     "File exists"),
], ids=["run-trace-in-missing-dir", "run-out-is-a-file", "sweep-out-under-a-file"])
def test_cli_reports_an_output_it_cannot_write_before_any_run(argv, path, reason, tmp_path,
                                                              capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_scenario", _no_run)
    monkeypatch.setattr(harness, "run_scenario", _no_run)
    Path("mini.scn").write_text(MINIMAL)
    Path("file").write_text("")
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {path}: {reason}\n" and captured.out == ""


def test_cli_run_wraps_the_observe_counter_past_2_24(tmp_path, capsys):
    # RFC 7641 section 4.4: the value after 16777215 is 0, and 1, the
    # deregister value, is skipped.
    text = MINIMAL + ("at 1000 observe c1 n1 s/t\n"
                      "at 2000 notify n1 s/t counter=16777215\n"
                      "at 3000 notify n1 s/t\n"
                      "at 4000 notify n1 s/t\n")
    path = tmp_path / "wrap.scn"
    path.write_text(text)
    assert cli_main(["run", str(path), "--out", str(tmp_path)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    result = run_scenario(parse_scenario(text))
    assert result.ok, result.failures
    notified = [(time, f["obs"]) for time, f in result.world.sim.trace.find("notify", node="n1")]
    assert notified[1:] == [(2000.0, 16777215), (3000.0, 0), (4000.0, 2)]
    observed = [n.observe for n in result.world.clients["c1"].notifications]
    assert observed[-3:] == [16777215, 0, 2]


def test_cli_run_survives_a_decreasing_notify_counter(tmp_path, capsys):
    text = MINIMAL + ("at 2500 observe c1 n1 s/t\n"
                      "at 3000 notify n1 s/t counter=10\n"
                      "at 4000 notify n1 s/t counter=5\n"
                      "assert 5000 trace-contains notify_ignored counter=5 current=10\n")
    path = tmp_path / "backward.scn"
    path.write_text(text)
    assert cli_main(["run", str(path), "--out", str(tmp_path)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    result = run_scenario(parse_scenario(text))
    assert result.ok, result.failures
    trace = result.world.sim.trace
    assert [f["obs"] for _, f in trace.find("notify", node="n1")] == [0, 10]
    [(_, ignored)] = trace.find("notify_ignored")
    assert ignored["node"] == "n1" and ignored["uri"] == "s/t"
    assert ignored["client"].startswith("cccc::3")


def test_cli_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = cli_main(["sweep", "--param", "hops", "--range", "1..2", "--reps", "1",
                   "--seed", "3", "--hops", "1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("scenario,seed,")
    assert len(lines) > 4


def test_cli_sweep_range_forms(tmp_path):
    out = tmp_path / "s.csv"
    rc = cli_main(["sweep", "--param", "state_count", "--range", "1,2", "--reps", "1",
                   "--seed", "3", "--hops", "1", "--out", str(out)])
    assert rc == 0
    assert out.exists()


@pytest.mark.parametrize("argv,problem", [
    (["--param", "hops", "--range", "5..3"], "nonempty range"),
    (["--param", "hops", "--range", "1", "--reps", "0"], "reps >= 1"),
    (["--param", "hops", "--range", "0"], "hops must be >= 1, not 0"),
    (["--param", "state_count", "--range", "-1"], "state_count must be >= 0, not -1"),
    (["--param", "rdc", "--range", "nullrdc", "--hops", "0"], "hops must be >= 1, not 0"),
    (["--param", "hops", "--range", "1,2", "--states", "-2"], "state_count must be >= 0"),
], ids=["empty-range", "no-reps", "no-hops", "negative-states", "fixed-hops", "fixed-states"])
def test_cli_sweep_rejects_bad_input_before_any_run(tmp_path, capsys, monkeypatch, argv,
                                                    problem):
    def run_scenario(*_args, **_kwargs):
        raise AssertionError("a sweep with bad input started a run")

    monkeypatch.setattr(harness, "run_scenario", run_scenario)
    out = tmp_path / "s.csv"
    assert cli_main(["sweep", *argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("bad range: ") and problem in captured.err
    assert captured.out == "" and not out.exists()


# sha256 of each bundled scenario's trace text, metrics CSV and directory
# snapshot lines (newline-joined), as written and at 25% per-hop loss with
# other seeds; the lossy runs exercise every retransmission path.  A change
# that means to keep behaviour must leave all of them byte-identical; one
# that changes the model on purpose updates them and says why.
PINNED_DIGESTS = {
    ("fig12_19.scn", None, None): (
        "962dab08a642a066c081f79168c885e0a00f944223f9ae22b6e4bc2864f84a15",
        "f5deaf2818583913d714d8e544ee8f535ba29c3693d4f60b9650133eef018c14",
        "7d4ea20f51db13a1bd260b1d9240df87414c12f46b6d42ce17da78c3bf11eabf",
    ),
    ("bind_deploy.scn", None, None): (
        "543dbf735f5dfbb4417c827b112fb56b45d859447e8368e10612d10f14945fdb",
        "f1d295af55a306aeb75035b4485be1d0fe59c44351facc4844b92e0b2280f3d8",
        "fe5e2d70bfea2a5d362ef595fbd3de9082e656c1766d62c408a477a55b0b04ab",
    ),
    # The client's observe, retransmitted at 5,002 ms, races the replay:
    # the observe step replays the counter the entry holds when it fires.
    ("fig12_19.scn", 2, 0.25): (
        "da08731c212390c5fff689cb9062a90ed3ea61a6468a0a352253b28fbdb169dc",
        "333135d3c7bb1f47fd942a8b63382ed73c664dc7b12d2e305439ee6081a726dd",
        "9ee2cd9e77912fc0b910a58bf853a39c77b4a960c1d2c9cb44a2bfea1e53efac",
    ),
    ("fig12_19.scn", 5, 0.25): (
        "d779e6bdc9c2625c4e654a3763c75584e88482c5fa7a90f19d01b82e91aed315",
        "59a8b97c0fc82e7f03ade0a7bad3f14e7388e768ef4cf8dbe17c4faccf74a049",
        "2691e84da42b9a4dbbc7d52beb06ed04554dc037eff1f495d22ba57e3da2cd8c",
    ),
    ("bind_deploy.scn", 2, 0.25): (
        "464143c9ce9246876e75694e024ff47866df288ba71f13019f67fb95e7d30937",
        "682c4da836173bbda1c80b391021c0af96cd4d6d2aba0644d670d094ac49d155",
        "c3dae963d6fa819a6e8a90df13becefea409d803dacc4c7ba0cbf9379698272d",
    ),
    ("bind_deploy.scn", 6, 0.25): (
        "4a1f3e1419ba6e75001ee24aa6f096ad64ed2c7cbb6cb0b656d83bc33f259e0c",
        "f34a1e432a3ce2ac8cf11f0163fb4bc1fdc90df8b90fa1da20e66ab53cd2c09c",
        "077936e006a0624c1d254b0c3eb06c696d7b0b212e4df91937c7b728247c2021",
    ),
}
LOSSY_PINS = [key for key in PINNED_DIGESTS if key[1] is not None]


@functools.lru_cache(maxsize=None)
def pinned_run(name, seed, loss):
    sc = load_scenario(bundled(name))
    if seed is not None:
        sc.seed, sc.loss = seed, loss
    return run_scenario(sc)


@pytest.mark.parametrize("key", [
    pytest.param(key, id=key[0] if key[1] is None else f"{key[0]}-seed{key[1]}-loss{key[2]}")
    for key in PINNED_DIGESTS])
def test_bundled_scenario_outputs_are_pinned(key):
    result = pinned_run(*key)
    texts = (result.world.sim.trace.text(), csv_text(result.metrics),
             "\n".join(result.world.gateway.directory.snapshot_lines()))
    got = tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts)
    assert got == PINNED_DIGESTS[key]


def test_lossy_pins_cover_every_retransmission_path():
    kinds = set()
    for key in LOSSY_PINS:
        trace = pinned_run(*key).world.sim.trace
        kinds |= {kind for kind in ("client_retransmit", "retransmit", "inject_retransmit")
                  if trace.find(kind)}
        if any(f["transmissions"] > 1 for _, f in trace.find("assoc")):
            kinds.add("assoc transmissions>1")
    assert kinds == {"client_retransmit", "retransmit", "inject_retransmit",
                     "assoc transmissions>1"}


def test_behaviour_under_loss_is_pinned():
    """Every run of `lossy_pins.lossy_set()` matches its row of the pin
    table; a failure names each run that moved and how its records moved."""
    got, aborted = {}, 0
    for key, run, abort in lossy_pins.finished():
        aborted += abort is not None
        got[key] = lossy_pins.pin(lossy_pins.artifacts(run, abort))
    assert len(got) == 198 and 0 < aborted < len(got)
    moved = lossy_pins.moved(lossy_pins.load_table(), got)
    assert not moved, "runs moved:\n" + "\n".join(moved)


# The type of each field's value in `TraceRecorder.records`, by record
# kind: endpoints, intercepted addresses and durations are text.
FIELD_TYPES = {
    "send": {"src": str, "dst": str, "msg": str},
    "recv": {"at": str, "msg": str},
    "drop": {"why": str, "src": str, "dst": str, "msg": str, "node": str, "uri": str,
             "client": str},
    "boot": {"node": str, "epoch": int},
    "assoc": {"node": str, "epoch": int, "delay": str, "transmissions": int},
    "boot_failed": {"node": str, "epoch": int, "retries": int},
    "crash": {"node": str, "epoch": int, "downtime": float},
    "load": {"node": str, "file": str, "source": str},
    "observer_add": {"node": str, "uri": str, "client": str, "counter": int},
    "obs_drop": {"node": str, "uri": str, "client": str, "reason": str, "mid": int,
                 "retries": int},
    "notify_ignored": {"node": str, "uri": str, "client": str, "counter": int,
                       "current": int},
    "notify": {"node": str, "uri": str, "client": str, "obs": int, "mid": int, "type": str},
    "retransmit": {"node": str, "uri": str, "mid": int, "attempt": int},
    "binding_add": {"node": str, "uri": str, "dest": str},
    "binding_put": {"node": str, "src_uri": str, "dest": str},
    "client_warn": {"client": str, "why": str, "uri": str, "file": str},
    "deploy_done": {"client": str, "file": str},
    "silence": {"client": str, "on": bool},
    "client_retransmit": {"client": str, "mid": int, "attempt": int},
    "client_timeout": {"client": str, "mid": int},
    "client_rejected": {"client": str, "mid": int},
    "intercept": {"dir": str, "src": str, "dst": str},
    "gw": {"ev": str, "dir": str, "dst": str, "src": str, "msg": str, "node": str,
           "mid": int},
    "inject_retransmit": {"dst": str, "attempt": int},
    "sd": {"dir": str, "effect": str, "et": int, "client": str, "server": str, "uri": str,
           "obs": int, "mid": int, "ret": int},
    "sd_remove": {"reason": str, "et": int, "server": str, "uri": str, "mid": int,
                  "ret": int},
    "reg": {"node": str, "status": str},
    "recover_start": {"node": str, "steps": int},
    "recover_abort": {"node": str, "at_step": int},
    "inject": {"node": str, "step": int, "et": int, "uri": str, "src": str, "msg": str},
    "consume": {"dst": str, "msg": str},
    "recover_step": {"node": str, "step": int, "outcome": str},
    "recover_done": {"node": str, "steps": int, "aborted": bool, "delay": str},
}


def test_every_trace_kind_has_its_field_types():
    for layout in TRACE_KINDS.values():
        kind, *words = layout.split()
        names = [word.partition("=")[0].partition(":")[0] for word in words]
        assert set(names) <= set(FIELD_TYPES[kind]), layout


def test_trace_records_render_as_the_trace_lines():
    """`records` gives each field the value its line shows, of its kind's
    type, for both bundled scenarios and every run of the lossy set."""
    runs = [pinned_run(name, None, None) for name in ("fig12_19.scn", "bind_deploy.scn")]
    # An aborted run keeps the trace it made.
    runs += [run for _key, run, _abort in lossy_pins.finished()]
    for run in runs:
        trace = run.world.sim.trace
        records = trace.records
        rendered = [f"{t:12.3f} {kind} {' '.join(f'{k}={v}' for k, v in fields.items())}"
                    .rstrip() for t, kind, fields in records]
        assert rendered == trace.lines()
        wrong = [(kind, k, v) for _, kind, fields in records for k, v in fields.items()
                 if type(v) is not FIELD_TYPES[kind][k]]
        assert not wrong, wrong[:5]


def same_time_scenario(nodes: int = 12) -> Scenario:
    """Many events per timestamp: two clients PUT to every node at the same
    instants, every node notifies its observer at once, and every node crashes
    at the same millisecond.  Ties in the event queue decide the trace."""
    sc = Scenario(scenario_id=f"same_time[nodes={nodes}]", seed=4, settle=2000.0)
    sc.clients += [ClientDecl("c1", "cccc::3"), ClientDecl("c2", "cccc::4")]
    for i in range(nodes):
        decl = NodeDecl(f"n{i}", f"aaaa::c30c:0:0:{i + 2:x}", hops=1 + i % 3)
        decl.resources.update({"cfg/a": b"0", "cfg/b": b"0", "s/t": b"0"})
        sc.nodes.append(decl)

    def each(t, verb, **args):
        for d in sc.nodes:
            sc.event(t, verb, node=d.name, **args)

    each(2000.0, "put", client="c1", path="cfg/a", value=b"1", cf=0)
    each(2000.0, "put", client="c2", path="cfg/b", value=b"2", cf=0)
    each(3000.0, "observe", client="c1", path="s/t", obs=0)
    each(4000.0, "notify", path="s/t", counter=None)
    each(4000.0, "put", client="c2", path="cfg/a", value=b"3", cf=0)
    each(6500.0, "crash", down=500.0)
    for d in sc.nodes:
        sc.check(6000.0, "snapshot", d.name)
    for d in sc.nodes:
        sc.check(16_500.0, "restored", d.name)
    return sc


# sha256 of the trace text, metrics CSV and snapshot lines of
# `same_time_scenario()`, pinned like PINNED_DIGESTS.
SAME_TIME_DIGESTS = (
    "0c5452a43bb0026553f98386a25ecafcda0b2bbdf3194cb178b8cb1eb7391dcc",
    "b63d35e4b30c9093ef4ed578ed71b1074a1fa675f95e281b8d41fb1ef5b68915",
    "fc4d7e5794aac91c57a4afd75f2778121a0089fb7b98dff9fa5320120d3cc681",
)


def test_same_time_events_outputs_are_pinned():
    result = run_scenario(same_time_scenario())
    assert result.ok, result.failures
    trace = result.world.sim.trace
    assert len(trace.find("crash")) == 12 and len({t for t, _ in trace.find("crash")}) == 1
    assert len(result.world.gateway.recovery.reports) == 12
    texts = (trace.text(), csv_text(result.metrics),
             "\n".join(result.world.gateway.directory.snapshot_lines()))
    got = tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts)
    assert got == SAME_TIME_DIGESTS
