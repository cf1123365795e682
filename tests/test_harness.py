import functools
import hashlib
import importlib.resources
from pathlib import Path

import pytest

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
    ScenarioEvent,
    load_scenario,
    parse_scenario,
)

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
    ("pacing-gap -50", "pacing-gap must be nonnegative"),
    ("assert -5 resource n1 s/t 1", "assertion time must be nonnegative"),
    ("at 10 crash n1 down=-5", "down must be nonnegative"),
    ("at 10 put c1 n1 s/t 1 cf=70000", "content-format out of range"),
    ("at 10 observe c1 n1 s/t obs=99999999", "observe value out of range"),
    ("at 10 notify n1 s/t counter=99999999", "observe value out of range"),
    ("at 10 deploy c1 n1 file=f data=d block=17", "block1 size"),
    ("at 10 bind c1 n1 s/t dest=aaaa::2 res=a pmin=9 pmax=1", "pmin > pmax"),
    ("at 10 bind c1 n1 s/t dest=aaaa::2 res=", "dest_resource empty"),
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


def test_parse_minimal_scenario_fields():
    sc = parse_scenario(MINIMAL)
    assert sc.scenario_id == "mini"
    assert sc.seed == 2
    assert len(sc.events) == 1 and sc.events[0].verb == "put"
    assert sc.events[0].args["value"] == b"9"
    assert len(sc.asserts) == 1


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


def test_sweep_rdc_parameter():
    records = sweep("rdc", [RDC.NULLRDC, RDC.CONTIKIMAC], 2, seed=8, hops=1)
    rdcs = {r.rdc for r in records}
    assert rdcs == {"nullrdc", "contikimac"}


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


def test_cli_run_parse_error(tmp_path, capsys):
    bad = tmp_path / "broken.scn"
    bad.write_text("version 1\nwat\n")
    rc = cli_main(["run", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    assert "parse error" in capsys.readouterr().err


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
    ("fig12_19.scn", 2, 0.25): (
        "72a27e086c4d499e569d180c4c6c7435520a98f2c9ab2a3d1f4da5e75641b0c2",
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
            sc.events.append(ScenarioEvent(t, verb, dict(args, node=d.name), 0))

    each(2000.0, "put", client="c1", path="cfg/a", value=b"1", cf=0)
    each(2000.0, "put", client="c2", path="cfg/b", value=b"2", cf=0)
    each(3000.0, "observe", client="c1", path="s/t", obs=0)
    each(4000.0, "notify", path="s/t", counter=None)
    each(4000.0, "put", client="c2", path="cfg/a", value=b"3", cf=0)
    each(6500.0, "crash", down=500.0)
    for d in sc.nodes:
        sc.asserts.append(ScenarioAssert(6000.0, "snapshot", [d.name], 0))
    for d in sc.nodes:
        sc.asserts.append(ScenarioAssert(16_500.0, "restored", [d.name], 0))
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
