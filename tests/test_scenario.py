"""The verb and check tables: the parser and the checked builders agree on
every entry, the scenarios built in Python pass the tables' checks, and
README documents every entry."""

import dataclasses
import random
import re
import shlex
import sys
from pathlib import Path

import pytest

from worldutil import random_interaction_scenario
from sdgateway.scenario import (
    CHECKS,
    POSITIONAL,
    REQUIRED,
    VERBS,
    _HEADERS,
    ClientDecl,
    NodeDecl,
    ParseError,
    Scenario,
    parse_scenario,
)

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

# Two nodes, two clients and a snapshot of each node, so that every check,
# `restored` too, can follow; the line under test is line 8.
BASE = ("version 1\nnode n1 aaaa::1\nnode n2 aaaa::2\nclient c1 cccc::3\n"
        "client c2 cccc::4\nassert 0 snapshot n1\nassert 0 snapshot n2\n")
LINE = 8


def _word(rng) -> str:
    return "".join(rng.choice("abz019_-.") for _ in range(rng.randint(1, 6)))


def _path(rng) -> str:
    return rng.choice(["", "/"]) + "/".join(_word(rng) for _ in range(rng.randint(1, 3)))


def _payload(rng):
    if rng.random() < 0.5:
        data = rng.randbytes(rng.randint(0, 8))
        return "hex:" + data.hex(), data
    word = _word(rng)
    return "text:" + word, word.encode()


def _same(make):
    """A generator whose text and value are the same string."""
    return lambda rng: (lambda text: (text, text))(make(rng))


def _number(make):
    return lambda rng: (lambda value: (repr(value), value))(make(rng))


# How to make each argument of a verb: (its text on the line, the value the
# builder takes).  A new argument name needs a generator here.
EVENT_ARGS = {
    "client": _same(lambda rng: rng.choice(["c1", "c2"])),
    "node": _same(lambda rng: rng.choice(["n1", "n2"])),
    "path": _same(_path),
    "value": _payload,
    "on|off": lambda rng: rng.choice([("on", True), ("off", False)]),
    "cf": _number(lambda rng: rng.randint(0, 0xFFFF)),
    "obs": _number(lambda rng: rng.randint(0, 0xFFFFFF)),
    "dest": _same(lambda rng: rng.choice(["aaaa::2", "aaaa::c30c:0:0:3"])),
    "res": _same(_path),
    "pmin": _number(lambda rng: rng.randint(0, 1000)),
    "pmax": _number(lambda rng: rng.randint(1000, 0xFFFFFFFF)),
    "file": _same(_word),
    "data": _payload,
    "block": _number(lambda rng: rng.choice([16, 32, 64, 128, 256, 512, 1024])),
    "loader": _same(_path),
    "counter": _number(lambda rng: rng.choice([0, rng.randint(2, 0xFFFFFF)])),
    "down": _number(lambda rng: rng.choice([0.0, 400.0, rng.uniform(0.0, 1e5)])),
}

# How to make each argument of a check, as the text both sides take.
CHECK_ARGS = {
    "node": lambda rng: rng.choice(["n1", "n2"]),
    "types": lambda rng: rng.choice(["-", ",".join(
        str(rng.randint(1, 5)) for _ in range(rng.randint(1, 3)))]),
    "count": lambda rng: str(rng.randint(0, 99)),
    "counter": lambda rng: str(rng.randint(0, 99)),
    "path": _path,
    "value": _word,
    "addr": lambda rng: rng.choice(["cccc::3", "cccc::4"]),
    "text": lambda rng: rng.choice(["node=n1", "a b", "#x", "'", ""]) + _word(rng),
}

NAMES = [("at", verb) for verb in VERBS] + [("assert", check) for check in CHECKS]


@dataclasses.dataclass
class Line:
    """One generated line: its tokens (the time first) and the builder call."""
    head: str
    name: str
    tokens: list
    call: tuple  # (time, args or kwargs)
    ints: list  # indexes of tokens that hold an integer, for corruption
    positional: list  # indexes of positional tokens
    texts: dict = None  # a verb's kwargs as their text on the line

    def text(self, tokens=None) -> str:
        words = [self.head] + [(tokens or self.tokens)[0], self.name]
        return " ".join(words + [shlex.quote(t) for t in (tokens or self.tokens)[1:]])

    def build(self, sc: Scenario, as_text: bool = False):
        time, args = self.call
        if as_text and time is not None:
            time = self.tokens[0]
        if self.head == "at":
            return sc.event(time, self.name, **(self.texts if as_text else args))
        return sc.check(time, self.name, *args)


def generate(rng: random.Random, head: str, name: str) -> Line:
    """A valid `at` or `assert` line for the verb or check `name`, made from
    its table entry, and the builder call that makes the same event or check."""
    time = rng.choice([0, 10, rng.uniform(0.0, 1e6)])
    tokens, ints, positional = [repr(time)], [], []
    if head == "assert":
        entry = CHECKS[name]
        names = entry.args + entry.args[-1:] * rng.randint(0, 2) * entry.variadic
        args = [CHECK_ARGS[arg](rng) for arg in names]
        for arg, text in zip(names, args):
            if arg in ("count", "counter", "types"):
                ints.append(len(tokens))
            positional.append(len(tokens))
            tokens.append(text)
        if rng.random() < 0.3:
            tokens[0], time = "final", None
        return Line(head, name, tokens, (time, args), ints, positional)
    entry = VERBS[name]
    kwargs, texts, keyed = {}, {}, []
    for arg in entry.positional:
        key = POSITIONAL[arg][0]
        texts[key], kwargs[key] = EVENT_ARGS[arg](rng)
        positional.append(len(tokens))
        tokens.append(texts[key])
    for key, arg in entry.keys.items():
        if arg.default is REQUIRED or rng.random() < 0.5:
            texts[key], kwargs[key] = EVENT_ARGS[key](rng)
            keyed.append((f"{key}={texts[key]}", type(kwargs[key]) is int))
    for token, is_int in keyed:  # keys go anywhere among the positional args
        at = rng.randint(positional[0], len(tokens))
        positional = [i + (i >= at) for i in positional]
        ints = [i + (i >= at) for i in ints]
        tokens.insert(at, token)
        if is_int:
            ints.append(at)
    return Line(head, name, tokens, (time, kwargs), ints, positional, texts)


def check_line(line: Line) -> None:
    """The line parses to what the builder makes from the values or from
    the texts, and each single-token corruption of the line is a parse
    error naming the line."""
    parsed = parse_scenario(BASE + line.text())
    got = (parsed.events if line.head == "at" else parsed.asserts)[-1]
    built = line.build(parse_scenario(BASE))
    assert dataclasses.replace(got, line=0) == built, line.text()
    assert line.build(parse_scenario(BASE), as_text=True) == built, line.text()
    if line.head == "at":
        assert {k: type(v) for k, v in got.args.items()} == \
            {k: type(v) for k, v in built.args.items()}
    assert type(got.time) is type(built.time)

    last = line.positional[-1]
    corrupt = [(line.tokens[:last] + line.tokens[last + 1:], "missing <")]
    variadic = line.head == "assert" and CHECKS[line.name].variadic
    if variadic and len(line.positional) > 1:
        corrupt = []
    if not variadic:
        corrupt.append((line.tokens + ["zz=1"], "unexpected argument 'zz=1'"))
    for i in line.ints:
        key, sep, _ = line.tokens[i].partition("=")
        corrupt.append((line.tokens[:i] + [key + sep + "x1" if sep else "x1"]
                        + line.tokens[i + 1:], "expected integer, got 'x1'"))
    corrupt.append((["nan"] + line.tokens[1:], "expected a finite number, got 'nan'"))
    for tokens, fragment in corrupt:
        with pytest.raises(ParseError) as err:
            parse_scenario(BASE + line.text(tokens))
        assert err.value.line == LINE and fragment in str(err.value), line.text(tokens)


@pytest.mark.parametrize("seed", range(40))
def test_every_generated_line_parses_to_what_the_builder_makes(seed):
    rng = random.Random(seed)
    for head, name in NAMES:
        check_line(generate(rng, head, name))


def test_generated_lines_under_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.randoms(use_true_random=False), st.sampled_from(NAMES))
    def check(rng, name):
        check_line(generate(rng, *name))

    check()


@pytest.mark.parametrize("text,call", [
    ("at 5 put c1 n1 /a//b hex: cf=0", ("at", 5, "put", dict(
        client="c1", node="n1", path="/a//b", value=b"", cf=0))),
    ("at 5 put c1 n1 '' text:", ("at", 5, "put", dict(
        client="c1", node="n1", path="", value=b""))),
    ("at 5 notify n1 s", ("at", 5, "notify", dict(node="n1", path="s", counter=None))),
    ("at 5 deploy c1 data=hex:00 n1 loader=/l file=f", ("at", 5, "deploy", dict(
        client="c1", node="n1", file="f", data=b"\0", loader="l"))),
    ("at 5 crash n1 down=0", ("at", 5, "crash", dict(node="n1", down=0))),
    ("assert final trace-contains '' '#'", ("assert", None, "trace-contains", ["", "#"])),
])
def test_pinned_lines_parse_to_what_the_builder_makes(text, call):
    head, time, name, args = call
    parsed = parse_scenario(BASE + text)
    got = (parsed.events if head == "at" else parsed.asserts)[-1]
    line = Line(head, name, [], (time, args), [], [])
    assert dataclasses.replace(got, line=0) == line.build(parse_scenario(BASE))


@pytest.mark.parametrize("line,message", [
    ("rdc fast", "unknown rdc 'fast'"),
    ("deploy-mode blocks", "unknown directive 'deploy-mode'"),
    ("seed", "usage: seed <value>"),
    ("client c3", "usage: client <name> <addr>"),
    ("node n3", "node <name> <addr> [k=v...]"),
    ("node n3 aaaa::3 hops", "expected key=value, got 'hops'"),
    ("node n3 aaaa::3 hops=1 hops=2", "node: repeated key 'hops'"),
    ("at 1000 put c1 n1 a 1 cf=0 cf=5", "put: repeated key 'cf'"),
    ("at 1000 bind c1 n1 s dest=aaaa::2 res=b res=c", "bind: repeated key 'res'"),
    ("at 10", "at <ms> <verb> ..."),
    ("assert final", "assert <ms|final> <check> ..."),
    ("resource n1 a hex:zz", "non-hexadecimal number found"),
    ("at 10 put c1 n1 a hex:0", "non-hexadecimal number found"),
    # A repeated line is an error on the repeat, the last line here.
    ("version 1", "version repeats line 1"),
    ("seed 1\nseed 2", "seed repeats line 8"),
    ("resource n1 a 1\nresource n1 /a 2", "resource n1 a repeats line 8"),
    ("flash n1 mod0 x\nflash n1 mod0 y", "flash n1 mod0 repeats line 8"),
])
def test_malformed_lines_are_parse_errors(line, message):
    with pytest.raises(ParseError) as err:
        parse_scenario(BASE + line)
    assert err.value.line == LINE + line.count("\n") and message in str(err.value)


# Each builder call fails with the message the parser gives the line.
@pytest.mark.parametrize("text,call", [
    ("at 10 frobnicate", ("at", 10, "frobnicate", {})),
    ("at -5 crash n1", ("at", -5, "crash", dict(node="n1"))),
    ("at 10 put c1 n1", ("at", 10, "put", dict(client="c1", node="n1"))),
    ("at 10 put c9 n1 s 1", ("at", 10, "put", dict(client="c9", node="n1", path="s",
                                                    value=b"1"))),
    ("at 10 silence c1 maybe", ("at", 10, "silence", dict(client="c1", on="maybe"))),
    ("at 10 crash n1 down=-5", ("at", 10, "crash", dict(node="n1", down=-5.0))),
    ("at 10 notify n1 s counter=1", ("at", 10, "notify", dict(node="n1", path="s",
                                                              counter=1))),
    ("at 10 bind c1 n1 s res=a", ("at", 10, "bind", dict(client="c1", node="n1", path="s",
                                                        res="a"))),
    ("at 10 bind c1 n1 s dest=d res=a pmin=9 pmax=1", ("at", 10, "bind", dict(
        client="c1", node="n1", path="s", dest="d", res="a", pmin=9, pmax=1))),
    ("at 10 deploy c1 n1 file=f data=d block=17", ("at", 10, "deploy", dict(
        client="c1", node="n1", file="f", data=b"d", block=17))),
    ("at 10 observe c1 n1 s obs=99999999", ("at", 10, "observe", dict(
        client="c1", node="n1", path="s", obs=99999999))),
    ("assert 10 wat n1", ("assert", 10, "wat", ["n1"])),
    ("assert final sd-count n1 abc", ("assert", None, "sd-count", ["n1", "abc"])),
    ("assert final snapshot n1 now", ("assert", None, "snapshot", ["n1", "now"])),
    ("assert final trace-contains", ("assert", None, "trace-contains", [])),
    ("assert 10 restored n3", ("assert", 10, "restored", ["n3"])),
    ("assert final restored n3", ("assert", None, "restored", ["n3"])),
    ("assert 10 snapshot n3\nassert 5 snapshot n3", ("assert", 5, "snapshot", ["n3"])),
    ("at 10 crash n1\nat 5 crash n1", ("at", 5, "crash", dict(node="n1"))),
])
def test_builder_errors_carry_the_parse_error_messages(text, call):
    base = BASE + "node n3 aaaa::3\n"
    with pytest.raises(ParseError) as err:
        parse_scenario(base + text)
    sc = parse_scenario(base + text.rpartition("\n")[0])
    head, time, name, args = call
    with pytest.raises(ValueError) as built:
        Line(head, name, [], (time, args), [], []).build(sc)
    assert f"line {err.value.line}: {built.value}" == str(err.value)


@pytest.mark.parametrize("call,message", [
    (dict(value=1), "expected a string, got 1"),
    (dict(cf=True), "expected integer, got True"),
    (dict(cf=1.5), "expected integer, got 1.5"),
    (dict(fc=0), "put: unexpected argument 'fc'"),
    (dict(path=7), "expected a string, got 7"),
])
def test_builder_checks_value_types(call, message):
    sc = parse_scenario(BASE)
    with pytest.raises(ValueError, match=re.escape(message)):
        sc.event(10, "put", **dict(dict(client="c1", node="n1", path="s", value=b"1"), **call))
    assert sc.events == []


def test_builder_takes_an_argument_as_its_text_or_its_value():
    as_text, as_value = parse_scenario(BASE), parse_scenario(BASE)
    as_text.event("10", "put", client="c1", node="n1", path="/s", value="hex:00", cf="3")
    as_value.event(10.0, "put", client="c1", node="n1", path="s", value=b"\0", cf=3)
    as_text.event(20, "silence", client="c1", on="on")
    as_value.event(20, "silence", client="c1", on=True)
    assert as_text.events == as_value.events


def test_builder_rejects_a_name_declared_twice():
    sc = Scenario(nodes=[NodeDecl("n1", "aaaa::1")], clients=[ClientDecl("n1", "cccc::3")])
    with pytest.raises(ValueError, match="duplicate name 'n1'"):
        sc.event(1, "boot", node="n1")


def test_builder_names_follow_declarations_added_between_calls():
    sc = Scenario(nodes=[NodeDecl("n1", "aaaa::1")], clients=[ClientDecl("c1", "cccc::3")])
    sc.event(1, "boot", node="n1")
    with pytest.raises(ValueError, match="undeclared name 'n2'"):
        sc.event(2, "boot", node="n2")
    sc.nodes.append(NodeDecl("n2", "aaaa::2"))  # declared after an event call
    sc.event(2, "boot", node="n2")
    sc.check(3, "snapshot", "n2")
    # The names kept are neither compared nor shown.
    by_hand = Scenario(nodes=[NodeDecl("n1", "aaaa::1"), NodeDecl("n2", "aaaa::2")],
                       clients=[ClientDecl("c1", "cccc::3")],
                       events=list(sc.events), asserts=list(sc.asserts))
    assert sc == by_hand and repr(sc) == repr(by_hand)
    sc.clients.append(ClientDecl("n2", "cccc::4"))  # a duplicate added later
    for _ in range(2):  # and it keeps being named
        with pytest.raises(ValueError, match="duplicate name 'n2'"):
            sc.event(4, "boot", node="n1")
    sc.clients.pop()
    sc.event(4, "boot", node="n1")
    sc.nodes = [NodeDecl("n3", "aaaa::3")]  # a list replaced is read again
    with pytest.raises(ValueError, match="undeclared name 'n1'"):
        sc.event(5, "boot", node="n1")
    assert [e.args["node"] for e in sc.events] == ["n1", "n2", "n1"]


def rebuild(sc: Scenario) -> None:
    """Add every event and check of `sc` again through the builders, which
    raise on anything a scenario file could not say, and compare."""
    again = Scenario(nodes=sc.nodes, clients=sc.clients)
    for ev in sc.events:
        built = again.event(ev.time, ev.verb, **ev.args)
        assert (built.time, built.args) == (ev.time, ev.args)
        assert {k: type(v) for k, v in built.args.items()} == \
            {k: type(v) for k, v in ev.args.items()}
    for check in sc.asserts:
        again.check(check.time, check.check, *check.args)
    assert again.asserts == sc.asserts


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_bench_workloads_pass_the_table_checks(name):
    for sc in workloads.WORKLOADS[name].generate(1):
        rebuild(sc)


def test_generated_interaction_scenarios_pass_the_table_checks():
    for seed in range(60):
        rebuild(random_interaction_scenario(seed))


def usage(head: str, name: str) -> str:
    """The line README gives a verb or check, from its table entry."""
    if head == "assert":
        entry = CHECKS[name]
        words = [f"<{arg}>" for arg in entry.args]
        if entry.variadic:
            words[-1] += "..."
        return " ".join(["assert <ms|final>", name] + words)
    entry = VERBS[name]
    words = [f"<{arg}>" for arg in entry.positional]
    for key, arg in entry.keys.items():
        if arg.default is REQUIRED:
            words.append(f"{key}=<{key}>")
        elif arg.default is None:
            words.append(f"[{key}=<{key}>]")
        else:
            default = f"{arg.default:g}" if type(arg.default) is float else arg.default
            words.append(f"[{key}={default}]")
    return " ".join(["at <ms>", name] + words)


def test_readme_lists_every_verb_and_check_as_the_tables_define_them():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = [usage(head, name) for head, name in NAMES
               if not re.search(rf"^{re.escape(usage(head, name))}(  |$)", readme, re.M)]
    assert not missing


def test_readme_example_gives_exactly_the_header_directives_the_parser_takes():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = readme.split("### Scenario files", 1)[1].split("```text\n", 1)[1]
    header = example.split("\n\n", 1)[0]  # the lines before the first blank one
    assert {line.split()[0] for line in header.splitlines()} == set(_HEADERS) | {"version"}
