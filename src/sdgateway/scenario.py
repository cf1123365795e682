"""Scenario files: structured plain text driving one simulation run.

Line-oriented, `#` comments, shell-style quoting.  A header block sets
run parameters, `node`/`client`/`resource`/`flash` declare the topology,
`at <ms> <verb> ...` lines schedule timed events and `assert <ms|final>
<check> ...` lines schedule assertions.  Event times must be
nondecreasing, every number finite and in range, every line must take
exactly its arguments and keys, and every event and check must reference
a declared name.
"""

from __future__ import annotations

import itertools
import math
import shlex
from collections.abc import Container
from dataclasses import dataclass, field
from typing import Optional

from .coap import OBSERVE_DEREGISTER_VALUE, BindingInfo, Block1, OptionSet, validate_options
from .directory import DeployMode
from .lln import DEFAULT_LOADER_PATH, RDC, LinkModel
from .recovery import DEFAULT_PACING_GAP_MS

SCENARIO_VERSION = 1

EVENT_VERBS = {
    "boot": ("node",),
    "put": ("client", "node", "path", "value"),
    "get": ("client", "node", "path"),
    "observe": ("client", "node", "path"),
    "deregister": ("client", "node", "path"),
    "rst": ("client", "node", "path"),
    "bind": ("client", "node", "path"),
    "deploy": ("client", "node"),
    "change": ("node", "path", "value"),
    "notify": ("node", "path"),
    "crash": ("node",),
    "silence": ("client", "on|off"),
    "blackhole": ("node", "on|off"),
}

# Each check's arguments, as its evaluation reads them: `count` and
# `counter` are integers, `types` is a comma-separated list of integers or
# `-`.  `trace-contains` takes one or more words instead.
ASSERT_CHECKS = {
    "sd-types": ("node", "types"),
    "sd-count": ("node", "count"),
    "sd-obs": ("node", "path", "counter"),
    "resource": ("node", "path", "value"),
    "observer-count": ("node", "path", "count"),
    "observer-client": ("node", "path", "addr"),
    "snapshot": ("node",),
    "restored": ("node",),
    "trace-contains": None,
}

_NODE_KEYS = {"hops", "loss", "loader"}


class ParseError(Exception):
    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class AssertionFailure(Exception):
    def __init__(self, names: list[str]) -> None:
        super().__init__("failed assertions: " + "; ".join(names))
        self.names = names


@dataclass
class NodeDecl:
    name: str
    addr: str
    hops: Optional[int] = None
    loss: Optional[float] = None
    loader: str = DEFAULT_LOADER_PATH
    resources: dict[str, bytes] = field(default_factory=dict)
    flash: dict[str, bytes] = field(default_factory=dict)


@dataclass
class ClientDecl:
    name: str
    addr: str


@dataclass
class ScenarioEvent:
    time: float
    verb: str
    args: dict
    line: int


@dataclass
class ScenarioAssert:
    time: Optional[float]  # None means "final"
    check: str
    args: list[str]
    line: int

    @property
    def name(self) -> str:
        when = "final" if self.time is None else f"{self.time:g}"
        return f"L{self.line}[{when} {self.check} {' '.join(self.args)}]"


@dataclass
class Scenario:
    scenario_id: str = "unnamed"
    seed: int = 0
    rdc: RDC = RDC.NULLRDC
    hops: int = 1
    loss: float = 0.0
    pacing_gap: float = DEFAULT_PACING_GAP_MS
    deploy_mode: DeployMode = DeployMode.FILENAME_ONLY
    settle: float = 30_000.0
    nodes: list[NodeDecl] = field(default_factory=list)
    clients: list[ClientDecl] = field(default_factory=list)
    events: list[ScenarioEvent] = field(default_factory=list)
    asserts: list[ScenarioAssert] = field(default_factory=list)

    def end_time(self) -> float:
        times = [e.time for e in self.events]
        times += [a.time for a in self.asserts if a.time is not None]
        return (max(times) if times else 0.0) + self.settle


def _payload(text: str) -> bytes:
    if text.startswith("hex:"):
        return bytes.fromhex(text[4:])
    if text.startswith("text:"):
        return text[5:].encode("utf-8")
    return text.encode("utf-8")


def _kv(tokens: list[str], line: int) -> dict[str, str]:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ParseError(f"expected key=value, got {tok!r}", line)
        key, _, value = tok.partition("=")
        out[key] = value
    return out


def parse_scenario(text: str) -> Scenario:
    sc = Scenario()
    node_names: dict[str, NodeDecl] = {}
    client_names: set[str] = set()
    # Nodes with a timed and with a final `snapshot` so far, and each final
    # `restored` still waiting for a timed `snapshot` on a later line.
    timed_snapshots: set[str] = set()
    final_snapshots: set[str] = set()
    final_restores: list[tuple[str, int]] = []
    saw_version = False
    last_event_time = 0.0
    last_assert_time = 0.0

    for lineno, rawline in enumerate(text.splitlines(), start=1):
        try:
            tokens = shlex.split(rawline, comments=True)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        if not tokens:
            continue
        head, rest = tokens[0], tokens[1:]

        if head == "scenario":
            _need(rest, 1, lineno, "scenario <id>")
            sc.scenario_id = rest[0]
        elif head == "version":
            _need(rest, 1, lineno, "version <n>")
            if _int(rest[0], lineno) != SCENARIO_VERSION:
                raise ParseError(f"unsupported scenario version {rest[0]}", lineno)
            saw_version = True
        elif head == "seed":
            sc.seed = _int(_one(rest, lineno, head), lineno)
        elif head == "rdc":
            sc.rdc = _rdc(_one(rest, lineno, head), lineno)
        elif head == "hops":
            sc.hops = _int(_one(rest, lineno, head), lineno)
            _valid(lineno, LinkModel, hops=sc.hops)
        elif head == "loss":
            sc.loss = _float(_one(rest, lineno, head), lineno)
            _valid(lineno, LinkModel, loss=sc.loss)
        elif head == "pacing-gap":
            sc.pacing_gap = _nonnegative(_one(rest, lineno, head), lineno, head)
        elif head == "deploy-mode":
            value = _one(rest, lineno, head)
            try:
                sc.deploy_mode = DeployMode(value)
            except ValueError:
                raise ParseError(f"unknown deploy mode {value!r}", lineno) from None
        elif head == "settle":
            sc.settle = _nonnegative(_one(rest, lineno, head), lineno, head)
        elif head == "node":
            if len(rest) < 2:
                raise ParseError("node <name> <addr> [k=v...]", lineno)
            name, addr = rest[0], rest[1]
            if name in node_names or name in client_names:
                raise ParseError(f"duplicate name {name!r}", lineno)
            kv = _kv(rest[2:], lineno)
            for key in kv:
                if key not in _NODE_KEYS:
                    raise ParseError(f"node: unknown key {key!r}", lineno)
            decl = NodeDecl(name, addr,
                            hops=_int(kv["hops"], lineno) if "hops" in kv else None,
                            loss=_float(kv["loss"], lineno) if "loss" in kv else None,
                            loader=kv.get("loader", DEFAULT_LOADER_PATH))
            _valid(lineno, LinkModel, hops=1 if decl.hops is None else decl.hops,
                   loss=decl.loss or 0.0)
            sc.nodes.append(decl)
            node_names[name] = decl
        elif head == "client":
            _need(rest, 2, lineno, "client <name> <addr>")
            if rest[0] in client_names or rest[0] in node_names:
                raise ParseError(f"duplicate name {rest[0]!r}", lineno)
            sc.clients.append(ClientDecl(rest[0], rest[1]))
            client_names.add(rest[0])
        elif head == "resource":
            _need(rest, 3, lineno, "resource <node> <path> <value>")
            _declared(rest[0], node_names, lineno)
            node_names[rest[0]].resources[rest[1].lstrip("/")] = _payload(rest[2])
        elif head == "flash":
            _need(rest, 3, lineno, "flash <node> <filename> <data>")
            _declared(rest[0], node_names, lineno)
            node_names[rest[0]].flash[rest[1]] = _payload(rest[2])
        elif head == "at":
            if len(rest) < 2:
                raise ParseError("at <ms> <verb> ...", lineno)
            at = _nonnegative(rest[0], lineno, "event time")
            if at < last_event_time:
                raise ParseError("event times must be nondecreasing", lineno)
            last_event_time = at
            sc.events.append(_parse_event(at, rest[1], rest[2:], lineno,
                                          node_names, client_names))
        elif head == "assert":
            if len(rest) < 2:
                raise ParseError("assert <ms|final> <check> ...", lineno)
            if rest[0] == "final":
                at = None
            else:
                at = _nonnegative(rest[0], lineno, "assertion time")
                if at < last_assert_time:
                    raise ParseError("assertion times must be nondecreasing", lineno)
                last_assert_time = at
            check, args = rest[1], rest[2:]
            if check not in ASSERT_CHECKS:
                raise ParseError(f"unknown assertion {check!r}", lineno)
            _check_args(check, args, lineno, node_names)
            if check == "snapshot":
                (timed_snapshots if at is not None else final_snapshots).add(args[0])
            elif check == "restored" and args[0] not in timed_snapshots:
                if at is not None:
                    _no_snapshot(args[0], lineno)
                if args[0] not in final_snapshots:
                    final_restores.append((args[0], lineno))
            sc.asserts.append(ScenarioAssert(at, check, args, lineno))
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)

    if not saw_version:
        raise ParseError("missing 'version' header line", 1)
    for node, lineno in final_restores:
        if node not in timed_snapshots:
            _no_snapshot(node, lineno)
    return sc


_EVENT_KEYS = {
    "put": {"cf"},
    "observe": {"obs"},
    "bind": {"dest", "res", "pmin", "pmax"},
    "deploy": {"file", "data", "block", "loader"},
    "notify": {"counter"},
    "crash": {"down"},
}


def _parse_event(at, verb, rest, lineno, node_names, client_names) -> ScenarioEvent:
    if verb not in EVENT_VERBS:
        raise ParseError(f"unknown event verb {verb!r}", lineno)
    args: dict = {}
    known = _EVENT_KEYS.get(verb, set())
    positional: list[str] = []
    kv: dict[str, str] = {}
    for tok in rest:
        key, sep, value = tok.partition("=")
        if sep and key in known:
            kv[key] = value
        else:
            positional.append(tok)

    for name in EVENT_VERBS[verb]:
        if not positional:
            raise ParseError(f"{verb}: missing <{name}>", lineno)
        value = positional.pop(0)
        if name == "client":
            _declared(value, client_names, lineno)
        elif name == "node":
            _declared(value, node_names, lineno)
        elif name == "path":
            value = value.lstrip("/")
        elif name == "value":
            value = _payload(value)
        elif name == "on|off":
            if value not in ("on", "off"):
                raise ParseError(f"{verb}: expected on|off", lineno)
            name, value = "on", value == "on"
        args[name] = value
    if positional:
        raise ParseError(f"{verb}: unexpected argument {positional[0]!r}", lineno)

    if verb == "put":
        args["cf"] = _int(kv.get("cf", "0"), lineno)
        _valid(lineno, validate_options, OptionSet(content_format=args["cf"]))
    elif verb == "observe":
        args["obs"] = _int(kv.get("obs", "0"), lineno)
        _valid(lineno, validate_options, OptionSet(observe=args["obs"]))
    elif verb == "bind":
        for key in ("dest", "res"):
            if key not in kv:
                raise ParseError(f"bind: missing {key}=", lineno)
        args["dest"] = kv["dest"]
        args["res"] = kv["res"].lstrip("/")
        args["pmin"] = _int(kv.get("pmin", "0"), lineno)
        args["pmax"] = _int(kv.get("pmax", "86400"), lineno)
        info = BindingInfo(args["dest"], args["res"], args["pmin"], args["pmax"])
        _valid(lineno, validate_options,
               OptionSet(uri_path=tuple(args["res"].split("/")), binding=info))
    elif verb == "deploy":
        for key in ("file", "data"):
            if key not in kv:
                raise ParseError(f"deploy: missing {key}=", lineno)
        args["file"] = kv["file"]
        args["data"] = _payload(kv["data"])
        args["block"] = _int(kv.get("block", "64"), lineno)
        args["loader"] = kv.get("loader", DEFAULT_LOADER_PATH).lstrip("/")
        _valid(lineno, validate_options,
               OptionSet(uri_path=tuple(args["loader"].split("/")),
                         uri_query=(f"file={args['file']}",),
                         block1=Block1(0, False, args["block"])))
    elif verb == "notify":
        args["counter"] = _int(kv["counter"], lineno) if "counter" in kv else None
        if args["counter"] == OBSERVE_DEREGISTER_VALUE:
            raise ParseError("notify: counter=1 is the observe cancellation sentinel", lineno)
        _valid(lineno, validate_options, OptionSet(observe=args["counter"]))
    elif verb == "crash":
        args["down"] = _nonnegative(kv.get("down", "1000"), lineno, "crash: down")

    if "path" in args:  # the Uri-Path options the event's request would carry
        _valid(lineno, validate_options, OptionSet(uri_path=tuple(args["path"].split("/"))))
    return ScenarioEvent(at, verb, args, lineno)


def _check_args(check: str, args: list[str], lineno: int,
                node_names: dict[str, NodeDecl]) -> None:
    if check == "trace-contains":
        if not args:
            raise ParseError(f"{check}: missing <text>", lineno)
        return
    for name, value in itertools.zip_longest(ASSERT_CHECKS[check], args):
        if name is None:
            raise ParseError(f"{check}: unexpected argument {value!r}", lineno)
        if value is None:
            raise ParseError(f"{check}: missing <{name}>", lineno)
        if name == "node":
            _declared(value, node_names, lineno)
        elif name in ("count", "counter"):
            _int(value, lineno)
        elif name == "types" and value != "-":
            for number in value.split(","):
                _int(number, lineno)


def _declared(name: str, names: Container[str], lineno: int) -> None:
    if name not in names:
        raise ParseError(f"undeclared name {name!r}", lineno)


def _no_snapshot(node: str, lineno: int) -> None:
    """A `restored` check of `node` that no `snapshot` check runs before."""
    raise ParseError(f"restored: no snapshot of {node!r} runs before it", lineno)


def _need(rest: list[str], n: int, lineno: int, usage: str) -> None:
    """Exactly `n` arguments."""
    if len(rest) < n:
        raise ParseError(f"usage: {usage}", lineno)
    if len(rest) > n:
        raise ParseError(f"unexpected argument {rest[n]!r}", lineno)


def _one(rest: list[str], lineno: int, head: str) -> str:
    _need(rest, 1, lineno, f"{head} <value>")
    return rest[0]


def _int(text: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected integer, got {text!r}", lineno) from None


def _float(text: str, lineno: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"expected number, got {text!r}", lineno) from None
    if not math.isfinite(value):
        raise ParseError(f"expected a finite number, got {text!r}", lineno)
    return value


def _nonnegative(text: str, lineno: int, what: str) -> float:
    value = _float(text, lineno)
    if value < 0:
        raise ParseError(f"{what} must be nonnegative", lineno)
    return value


def _valid(lineno: int, check, *args, **kwargs) -> None:
    """Run the check a value meets later (a `LinkModel` is built, a message
    encoded) at parse time, so that its `ValueError` is a parse error."""
    try:
        check(*args, **kwargs)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None


def _rdc(text: str, lineno: int) -> RDC:
    try:
        return RDC(text)
    except ValueError:
        raise ParseError(f"unknown rdc {text!r}", lineno) from None


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())
