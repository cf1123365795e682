"""Scenario files: structured plain text driving one simulation run.

Line-oriented, `#` comments, shell-style quoting.  A header block sets
run parameters, `node`/`client`/`resource`/`flash` declare the topology,
`at <ms> <verb> ...` lines schedule timed events and `assert <ms|final>
<check> ...` lines schedule assertions.  Event times must be
nondecreasing, every number finite and in range, and every event must
reference a declared name.
"""

from __future__ import annotations

import math
import shlex
from dataclasses import dataclass, field
from typing import Optional

from .coap import BindingInfo, Block1, OptionSet, validate_options
from .directory import DeployMode
from .lln import RDC, LinkModel, NotifyPolicy

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
    "silence": ("client", "flag"),
    "blackhole": ("node", "flag"),
}

ASSERT_CHECKS = {
    "sd-types", "sd-count", "sd-obs", "resource", "observer-count",
    "observer-client", "snapshot", "restored", "trace-contains",
}


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
    loader: str = "ldr"
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
    pacing_gap: float = 50.0
    deploy_mode: DeployMode = DeployMode.FILENAME_ONLY
    notify_policy: NotifyPolicy = NotifyPolicy.NON_FIRST
    settle: float = 30_000.0
    nodes: list[NodeDecl] = field(default_factory=list)
    clients: list[ClientDecl] = field(default_factory=list)
    events: list[ScenarioEvent] = field(default_factory=list)
    asserts: list[ScenarioAssert] = field(default_factory=list)

    def end_time(self) -> float:
        times = [e.time for e in self.events]
        times += [a.time for a in self.asserts if a.time is not None]
        return (max(times) if times else 0.0) + self.settle

    def node_by_name(self, name: str) -> NodeDecl:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(name)


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
    node_names: set[str] = set()
    client_names: set[str] = set()
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
        elif head == "notify-policy":
            value = _one(rest, lineno, head)
            try:
                sc.notify_policy = NotifyPolicy(value)
            except ValueError:
                raise ParseError(f"unknown notify policy {value!r}", lineno) from None
        elif head == "settle":
            sc.settle = _nonnegative(_one(rest, lineno, head), lineno, head)
        elif head == "node":
            if len(rest) < 2:
                raise ParseError("node <name> <addr> [k=v...]", lineno)
            name, addr = rest[0], rest[1]
            if name in node_names or name in client_names:
                raise ParseError(f"duplicate name {name!r}", lineno)
            kv = _kv(rest[2:], lineno)
            decl = NodeDecl(name, addr,
                            hops=_int(kv["hops"], lineno) if "hops" in kv else None,
                            loss=_float(kv["loss"], lineno) if "loss" in kv else None,
                            loader=kv.get("loader", "ldr"))
            _valid(lineno, LinkModel, hops=1 if decl.hops is None else decl.hops,
                   loss=decl.loss or 0.0)
            sc.nodes.append(decl)
            node_names.add(name)
        elif head == "client":
            _need(rest, 2, lineno, "client <name> <addr>")
            if rest[0] in client_names or rest[0] in node_names:
                raise ParseError(f"duplicate name {rest[0]!r}", lineno)
            sc.clients.append(ClientDecl(rest[0], rest[1]))
            client_names.add(rest[0])
        elif head == "resource":
            _need(rest, 3, lineno, "resource <node> <path> <value>")
            _declared(rest[0], node_names, lineno)
            sc.node_by_name(rest[0]).resources[rest[1].lstrip("/")] = _payload(rest[2])
        elif head == "flash":
            _need(rest, 3, lineno, "flash <node> <filename> <data>")
            _declared(rest[0], node_names, lineno)
            sc.node_by_name(rest[0]).flash[rest[1]] = _payload(rest[2])
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
            if check != "trace-contains":
                _declared(args[0] if args else "", node_names, lineno)
            sc.asserts.append(ScenarioAssert(at, check, args, lineno))
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)

    if not saw_version:
        raise ParseError("missing 'version' header line", 1)
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

    def pop(what: str) -> str:
        if not positional:
            raise ParseError(f"{verb}: missing <{what}>", lineno)
        return positional.pop(0)

    if verb in ("put", "get", "observe", "deregister", "rst", "bind", "deploy"):
        args["client"] = pop("client")
        _declared(args["client"], client_names, lineno)
        args["node"] = pop("node")
        _declared(args["node"], node_names, lineno)
    elif verb in ("boot", "change", "notify", "crash", "blackhole"):
        args["node"] = pop("node")
        _declared(args["node"], node_names, lineno)
    elif verb == "silence":
        args["client"] = pop("client")
        _declared(args["client"], client_names, lineno)

    if verb == "put":
        args["path"] = pop("path").lstrip("/")
        args["value"] = _payload(pop("value"))
        args["cf"] = _int(kv.get("cf", "0"), lineno)
        _valid(lineno, validate_options, OptionSet(content_format=args["cf"]))
    elif verb == "get":
        args["path"] = pop("path").lstrip("/")
    elif verb == "observe":
        args["path"] = pop("path").lstrip("/")
        args["obs"] = _int(kv.get("obs", "0"), lineno)
        _valid(lineno, validate_options, OptionSet(observe=args["obs"]))
    elif verb in ("deregister", "rst"):
        args["path"] = pop("path").lstrip("/")
    elif verb == "bind":
        args["path"] = pop("path").lstrip("/")
        for key in ("dest", "res"):
            if key not in kv:
                raise ParseError(f"bind: missing {key}=", lineno)
        args["dest"] = kv["dest"]
        args["res"] = kv["res"].lstrip("/")
        args["pmin"] = _int(kv.get("pmin", "0"), lineno)
        args["pmax"] = _int(kv.get("pmax", "86400"), lineno)
        info = BindingInfo(args["dest"], args["res"], args["pmin"], args["pmax"])
        _valid(lineno, validate_options, OptionSet(binding=info))
    elif verb == "deploy":
        for key in ("file", "data"):
            if key not in kv:
                raise ParseError(f"deploy: missing {key}=", lineno)
        args["file"] = kv["file"]
        args["data"] = _payload(kv["data"])
        args["block"] = _int(kv.get("block", "64"), lineno)
        _valid(lineno, validate_options, OptionSet(block1=Block1(0, False, args["block"])))
        args["loader"] = kv.get("loader", "ldr").lstrip("/")
    elif verb == "change":
        args["path"] = pop("path").lstrip("/")
        args["value"] = _payload(pop("value"))
    elif verb == "notify":
        args["path"] = pop("path").lstrip("/")
        args["counter"] = _int(kv["counter"], lineno) if "counter" in kv else None
        _valid(lineno, validate_options, OptionSet(observe=args["counter"]))
    elif verb == "crash":
        args["down"] = _nonnegative(kv.get("down", "1000"), lineno, "crash: down")
    elif verb in ("silence", "blackhole"):
        flag = pop("on|off")
        if flag not in ("on", "off"):
            raise ParseError(f"{verb}: expected on|off", lineno)
        args["on"] = flag == "on"

    return ScenarioEvent(at, verb, args, lineno)


def _declared(name: str, names: set[str], lineno: int) -> None:
    if name not in names:
        raise ParseError(f"undeclared name {name!r}", lineno)


def _need(rest: list[str], n: int, lineno: int, usage: str) -> None:
    if len(rest) < n:
        raise ParseError(f"usage: {usage}", lineno)


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
