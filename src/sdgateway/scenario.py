"""Scenario files: structured plain text driving one simulation run.

Line-oriented, `#` comments, shell-style quoting.  A header block sets
run parameters, `node`/`client`/`resource`/`flash` declare the topology,
`at <ms> <verb> ...` lines schedule timed events and `assert <ms|final>
<check> ...` lines schedule assertions.  Event times must be
nondecreasing, every number finite and in range, every line must take
exactly its arguments and keys, and every event and check must reference
a declared name.  Each verb is one `VERBS` entry and each check one
`CHECKS` entry, read by the parser, by `harness._dispatch` and
`harness._evaluate`, and by the checked builders `Scenario.event` and
`Scenario.check`.
"""

from __future__ import annotations

import itertools
import math
import shlex
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from .coap import OBSERVE_DEREGISTER_VALUE, BindingInfo, Block1, OptionSet, validate_options
from .directory import DeployMode, EntryType
from .lln import DEFAULT_LOADER_PATH, RDC, LinkModel

SCENARIO_VERSION = 1

class ParseError(Exception):
    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class AssertionFailure(Exception):
    def __init__(self, names: list[str]) -> None:
        super().__init__("failed assertions: " + "; ".join(names))
        self.names = names


class _Usage(ValueError):
    """A misuse of one verb's or check's arguments: its message gets the name."""


# -- argument values: each takes an argument as scenario text or as the value
# the text stands for, and returns the value or raises ValueError.

def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _payload(value) -> bytes:
    """Bytes, or text that is `hex:`-prefixed, `text:`-prefixed or plain."""
    if isinstance(value, bytes):
        return value
    if _text(value).startswith("hex:"):
        return bytes.fromhex(value[4:])
    return value.removeprefix("text:").encode("utf-8")


def _int(value) -> int:
    if type(value) is int:
        return value
    try:
        return int(_text(value))
    except ValueError:
        raise ValueError(f"expected integer, got {value!r}") from None


def _float(value) -> float:
    number = value
    if isinstance(value, str):
        try:
            number = float(value)
        except ValueError:
            raise ValueError(f"expected number, got {value!r}") from None
    if type(number) not in (int, float) or not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(number)


def _nonnegative(value: float, what: str, error=ValueError) -> float:
    if value < 0:
        raise error(f"{what} must be nonnegative")
    return value


def _uri_path(value) -> str:
    """A resource path without its leading slashes."""
    value = _text(value).lstrip("/")
    validate_options(OptionSet(uri_path=tuple(value.split("/"))))
    return value


def _on_off(value) -> bool:
    if value in ("on", "off") or type(value) is bool:
        return value in ("on", True)
    raise _Usage("expected on|off")


def _counter(value) -> Optional[int]:
    if value is not None and _int(value) == OBSERVE_DEREGISTER_VALUE:
        raise _Usage("counter=1 is the observe cancellation sentinel")
    return value if value is None else _int(value)


REQUIRED = object()  # the default of a key that every event must give
_MISSING = object()  # an argument not given
_NO_SNAPSHOT = "restored: no snapshot of {!r} runs before it"


class Arg(NamedTuple):
    """A key of a verb: its check, and its default."""
    check: Callable[[object], object] = _text
    default: object = REQUIRED


# The positional arguments of verbs, by the name usage messages give them:
# each one's key in an event's `args`, and its check.  A `node` or `client`
# must be declared.
POSITIONAL = {
    "client": ("client", _text),
    "node": ("node", _text),
    "path": ("path", _uri_path),
    "value": ("value", _payload),
    "on|off": ("on", _on_off),
}


class Verb(NamedTuple):
    """A verb: its positional arguments, its action on a `harness.World`
    given the event's args, its keys, and the options its request carries,
    which are checked as `encode` checks them."""
    positional: tuple[str, ...]
    act: Callable[[object, dict], None]
    keys: dict[str, Arg] = {}
    options: Callable[[dict], OptionSet] = lambda a: OptionSet()


def _addr(world, a: dict) -> str:
    return world.nodes[a["node"]].addr


def _binding(a: dict) -> BindingInfo:
    return BindingInfo(a["dest"], a["res"], a["pmin"], a["pmax"])


VERBS = {
    "boot": Verb(("node",), lambda w, a: w.nodes[a["node"]].boot()),
    "put": Verb(("client", "node", "path", "value"),
                lambda w, a: w.clients[a["client"]].put(_addr(w, a), a["path"], a["value"],
                                                        cf=a["cf"]),
                {"cf": Arg(_int, 0)}, lambda a: OptionSet(content_format=a["cf"])),
    "get": Verb(("client", "node", "path"),
                lambda w, a: w.clients[a["client"]].get(_addr(w, a), a["path"])),
    "observe": Verb(("client", "node", "path"),
                    lambda w, a: w.clients[a["client"]].observe(_addr(w, a), a["path"],
                                                                obs=a["obs"]),
                    {"obs": Arg(_int, 0)}, lambda a: OptionSet(observe=a["obs"])),
    "deregister": Verb(("client", "node", "path"),
                       lambda w, a: w.clients[a["client"]].deregister(_addr(w, a), a["path"])),
    "rst": Verb(("client", "node", "path"),
                lambda w, a: w.clients[a["client"]].cancel_with_rst(_addr(w, a), a["path"])),
    "bind": Verb(("client", "node", "path"),
                 lambda w, a: w.clients[a["client"]].bind(_addr(w, a), a["path"], _binding(a)),
                 {"dest": Arg(), "res": Arg(_uri_path), "pmin": Arg(_int, 0),
                  "pmax": Arg(_int, 86400)},
                 lambda a: OptionSet(binding=_binding(a))),
    "deploy": Verb(("client", "node"),
                   lambda w, a: w.clients[a["client"]].deploy(
                       _addr(w, a), a["file"], a["data"], block_size=a["block"],
                       loader_path=a["loader"]),
                   {"file": Arg(), "data": Arg(_payload), "block": Arg(_int, 64),
                    "loader": Arg(_uri_path, DEFAULT_LOADER_PATH)},
                   lambda a: OptionSet(uri_query=(f"file={a['file']}",),
                                       block1=Block1(0, False, a["block"]))),
    "change": Verb(("node", "path", "value"),
                   lambda w, a: w.nodes[a["node"]].change_resource(a["path"], a["value"])),
    "notify": Verb(("node", "path"),
                   lambda w, a: w.nodes[a["node"]].notify(a["path"], a["counter"]),
                   {"counter": Arg(_counter, None)}, lambda a: OptionSet(observe=a["counter"])),
    "crash": Verb(("node",), lambda w, a: w.nodes[a["node"]].crash(a["down"]),
                  {"down": Arg(lambda v: _nonnegative(_float(v), "down", _Usage), 1000.0)}),
    "silence": Verb(("client", "on|off"),
                    lambda w, a: w.clients[a["client"]].silence(a["on"])),
    "blackhole": Verb(("node", "on|off"), lambda w, a: (
        w.network.blackholes.add if a["on"] else w.network.blackholes.discard)(_addr(w, a))),
}


class Check(NamedTuple):
    """A check: its arguments, the last taking one or more words when
    `variadic`, and its evaluation, which takes a `harness.World`, the
    check's args and the snapshots so far by node name, and returns the
    problem, or None when the check holds."""
    args: tuple[str, ...]
    evaluate: Callable[[object, list, dict], Optional[str]]
    variadic: bool = False


def _types(value) -> list[int]:
    """`-` (none), or a comma-separated list of integers."""
    return [] if _text(value) == "-" else [_int(number) for number in value.split(",")]


# How check arguments are checked, by name; any other is a string.  A
# check's args stay strings.
_CHECK_ARGS = {"count": _int, "counter": _int, "types": _types}


def _entries(world, a: list) -> list:
    return world.gateway.directory.entries_for_server(world.nodes[a[0]].addr)


def _observers(world, a: list) -> list:
    """The endpoints observing the node's resource `a[1]`."""
    path = a[1].lstrip("/")
    return [ep for (p, ep) in world.nodes[a[0]].observers if p == path]


def _differs(what: str, got, want, shown) -> Optional[str]:
    """None when `got` equals `want`, else the problem, showing `want` as `shown`."""
    return None if got == want else f"{what} {got} != {shown}"


def _sd_obs(world, a: list, _snapshots) -> Optional[str]:
    path, want = a[1].lstrip("/"), int(a[2])
    for e in _entries(world, a):
        if e.entry_type is EntryType.OBSERVE and e.uri_path == path:
            return None if e.observe_counter == want else \
                f"sd observe counter {e.observe_counter} != {want}"
    return f"no OBSERVE entry for {path}"


def _resource(world, a: list, _snapshots) -> Optional[str]:
    path, want = a[1].lstrip("/"), a[2].encode("utf-8")
    got = world.nodes[a[0]].resources.get(path)
    return None if got == want else f"resource {path} = {got!r}, wanted {want!r}"


def _restored(world, a: list, snapshots: dict) -> Optional[str]:
    if a[0] not in snapshots:  # a scenario built without the builders' checks
        return "restored without a prior snapshot"
    return None if world.nodes[a[0]].dynamic_state() == snapshots[a[0]] else \
        "dynamic state differs from snapshot"


CHECKS = {
    "sd-types": Check(("node", "types"), lambda w, a, _: _differs(
        "sd types", [int(e.entry_type) for e in _entries(w, a)], _types(a[1]), _types(a[1]))),
    "sd-count": Check(("node", "count"), lambda w, a, _: _differs(
        "sd count", len(_entries(w, a)), int(a[1]), a[1])),
    "sd-obs": Check(("node", "path", "counter"), _sd_obs),
    "resource": Check(("node", "path", "value"), _resource),
    "observer-count": Check(("node", "path", "count"), lambda w, a, _: _differs(
        "observer count", len(_observers(w, a)), int(a[2]), a[2])),
    "observer-client": Check(("node", "path", "addr"), lambda w, a, _: _differs(
        "observer clients", sorted({ep.addr for ep in _observers(w, a)}), [a[2]], f"[{a[2]}]")),
    "snapshot": Check(("node",), lambda w, a, snapshots: snapshots.update(
        {a[0]: w.nodes[a[0]].dynamic_state()})),
    "restored": Check(("node",), _restored),
    "trace-contains": Check(("text",), lambda w, a, _: None if any(
        all(tok in line for tok in a) for line in w.sim.trace.iter_lines())
        else f"no trace line contains {a}", variadic=True),
}


def _entry(table: dict, name: str, what: str):
    if name not in table:
        raise ValueError(f"unknown {what} {name!r}")
    return table[name]


def _arity(names: tuple, values: list):
    """Pair each of `names` with its value, in order; raise on a missing one
    (`_MISSING`, or past the end of `values`) or on an extra value."""
    for name, value in itertools.zip_longest(names, values, fillvalue=_MISSING):
        if name is _MISSING:
            raise _Usage(f"unexpected argument {value!r}")
        if value is _MISSING:
            raise _Usage(f"missing <{name}>")
        yield name, value


def _event_args(verb: str, positional: list, keyed: dict, names: dict) -> dict:
    """The checked args of a `verb` event; `names` holds the declared names
    by kind."""
    entry, args = VERBS[verb], {}
    try:
        for name, value in _arity(entry.positional, positional):
            key, check = POSITIONAL[name]
            args[key] = check(value)
            if key in names:
                _declared(value, names[key])
        for key in keyed:
            if key not in entry.keys:
                raise _Usage(f"unexpected argument {key!r}")
        for key, arg in entry.keys.items():
            if key not in keyed and arg.default is REQUIRED:
                raise _Usage(f"missing {key}=")
            args[key] = arg.check(keyed[key]) if key in keyed else arg.default
    except _Usage as exc:
        raise ValueError(f"{verb}: {exc}") from None
    validate_options(entry.options(args))
    return args


def _check_args(check: str, args: list, names: dict) -> None:
    entry = _entry(CHECKS, check, "assertion")
    wanted = entry.args + entry.args[-1:] * (len(args) - len(entry.args)) * entry.variadic
    try:
        for name, value in _arity(wanted, args):
            _CHECK_ARGS.get(name, _text)(value)
            if name in names:
                _declared(value, names[name])
    except _Usage as exc:
        raise ValueError(f"{check}: {exc}") from None


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
    deploy_mode: DeployMode = DeployMode.FILENAME_ONLY
    settle: float = 30_000.0
    nodes: list[NodeDecl] = field(default_factory=list)
    clients: list[ClientDecl] = field(default_factory=list)
    events: list[ScenarioEvent] = field(default_factory=list)
    asserts: list[ScenarioAssert] = field(default_factory=list)
    # What `_names` has read: [nodes, clients, how many of each, names].
    _declared: Optional[list] = field(default=None, init=False, repr=False, compare=False)

    def end_time(self) -> float:
        times = [e.time for e in self.events]
        times += [a.time for a in self.asserts if a.time is not None]
        return (max(times) if times else 0.0) + self.settle

    # The builders check what the parser checks, and raise ValueError with
    # the parse error's message.  Each argument may be given as its text on
    # a line or as the value the text stands for; `on|off` is the key `on`.

    def event(self, time: float, verb: str, **args) -> ScenarioEvent:
        """Add the event of `at <time> <verb> ...`."""
        at = self._event_time(_float(time))
        positional = [args.pop(POSITIONAL[name][0], _MISSING)
                      for name in _entry(VERBS, verb, "event verb").positional]
        self.events.append(ScenarioEvent(at, verb, _event_args(
            verb, positional, args, self._names()), 0))
        return self.events[-1]

    def check(self, time: Optional[float], check: str, *args: str) -> ScenarioAssert:
        """Add the check of `assert <time|final> <check> ...` (`time` None is
        final).  A `restored` check needs its snapshot added first."""
        at = None if time is None else _float(time)
        return self._add_check(at, check, list(args), 0, self._names())

    def _names(self) -> dict:
        """The declared names by kind.  They are kept between calls and
        grow as declarations are appended to `nodes` and `clients`, each
        new name checked against those before it; a list that is replaced
        or shortened is read again."""
        declared = self._declared
        if (declared is None or declared[0] is not self.nodes or declared[1] is not self.clients
                or len(self.nodes) < declared[2] or len(self.clients) < declared[3]):
            declared = self._declared = [self.nodes, self.clients, 0, 0,
                                         {"node": set(), "client": set()}]
        nodes, clients, known_nodes, known_clients, names = declared
        try:
            for kind, decls in (("node", nodes[known_nodes:]), ("client", clients[known_clients:])):
                for decl in decls:
                    _fresh(decl.name, names)  # names the first repeat
                    names[kind].add(decl.name)
        except ValueError:
            self._declared = None  # the next call reads every declaration again
            raise
        declared[2], declared[3] = len(nodes), len(clients)
        return names

    def _event_time(self, at: float) -> float:
        _nonnegative(at, "event time")
        if self.events and at < self.events[-1].time:
            raise ValueError("event times must be nondecreasing")
        return at

    def _add_check(self, at: Optional[float], check: str, args: list, line: int,
                   names: dict, later: Optional[list] = None) -> ScenarioAssert:
        """Append a checked assertion.  A final `restored` that no snapshot
        runs before yet goes on `later`, when given, instead of raising."""
        if at is not None:
            _nonnegative(at, "assertion time")
            if at < next((a.time for a in reversed(self.asserts) if a.time is not None), 0.0):
                raise ValueError("assertion times must be nondecreasing")
        _check_args(check, args, names)
        if check == "restored" and not self._snapshot_before(args[0], final=at is None):
            if at is not None or later is None:
                raise ValueError(_NO_SNAPSHOT.format(args[0]))
            later.append((args[0], line))
        self.asserts.append(ScenarioAssert(at, check, args, line))
        return self.asserts[-1]

    def _snapshot_before(self, node: str, final: bool) -> bool:
        """Whether a `snapshot` of `node` added so far runs before a
        `restored`: a timed one runs before every `restored`, a final one
        only before a final one."""
        return any(a.check == "snapshot" and a.args[0] == node
                   and (final or a.time is not None) for a in self.asserts)


def _fresh(name: str, names: dict) -> None:
    if name in names["node"] or name in names["client"]:
        raise ValueError(f"duplicate name {name!r}")


def _declared(name: str, names) -> None:
    if name not in names:
        raise ValueError(f"undeclared name {name!r}")


def _enum(kind, value: str, what: str):
    try:
        return kind(value)
    except ValueError:
        raise ValueError(f"unknown {what} {value!r}") from None


# Header directives that take one value: the `Scenario` field each sets,
# and the value's check.
_HEADERS = {
    "scenario": ("scenario_id", str),
    "seed": ("seed", _int),
    "rdc": ("rdc", lambda v: _enum(RDC, v, "rdc")),
    "hops": ("hops", lambda v: LinkModel(hops=_int(v)).hops),
    "loss": ("loss", lambda v: LinkModel(loss=_float(v)).loss),
    "deploy-mode": ("deploy_mode", lambda v: _enum(DeployMode, v, "deploy mode")),
    "settle": ("settle", lambda v: _nonnegative(_float(v), "settle")),
}
# The keys of a `node` line, checked as the header lines of the same name.
_NODE_KEYS = {"hops": _HEADERS["hops"][1], "loss": _HEADERS["loss"][1], "loader": str}


def _need(rest: list[str], n: int, usage: str) -> None:
    """Exactly `n` arguments."""
    if len(rest) < n:
        raise ValueError(f"usage: {usage}")
    if len(rest) > n:
        raise ValueError(f"unexpected argument {rest[n]!r}")


def parse_scenario(text: str) -> Scenario:
    sc = Scenario()
    node_names: dict[str, NodeDecl] = {}
    names = {"node": node_names, "client": set()}
    # Each final `restored` that no snapshot on an earlier line runs before;
    # a timed `snapshot` on a later line runs before it too.
    final_restores: list[tuple[str, int]] = []
    saw_version = False

    for lineno, rawline in enumerate(text.splitlines(), start=1):
        try:
            tokens = shlex.split(rawline, comments=True)
            if not tokens:
                continue
            head, rest = tokens[0], tokens[1:]
            if head in _HEADERS:
                _need(rest, 1, f"{head} <value>")
                name, check = _HEADERS[head]
                setattr(sc, name, check(rest[0]))
            elif head == "version":
                _need(rest, 1, "version <n>")
                if _int(rest[0]) != SCENARIO_VERSION:
                    raise ValueError(f"unsupported scenario version {rest[0]}")
                saw_version = True
            elif head == "node":
                if len(rest) < 2:
                    raise ValueError("node <name> <addr> [k=v...]")
                _fresh(rest[0], names)
                keys = {}
                for tok in rest[2:]:
                    key, sep, value = tok.partition("=")
                    if not sep:
                        raise ValueError(f"expected key=value, got {tok!r}")
                    if key not in _NODE_KEYS:
                        raise ValueError(f"node: unknown key {key!r}")
                    keys[key] = _NODE_KEYS[key](value)
                decl = NodeDecl(rest[0], rest[1], **keys)
                sc.nodes.append(decl)
                node_names[decl.name] = decl
            elif head == "client":
                _need(rest, 2, "client <name> <addr>")
                _fresh(rest[0], names)
                sc.clients.append(ClientDecl(rest[0], rest[1]))
                names["client"].add(rest[0])
            elif head == "resource":
                _need(rest, 3, "resource <node> <path> <value>")
                _declared(rest[0], node_names)
                node_names[rest[0]].resources[rest[1].lstrip("/")] = _payload(rest[2])
            elif head == "flash":
                _need(rest, 3, "flash <node> <filename> <data>")
                _declared(rest[0], node_names)
                node_names[rest[0]].flash[rest[1]] = _payload(rest[2])
            elif head == "at":
                if len(rest) < 2:
                    raise ValueError("at <ms> <verb> ...")
                at = sc._event_time(_float(rest[0]))
                keys = _entry(VERBS, rest[1], "event verb").keys
                positional: list[str] = []
                keyed: dict[str, str] = {}
                for tok in rest[2:]:
                    key, sep, value = tok.partition("=")
                    if sep and key in keys:
                        keyed[key] = value
                    else:
                        positional.append(tok)
                sc.events.append(ScenarioEvent(at, rest[1], _event_args(
                    rest[1], positional, keyed, names), lineno))
            elif head == "assert":
                if len(rest) < 2:
                    raise ValueError("assert <ms|final> <check> ...")
                at = None if rest[0] == "final" else _float(rest[0])
                sc._add_check(at, rest[1], rest[2:], lineno, names, final_restores)
            else:
                raise ValueError(f"unknown directive {head!r}")
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None

    if not saw_version:
        raise ParseError("missing 'version' header line", 1)
    for node, lineno in final_restores:
        if not sc._snapshot_before(node, final=False):
            raise ParseError(_NO_SNAPSHOT.format(node), lineno)
    return sc


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())
