"""Properties of the program's source text."""

import ast
from pathlib import Path

import pytest

import sdgateway
from sdgateway.sim import TRACE_KINDS

SOURCES = sorted(Path(sdgateway.__file__).parent.glob("*.py"))


def test_program_has_no_assert_statements():
    # `python -O` strips `assert`, so a runtime invariant must raise instead.
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found


def unbounded_caches(source: str) -> list[int]:
    """Lines of `functools` caches without a finite integer `maxsize`: any
    `cache`, a bare `lru_cache`, or an `lru_cache(...)` whose size is not an
    int literal or a module constant bound to one."""
    tree = ast.parse(source)
    constants = {target.id: node.value.value
                 for node in tree.body if isinstance(node, ast.Assign)
                 for target in node.targets
                 if isinstance(target, ast.Name) and isinstance(node.value, ast.Constant)}
    imported = {alias.asname or alias.name: alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "functools"
                for alias in node.names}

    def functools_name(node) -> str:
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", "") == "functools":
            return node.attr
        return imported.get(node.id, "") if isinstance(node, ast.Name) else ""

    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and functools_name(node.func) == "lru_cache":
            size = node.args[0] if node.args else next(
                (k.value for k in node.keywords if k.arg == "maxsize"), None)
            if isinstance(size, ast.Name):
                size = ast.Constant(constants.get(size.id))
            value = getattr(size, "value", None)
            if not isinstance(value, int) or isinstance(value, bool):
                found.append(node.lineno)
        elif functools_name(node) == "cache" or (
                functools_name(node) == "lru_cache" and id(node) not in called):
            found.append(node.lineno)
    return found


def test_every_cache_in_the_program_is_bounded():
    checked = [path.name for path in SOURCES if "lru_cache" in path.read_text(encoding="utf-8")]
    assert "coap.py" in checked
    found = {path.name: unbounded_caches(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert not any(found.values()), found


@pytest.mark.parametrize("source,bounded", [
    ("@functools.lru_cache(maxsize=64)\ndef f(x): pass", True),
    ("SIZE = 64\n@functools.lru_cache(maxsize=SIZE)\ndef f(x): pass", True),
    ("from functools import lru_cache\n@lru_cache(128)\ndef f(x): pass", True),
    ("cache = {}\ncache[1] = 2", True),
    ("@functools.cache\ndef f(x): pass", False),
    ("from functools import cache\n@cache\ndef f(x): pass", False),
    ("@functools.lru_cache\ndef f(x): pass", False),
    ("from functools import lru_cache as memo\n@memo()\ndef f(x): pass", False),
    ("@functools.lru_cache(maxsize=None)\ndef f(x): pass", False),
    ("SIZE = None\n@functools.lru_cache(maxsize=SIZE)\ndef f(x): pass", False),
    ("@functools.lru_cache(maxsize=SIZE)\ndef f(x): pass", False),
    ("def g(x): pass\nf = functools.lru_cache(maxsize=None)(g)", False),
])
def test_unbounded_cache_check_flags_what_it_should(source, bounded):
    assert (unbounded_caches(source) == []) is bounded


# Each trace kind's number of given fields: the words of its layout after
# the kind, less the constant `name=text` ones.
FIELD_COUNTS = {name: sum("=" not in word for word in layout.split()[1:])
                for name, layout in TRACE_KINDS.items()}


def renders_text(arg) -> bool:
    """Whether an expression makes text: an f-string, `str(...)`, a
    `format` call, `.short()`, `summarize(...)`, or a `.value` or
    `.summary` read."""
    for node in ast.walk(arg):
        if (isinstance(node, ast.JoinedStr)
                or isinstance(node, ast.Attribute) and node.attr in ("value", "summary")
                or isinstance(node, ast.Call)
                and _called(node.func) in ("str", "format", "short", "summarize")):
            return True
    return False


def bad_emits(source: str) -> list[int]:
    """Lines of `emit(...)` calls that do not name a `TRACE_KINDS` kind as a
    string literal, that pass anything but that kind's number of fields,
    each as one positional argument, or that make text for a field: the
    trace makes it when it is read."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or _called(node.func) != "emit":
            continue
        kind = node.args[0] if node.args else None
        name = kind.value if isinstance(kind, ast.Constant) else None
        if (name not in FIELD_COUNTS or node.keywords
                or any(isinstance(a, ast.Starred) for a in node.args)
                or len(node.args) - 1 != FIELD_COUNTS[name]
                or any(renders_text(a) for a in node.args[1:])):
            found.append(node.lineno)
    return found


def test_every_trace_emit_names_a_kind_and_its_fields():
    checked = {path.name for path in SOURCES if ".emit(" in path.read_text(encoding="utf-8")}
    assert {"lln.py", "gateway.py", "directory.py", "recovery.py"} <= checked
    found = {path.name: bad_emits(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert not any(found.values()), found


@pytest.mark.parametrize("source,ok", [
    ("trace.emit('send', a, b, c)", True),
    ("self.sim.trace.emit('drop_loss', f.src, f.dst, f.raw)", True),
    ("trace.emit('sd_remove', why, int(e.entry_type), s, uri, mid, n)", True),
    ("trace.emit('reg', node, status)", True),
    ("retry = lambda n: trace.emit('retransmit', node, uri, mid, n)", True),
    ("emit('boot', name, epoch)", True),
    ("trace.emitted('send')", True),
    ("trace.emit('send', a, b)", False),
    ("trace.emit('send', a, b, c, d)", False),
    ("trace.emit('drop_loss', a, b, c, why='loss')", False),
    ("trace.emit('send', src=a, dst=b, msg=c)", False),
    ("trace.emit('send', *values)", False),
    ("trace.emit('send', a, b, *rest)", False),
    ("trace.emit(kind, a, b, c)", False),
    ("trace.emit('no_such_kind', a)", False),
    ("trace.emit()", False),
    ("self.sim.trace.emit('drop_loss', f.src, f.dst, f.summary)", False),
    ("trace.emit('send', a, b, f'{c}')", False),
    ("trace.emit('send', a, b, str(c))", False),
    ("trace.emit('reg', node, status.value)", False),
    ("trace.emit('reg', node, TEXT[status.value])", False),
    ("trace.emit('send', a, b, msg.short())", False),
    ("trace.emit('send', a, b, decode(raw).short())", False),
    ("trace.emit('send', a, b, coap.summarize(f.raw))", False),
    ("trace.emit('send', a, b, '{}'.format(c))", False),
    ("trace.emit('send', a, b, format(c, 'x'))", False),
])
def test_emit_check_flags_what_it_should(source, ok):
    assert (bad_emits(source) == []) is ok


def _called(func) -> str:
    """The name a call is made through: `f` for `f(...)` and `x.f(...)`."""
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def frames_of_encoded_bytes(source: str) -> list[int]:
    """Lines that build a `Frame` from bytes `encode` may have just written:
    `Frame(x, ...)` where `x` contains an `encode(...)` call, or is a name
    assigned in the same function from an expression that contains one.
    `Frame.of` builds that frame without parsing the bytes again."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    def encodes(expr) -> bool:
        return any(isinstance(node, ast.Call) and _called(node.func) == "encode"
                   for node in ast.walk(expr))

    def own_nodes(scope):
        # The nodes of `scope`, less those of the functions defined in it.
        for child in ast.iter_child_nodes(scope):
            if not isinstance(child, functions):
                yield child
                yield from own_nodes(child)

    found = []
    for scope in ast.walk(ast.parse(source)):
        if not isinstance(scope, (ast.Module,) + functions):
            continue
        nodes = list(own_nodes(scope))
        encoded = {target.id for node in nodes
                   if isinstance(node, ast.Assign) and encodes(node.value)
                   for target in node.targets if isinstance(target, ast.Name)}
        for node in nodes:
            if not (isinstance(node, ast.Call) and _called(node.func) == "Frame"):
                continue
            raw = node.args[0] if node.args else next(
                (k.value for k in node.keywords if k.arg == "raw"), None)
            if raw is not None and (encodes(raw) or isinstance(raw, ast.Name)
                                    and raw.id in encoded):
                found.append(node.lineno)
    return sorted(found)


def test_no_frame_is_built_from_encoded_bytes():
    checked = [path.name for path in SOURCES if "Frame.of(" in path.read_text(encoding="utf-8")]
    assert {"gateway.py", "lln.py", "recovery.py"} <= set(checked)
    found = {path.name: frames_of_encoded_bytes(path.read_text(encoding="utf-8"))
             for path in SOURCES}
    assert not any(found.values()), found


@pytest.mark.parametrize("source,ok", [
    ("frame = Frame.of(msg, src, dst)", True),
    ("send(Frame(ack, source, frame.src))", True),
    ("def f():\n    raw = encode(m)\n\ndef g(raw):\n    return Frame(raw, a, b)", True),
    ("Frame(encode(msg), src, dst)", False),
    ("lln.Frame(coap.encode(msg), src, dst)", False),
    ("Frame(raw=encode(msg), src=a, dst=b)", False),
    ("def f():\n    raw = encode(m)\n    return Frame(raw, a, b)", False),
    ("send(Frame(encode(reply), source, frame.src))", False),
    ("ack = keep(src, mid, encode(empty_ack(mid)))\nsend(Frame(ack, src, dst))", False),
    ("def f():\n    ack = kept or keep(p, encode(m))\n    send(Frame(ack, a, b))", False),
])
def test_encoded_frame_check_flags_what_it_should(source, ok):
    assert (frames_of_encoded_bytes(source) == []) is ok


# The heapq functions that put an entry on a heap.
_HEAP_PUSHES = frozenset({"heappush", "heappushpop", "heapreplace"})


def heap_push_sites(source: str) -> list[str]:
    """Each mention of a heapq push (a call, an alias, an import or the
    name as text), as the function it is in: `Class.method`, or `<module>`."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            name = (child.attr if isinstance(child, ast.Attribute)
                    else child.id if isinstance(child, ast.Name)
                    else child.name if isinstance(child, ast.alias)
                    else child.value if isinstance(child, ast.Constant) else None)
            if name in _HEAP_PUSHES:
                sites.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return sites


def test_only_schedule_at_puts_events_on_the_heap():
    # The benchmark traces each event by wrapping `Simulator.schedule_at`,
    # and checks that a traced run equals an untraced one: an event put on
    # the heap another way would escape both.
    found = {path.name: heap_push_sites(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert found.pop("sim.py") == ["Simulator.schedule_at"]
    assert not any(found.values()), found


@pytest.mark.parametrize("source,sites", [
    ("class S:\n    def schedule_at(self):\n        heapq.heappush(self.q, e)",
     ["S.schedule_at"]),
    ("def run(q):\n    heapq.heappop(q)\n    heapq.heapify(q)", []),
    ("def f(q):\n    heapq.heappush(q, 1)", ["f"]),
    ("from heapq import heappush\nheappush(q, 1)", ["<module>", "<module>"]),
    ("import heapq as h\nclass S:\n    def g(self):\n        push = h.heappush", ["S.g"]),
    ("def f(q):\n    heapq.heapreplace(q, 1)\n    heapq.heappushpop(q, 2)", ["f", "f"]),
    ("def f(q):\n    getattr(heapq, 'heappush')(q, 1)", ["f"]),
])
def test_heap_push_check_flags_what_it_should(source, sites):
    assert heap_push_sites(source) == sites
