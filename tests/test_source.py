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


def bad_emits(source: str) -> list[int]:
    """Lines of `emit(...)` calls that do not name a `TRACE_KINDS` kind as a
    string literal, or that pass anything but that kind's number of fields,
    each as one positional argument."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")) != "emit":
            continue
        kind = node.args[0] if node.args else None
        name = kind.value if isinstance(kind, ast.Constant) else None
        if (name not in FIELD_COUNTS or node.keywords
                or any(isinstance(a, ast.Starred) for a in node.args)
                or len(node.args) - 1 != FIELD_COUNTS[name]):
            found.append(node.lineno)
    return found


def test_every_trace_emit_names_a_kind_and_its_fields():
    checked = {path.name for path in SOURCES if ".emit(" in path.read_text(encoding="utf-8")}
    assert {"lln.py", "gateway.py", "directory.py", "recovery.py"} <= checked
    found = {path.name: bad_emits(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert not any(found.values()), found


@pytest.mark.parametrize("source,ok", [
    ("trace.emit('send', a, b, c)", True),
    ("self.sim.trace.emit('drop_loss', f.src, f.dst, f.summary)", True),
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
])
def test_emit_check_flags_what_it_should(source, ok):
    assert (bad_emits(source) == []) is ok
