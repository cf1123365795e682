"""Properties of the program's source text."""

import ast
from pathlib import Path

import sdgateway

SOURCES = sorted(Path(sdgateway.__file__).parent.glob("*.py"))


def test_program_has_no_assert_statements():
    # `python -O` strips `assert`, so a runtime invariant must raise instead.
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found
