"""The statements of `src/sdgateway` that the program's real traffic never
runs, and whether tier-1 runs them.

The traffic is what the command line and the benchmark run:

- both bundled scenarios through `sdgw run`: plain, with `--no-intercept`
  and with `--measure-overhead`;
- two `sdgw sweep` runs: hops 1..3 under both RDC models, and the rdc
  parameter;
- one seed-1 repeat of each workload of `bench/workloads.py`, as
  `bench/run.py` makes one: set-up, run, digest and operation count.

A `sys.settrace` line tracer, limited to the files of `src/sdgateway`,
records the lines that run.  Then tier-1 (`tests` and `bench`) runs
through `pytest.main` under the same tracer, with its lines kept apart.

For each module the report lists the statements the traffic never runs,
docstrings aside, in runs of neighbouring statements: first and last
line, `tier-1` when tier-1 runs them and `never` when neither does, and
the first line of the run.  A function the traffic never calls is one
statement.  Below a `tier-1` run, indented, come the statements in it
that tier-1 does not run either.  A statement runs when a line of its
header runs, or any statement inside it.  The line trace cannot see a
branch that is always taken, a field that keeps its default, or a
parameter that always gets one value: those need reading.

pytest does not collect this file; it imports `bench/workloads.py` and
changes nothing there.  Run from the root of a source checkout:

    PYTHONPATH=src python tests/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sdgateway"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]


class LineTracer:
    """Records, per file of `PACKAGE`, the line numbers that run.

    Each file has one local trace function, made when its first frame is
    called, so tracing allocates nothing per call: the cyclic-garbage
    checks of tier-1 hold under it."""

    def __init__(self) -> None:
        self.lines: dict[str, set[int]] = defaultdict(set)
        self._local: dict[str, object] = {}  # co_filename -> its trace function, or None

    def _call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        local = self._local.get(filename, self)
        if local is self:
            path = Path(filename).resolve()
            local = self._local[filename] = (
                _line_tracer(self.lines[str(path)]) if path.parent == PACKAGE else None)
        return local

    def __enter__(self) -> "LineTracer":
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(None)


def _line_tracer(lines: set[int]):
    def line(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return line
    return line


def traffic(out: Path) -> None:
    """Run the command line and the benchmark workloads once."""
    from sdgateway.cli import main
    import workloads as W

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for scenario in sorted((PACKAGE / "scenarios").glob("*.scn")):
            for flags in ([], ["--no-intercept"], ["--measure-overhead"]):
                main(["run", str(scenario), "--out", str(out), *flags])
        main(["sweep", "--param", "hops", "--range", "1..3", "--reps", "2", "--rdc", "both",
              "--out", str(out / "hops.csv")])
        main(["sweep", "--param", "rdc", "--range", "nullrdc,contikimac", "--reps", "2",
              "--out", str(out / "rdc.csv")])
    for workload in W.WORKLOADS.values():
        prepared = [W.prepare(sc) for sc in workload.generate(1)]
        for p in prepared:
            W.execute(p)
            W.operations(p)
        W.digest(prepared)
        W.gateway_frames(prepared)


def tier1() -> str:
    """Run tier-1; its pytest summary line."""
    import pytest

    with contextlib.redirect_stdout(io.StringIO()) as log:
        pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                     str(ROOT / "tests"), str(ROOT / "bench")])
    return log.getvalue().strip().splitlines()[-1]


# -- the report ----------------------------------------------------------------

def _body(block: list, owner: bool) -> list:
    """The statements of `block` that compile to code: a docstring, the
    first statement of a module, class or function body (`owner`), does not."""
    if (owner and block and isinstance(block[0], ast.Expr)
            and isinstance(block[0].value, ast.Constant) and isinstance(block[0].value.value, str)):
        block = block[1:]
    return [s for s in block if not isinstance(s, (ast.Global, ast.Nonlocal))]


def _blocks(node: ast.stmt) -> list[list]:
    owner = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    blocks = [_body(getattr(node, name), owner and name == "body")
              for name in ("body", "orelse", "finalbody")
              if isinstance(getattr(node, name, None), list)]
    blocks += [_body(h.body, False) for h in getattr(node, "handlers", ())]
    blocks += [_body(c.body, False) for c in getattr(node, "cases", ())]
    return blocks


def _is_def(node: ast.stmt) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def _first(node: ast.stmt) -> int:
    return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])


def _header_ran(node: ast.stmt, hits: set[int]) -> bool:
    body = getattr(node, "body", None)
    last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
    return any(line in hits for line in range(_first(node), max(last, node.lineno) + 1))


def _ran(node: ast.stmt, hits: set[int]) -> bool:
    """Whether `node` ran; for a function, whether it was ever called."""
    inner = any(_ran(s, hits) for block in _blocks(node) for s in block)
    return inner if _is_def(node) else inner or _header_ran(node, hits)


def _runs(block: list, hits: set[int], other: set[int] | None):
    """(statements, mark) for the statements of `block` that `hits` never
    runs, grouped into runs of neighbours with one mark, and (statement,
    None) for each statement that it runs."""
    run, run_mark = [], None
    for node in block:
        mark = None if _ran(node, hits) else (
            "tier-1" if other is not None and _ran(node, other) else "never")
        if run and mark != run_mark:
            yield run, run_mark
            run = []
        run.append(node)
        run_mark = mark
        if mark is None:
            yield run, None
            run = []
    if run:
        yield run, run_mark


def report(block: list, hits: set[int], other: set[int] | None, lines: list[str],
           depth: int, out: list[str]) -> None:
    """Append to `out` the runs of `block` that `hits` never runs; below a
    `tier-1` run, the statements in it that `other` never runs either."""
    for run, mark in _runs(block, hits, other):
        if mark is None:
            for node in run:
                report([s for b in _blocks(node) for s in b], hits, other, lines, depth, out)
            continue
        first, last = _first(run[0]), run[-1].end_lineno
        span = f"{first}" if first == last else f"{first}-{last}"
        text = lines[first - 1].strip()
        out.append(f"  {span:>9}  {mark:<6}  {'    ' * depth}{text[:72]}")
        if mark == "tier-1":
            for node in run:
                report([s for b in _blocks(node) for s in b], other, None, lines,
                       depth + 1, out)


def count(block: list, hits: set[int]) -> tuple[int, int]:
    """(statements, those `hits` never runs), a function's body included."""
    total = missed = 0
    for node in block:
        total += 1
        missed += not (_header_ran(node, hits) or any(
            _ran(s, hits) for b in _blocks(node) for s in b))
        for inner in _blocks(node):
            t, m = count(inner, hits)
            total, missed = total + t, missed + m
    return total, missed


def main() -> int:
    seen = LineTracer()
    with tempfile.TemporaryDirectory() as out, seen:
        traffic(Path(out))
    by_traffic = {name: set(lines) for name, lines in seen.lines.items()}
    with seen:
        summary = tier1()
    sections, totals = [f"tier-1 under the tracer: {summary}"], [0, 0, 0]
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        module = _body(ast.parse(source).body, True)
        hits, tier1_hits = by_traffic.get(str(path), set()), seen.lines.get(str(path), set())
        out: list[str] = []
        report(module, hits, tier1_hits, source.splitlines(), 0, out)
        total, missed = count(module, hits)
        _, never = count(module, tier1_hits)
        totals = [totals[0] + total, totals[1] + missed, totals[2] + never]
        sections.append(f"{path.relative_to(ROOT)}: {missed} of {total} statements "
                        f"not run by the traffic, {never} not by tier-1 either")
        sections += out
    print("\n".join(sections))
    print(f"total: {totals[1]} of {totals[0]} statements not run by the traffic, "
          f"{totals[2]} not by tier-1 either")
    return 0


if __name__ == "__main__":
    sys.exit(main())
