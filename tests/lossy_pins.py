"""Per-run pins of the lossy set: one row per run, keyed (scenario, seed,
loss), in `lossy_pins.tsv`.

A row holds the first 16 hex digits of the sha256 over the run's trace
text, metrics CSV, directory snapshot lines and check outcomes (or the
exception that aborted it), and the run's record count per trace kind.
The client's notification records are left out: they are not an output of
the gateway.  A change that moves a row names the run and how its records
moved; a change that means to move it regenerates the table and says why.

    python tests/lossy_pins.py --table > tests/lossy_pins.tsv
    python tests/lossy_pins.py --dump DIR   # each run's artifacts, for diff -r
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.resources
import sys
from collections import Counter
from pathlib import Path

from worldutil import random_interaction_scenario
from sdgateway.harness import ScenarioRun, csv_text
from sdgateway.scenario import load_scenario
from sdgateway.sim import TRACE_KINDS

TABLE = Path(__file__).with_name("lossy_pins.tsv")

# Each rendered kind's variants: the `name=text` words its line always
# shows, and the name `emit` takes for it.
_VARIANTS: dict[str, list[tuple[set, str]]] = {}
for _name, _layout in TRACE_KINDS.items():
    _kind, *_words = _layout.split()
    _VARIANTS.setdefault(_kind, []).append(({w for w in _words if "=" in w}, _name))


def lossy_set():
    """Both bundled scenarios at seeds 1-12 and loss 0.1 and 0.25, then
    criterion 4's generator at seeds 0-49 and loss 0.05, 0.1 and 0.25:
    198 runs that retransmit, give up, drop duplicates and abort.  Yields
    each run's key and scenario."""
    for name in ("fig12_19.scn", "bind_deploy.scn"):
        for seed in range(1, 13):
            for loss in (0.1, 0.25):
                sc = load_scenario(Path(importlib.resources.files("sdgateway")
                                        / "scenarios" / name))
                sc.seed, sc.loss = seed, loss
                yield (name, seed, loss), sc
    for seed in range(50):
        for loss in (0.05, 0.1, 0.25):
            sc = random_interaction_scenario(seed)
            sc.loss = loss
            yield ("generator", seed, loss), sc


def run(sc) -> tuple[ScenarioRun, str | None]:
    """Run `sc` to its end; an abort is an outcome like any other."""
    result, abort = ScenarioRun(sc), None
    try:
        result.advance()
        result.finish()
    except Exception as exc:
        abort = f"{type(exc).__name__}: {exc}"
    return result, abort


@functools.cache
def finished() -> tuple[tuple[tuple, ScenarioRun, str | None], ...]:
    """Every run of `lossy_set()` as `(key, result, abort)`, simulated on
    the first call and kept for the rest of the process, so the checks
    that each need the whole set share one pass."""
    return tuple((key, *run(sc)) for key, sc in lossy_set())


def artifacts(result: ScenarioRun, abort: str | None) -> dict[str, str]:
    """The hashed artifacts of one run, by the file name a dump gives them."""
    world = result.world
    return {"trace.txt": world.sim.trace.text(),
            "metrics.csv": csv_text(result.metrics),
            "snapshot.txt": "\n".join(world.gateway.directory.snapshot_lines()),
            "outcome.txt": repr((result.assertions, abort))}


def kind_counts(trace_text: str) -> Counter:
    """Records per trace kind, by the name `emit` takes for it."""
    counts: Counter = Counter()
    for line in trace_text.splitlines():
        kind, *words = line.split()[1:]
        words = set(words)
        counts[next(name for constants, name in _VARIANTS[kind] if constants <= words)] += 1
    return counts


def pin(texts: dict[str, str]) -> tuple[str, Counter]:
    digest = hashlib.sha256()
    for text in texts.values():
        digest.update(text.encode() + b"\0")
    return digest.hexdigest()[:16], kind_counts(texts["trace.txt"])


def format_row(key, digest: str, counts: Counter) -> str:
    name, seed, loss = key
    return "\t".join([name, str(seed), str(loss), digest,
                      " ".join(f"{kind}={n}" for kind, n in sorted(counts.items()))])


def load_table(path: Path = TABLE) -> dict[tuple, tuple[str, Counter]]:
    table = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, seed, loss, digest, counts = line.split("\t")
        table[name, int(seed), float(loss)] = (digest, Counter(
            {kind: int(n) for kind, _, n in (w.partition("=") for w in counts.split())}))
    return table


def moved(table: dict, got: dict) -> list[str]:
    """One line per run whose pin differs from the table's row, with each
    kind's change in record count; runs missing on either side too."""
    lines = [f"{key}: not run" for key in table if key not in got]
    lines += [f"{key}: not in the table" for key in got if key not in table]
    for key in table.keys() & got.keys():
        (want, want_counts), (have, have_counts) = table[key], got[key]
        if want == have and want_counts == have_counts:
            continue
        deltas = [f"{kind} {have_counts[kind] - want_counts[kind]:+d}"
                  for kind in sorted(want_counts.keys() | have_counts.keys())
                  if have_counts[kind] != want_counts[kind]]
        lines.append(f"{key}: {want} -> {have}: {', '.join(deltas) or 'same record counts'}")
    return sorted(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--table", action="store_true",
                       help="print the table of this tree's pins to stdout")
    group.add_argument("--dump", metavar="DIR", type=Path,
                       help="write each run's artifacts under DIR/<scenario>-<seed>-<loss>/")
    args = parser.parse_args(argv)
    if args.table:
        print("# scenario\tseed\tloss\tsha256[:16]\trecords per trace kind")
    for key, sc in lossy_set():
        texts = artifacts(*run(sc))
        if args.table:
            print(format_row(key, *pin(texts)))
            continue
        out = args.dump / "-".join(map(str, key))
        out.mkdir(parents=True, exist_ok=True)
        for file_name, text in texts.items():
            (out / file_name).write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
