import gc
import math
import os
import random
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import sdgateway
import sdgateway.sim
from sdgateway.harness import canonical_recovery_scenario, run_scenario
from sdgateway.lln import RDC, LinkModel
from sdgateway.sim import Simulator


def test_events_pop_in_time_then_fifo_order():
    sim = Simulator()
    out = []
    sim.schedule(5.0, out.append, "b")
    sim.schedule(1.0, out.append, "a")
    sim.schedule(5.0, out.append, "c")  # same time as "b", scheduled later
    sim.run()
    assert out == ["a", "b", "c"]
    assert sim.now == 5.0


def test_cancelled_events_do_not_fire():
    sim = Simulator()
    out = []
    keep = sim.schedule(1.0, out.append, 1)
    drop = sim.schedule(2.0, out.append, 2)
    sim.cancel(drop)
    sim.run()
    assert out == [1]
    assert keep[0] == 1.0  # an event is `[time, seq, fn, args]`


def test_run_until_leaves_later_events_pending():
    sim = Simulator()
    out = []
    sim.schedule(10.0, out.append, "late")
    sim.run(until=5.0)
    assert out == []
    assert sim.now == 5.0
    sim.run()
    assert out == ["late"]


def test_a_run_past_the_event_budget_raises(monkeypatch):
    # The budget is per `run` call; a small one stands for the real 2,000,000.
    monkeypatch.setattr(sdgateway.sim, "MAX_EVENTS", 5)
    sim = Simulator()
    out = []
    for i in range(6):
        sim.schedule(float(i), out.append, i)
    with pytest.raises(RuntimeError, match="event budget exhausted"):
        sim.run()
    assert out == [0, 1, 2, 3, 4] and sim.now == 4.0


def test_schedule_into_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError, match="into the past"):
        sim.schedule_at(0.5, lambda: None)
    with pytest.raises(ValueError, match="into the past"):
        sim.schedule(-0.1, lambda: None)


PAST_SCHEDULE = """
from sdgateway.sim import Simulator
sim = Simulator()
sim.schedule(1.0, lambda: None)
sim.run()
try:
    sim.schedule_at(0.5, lambda: None)
except ValueError:
    print("raised", len(sim._queue))
"""


def _run_optimized(code: str) -> str:
    src = str(Path(sdgateway.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_schedule_into_past_rejected_under_python_O():
    assert _run_optimized(PAST_SCHEDULE).split() == ["raised", "0"]


@pytest.mark.parametrize("how,when", [
    ("schedule_at", math.nan), ("schedule_at", math.inf),
    ("schedule", math.nan), ("schedule", math.inf),
])
def test_schedule_at_a_non_finite_time_rejected(how, when):
    sim = Simulator()
    with pytest.raises(ValueError, match="non-finite"):
        getattr(sim, how)(when, lambda: None)
    assert sim._queue == []


NON_FINITE_SCHEDULE = """
from sdgateway.sim import Simulator
sim = Simulator()
for how, when in (("schedule_at", float("nan")), ("schedule", float("inf"))):
    try:
        getattr(sim, how)(when, lambda: None)
    except ValueError:
        print("raised", len(sim._queue))
"""


def test_schedule_at_a_non_finite_time_rejected_under_python_O():
    out = _run_optimized(NON_FINITE_SCHEDULE)
    assert out.split() == ["raised", "0", "raised", "0"]


def test_trace_lines_render_stably():
    sim = Simulator()
    sim.trace.emit("boot", "n1", 1)
    sim.schedule(2.5, lambda: sim.trace.emit("crash", "n1", 1, 500.0))
    sim.run()
    lines = sim.trace.lines()
    assert lines[0].endswith("boot node=n1 epoch=1")
    assert lines[1].startswith("       2.500 crash")
    assert sim.trace.find("crash", node="n1")


def test_trace_records_are_a_new_list_of_tuples_on_each_access():
    sim = Simulator()
    sim.trace.emit("boot", "n1", 1)
    sim.schedule(2.5, lambda: sim.trace.emit("crash", "n1", 1, 500.0))
    sim.run()
    records = sim.trace.records
    assert records == [(0.0, "boot", {"node": "n1", "epoch": 1}),
                       (2.5, "crash", {"node": "n1", "epoch": 1, "downtime": 500.0})]
    assert sim.trace.records is not records  # a new list on each access
    assert sim.trace.find("crash", node="n2") == []


def test_trace_records_stay_out_of_the_cyclic_collector():
    sim = Simulator()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for i in range(1000):
            sim.trace.emit("client_retransmit", "c1", i, 1)
        tracked = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert tracked < 10
    assert len(sim.trace.records) == 1000


def small_trace():
    sim = Simulator()
    sim.trace.emit("boot", "n1", 1)
    sim.schedule(1.0, lambda: sim.trace.emit("client_retransmit", "c1", 7, 1))
    sim.schedule(2.5, lambda: sim.trace.emit("crash", "n1", 1, 500.0))
    sim.run()
    return sim


SMALL_RECORDS = [(0.0, "boot", {"node": "n1", "epoch": 1}),
                 (1.0, "client_retransmit", {"client": "c1", "mid": 7, "attempt": 1}),
                 (2.5, "crash", {"node": "n1", "epoch": 1, "downtime": 500.0})]


def test_trace_records_view_counts_indexes_and_slices_as_a_list():
    records = small_trace().trace.records
    assert len(records) == 3
    assert records == SMALL_RECORDS and SMALL_RECORDS == records
    assert records != SMALL_RECORDS[:2] and records != SMALL_RECORDS[::-1]
    assert records != tuple(SMALL_RECORDS) and repr(records) == repr(SMALL_RECORDS)
    for i in range(-3, 3):
        assert records[i] == SMALL_RECORDS[i]
    for cut in (slice(1, None), slice(None, -1), slice(None, None, -1), slice(0, 3, 2),
                slice(5, 9), slice(2, 1)):
        assert records[cut] == SMALL_RECORDS[cut]
    for bad in (3, -4):
        with pytest.raises(IndexError):
            records[bad]


def test_trace_records_view_iterates_again_and_stays_live():
    sim = small_trace()
    records = sim.trace.records
    assert list(records) == list(records) == SMALL_RECORDS
    sim.schedule(1.0, lambda: sim.trace.emit("boot", "n1", 2))
    sim.run()
    assert len(records) == 4 and records[-1] == (3.5, "boot", {"node": "n1", "epoch": 2})
    assert records == sim.trace.records


def test_trace_records_view_builds_one_record_at_a_time():
    """Counting records through the view peaks at a small fraction of the
    memory that building all of them at once takes."""
    trace = run_scenario(canonical_recovery_scenario(
        hops=3, rdc=RDC.NULLRDC, state_count=400, seed=1)).world.sim.trace
    assert len(trace.records) >= 5000

    def peak(read):
        tracemalloc.start()
        try:
            result = read()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    count, streamed = peak(lambda: sum(1 for _, kind, fields in trace.records
                                       if kind == "recv" and fields["at"] == "gw"))
    listed, built = peak(lambda: list(trace.records))
    assert count == sum(1 for _, kind, fields in listed
                        if kind == "recv" and fields["at"] == "gw") > 0
    assert streamed < 0.2 * built


@pytest.mark.parametrize("emit", [False, True])
def test_trace_write_gives_the_text_bytes(emit, tmp_path):
    sim = small_trace() if emit else Simulator()
    sim.trace.write(tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "a.txt")
    text = sim.trace.text().encode()
    assert emit or text == b"\n"
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes() == text


def test_link_model_defaults_follow_rdc():
    assert LinkModel(rdc=RDC.NULLRDC).delay_range == (5.0, 15.0)
    assert LinkModel(rdc=RDC.CONTIKIMAC).delay_range == (50.0, 250.0)


@pytest.mark.parametrize("kwargs", [
    {"hops": 0},
    {"loss": 1.0},
    {"loss": -0.1},
    {"delay_range": (-1.0, 5.0)},
    # Caught at construction: otherwise a delay that is not finite or a hop
    # count that is not an int fails only at the first send, and `lo > hi`
    # not at all.
    {"delay_range": (5.0, math.inf)},
    {"delay_range": (math.nan, 5.0)},
    {"delay_range": (5.0, math.nan)},
    {"delay_range": (15.0, 5.0)},
    {"hops": 2.5},
    {"hops": True},
])
def test_link_model_rejects_bad_parameters(kwargs):
    (field,) = kwargs  # the error names the one field given
    with pytest.raises(ValueError, match=field):
        LinkModel(**kwargs)


def test_degenerate_delay_is_exactly_hops_times_delay():
    rng = random.Random(0)
    link = LinkModel(hops=3, delay_range=(10.0, 10.0))
    for _ in range(20):
        assert link.sample_delay(rng) == 30.0
        assert link.draw_lost(rng) is False


@pytest.mark.parametrize("delay_range", [(5.0, 15.0), (50.0, 250.0), (5, 15), (0.1, 0.7)])
def test_sample_delay_is_the_sum_of_uniform_draws(delay_range):
    # The reference: one `uniform` draw per hop, summed.  The same floats
    # to the last bit, and the generator left in the same state.
    for hops in range(1, 7):
        link = LinkModel(hops=hops, delay_range=delay_range)
        rng, ref = random.Random(hops), random.Random(hops)
        for _ in range(200):
            expected = sum(ref.uniform(*delay_range) for _ in range(hops))
            assert link.sample_delay(rng).hex() == expected.hex()
        assert rng.getstate() == ref.getstate()


def test_contikimac_slower_than_nullrdc_on_seed_paired_samples():
    draws = 1000
    null_link = LinkModel(hops=3, rdc=RDC.NULLRDC)
    mac_link = LinkModel(hops=3, rdc=RDC.CONTIKIMAC)
    null_mean = statistics.fmean(null_link.sample_delay(random.Random(i))
                                 for i in range(draws))
    mac_mean = statistics.fmean(mac_link.sample_delay(random.Random(i))
                                for i in range(draws))
    assert mac_mean > null_mean


@pytest.mark.parametrize("rdc", [RDC.NULLRDC, RDC.CONTIKIMAC])
def test_mean_delay_nondecreasing_in_hops(rdc):
    rng = random.Random(1234)
    means = []
    for hops in range(1, 6):
        link = LinkModel(hops=hops, rdc=rdc)
        means.append(statistics.fmean(link.sample_delay(rng) for _ in range(1000)))
    assert means == sorted(means)


def test_three_hop_nullrdc_one_way_stays_under_50ms():
    rng = random.Random(7)
    link = LinkModel(hops=3, rdc=RDC.NULLRDC)
    samples = [link.sample_delay(rng) for _ in range(2000)]
    assert max(samples) < 50.0  # so an association round trip stays < 100 ms


def test_loss_draw_rate_tracks_probability():
    rng = random.Random(5)
    link = LinkModel(hops=1, loss=0.3)
    lost = sum(link.draw_lost(rng) for _ in range(4000))
    assert 0.25 < lost / 4000 < 0.35


# -- the event queue against a reference model ------------------------------

# Few distinct delays, so same-time events (ties) are common.
DELAYS = (0.0, 0.0, 1.0, 2.5, 5.0)
MAX_LABELS = 120


class ReferenceQueue:
    """The specification of the event queue: a plain list kept sorted by
    (time, insertion order); a cancelled entry is removed from it."""

    def __init__(self) -> None:
        self.now = 0.0
        self.pending: list[ReferenceEntry] = []
        self.inserted = 0

    def schedule(self, delay, fn, *args):
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time, fn, *args):
        entry = ReferenceEntry((time, self.inserted), fn, args)
        self.inserted += 1
        self.pending.append(entry)
        self.pending.sort(key=lambda e: e.key)
        return entry

    def cancel(self, entry) -> None:
        self.pending = [e for e in self.pending if e is not entry]

    def run(self, until=None):
        while self.pending and (until is None or self.pending[0].key[0] <= until):
            entry = self.pending.pop(0)
            self.now = entry.key[0]
            entry.fn(*entry.args)
        if until is not None and until > self.now:
            self.now = until


class ReferenceEntry:
    def __init__(self, key, fn, args) -> None:
        self.key, self.fn, self.args = key, fn, args


def _handler_plan(seed: int, label: int):
    """What the handler of the label-th scheduled event does, drawn from
    (seed, label) alone: the events it schedules (delay 0.0 is the current
    time) and the earlier event it cancels, which may already have fired."""
    rng = random.Random(f"{seed}:{label}")
    children = []
    if label < MAX_LABELS:
        children = [(rng.choice(("schedule", "schedule_at")), rng.choice(DELAYS))
                    for _ in range(rng.choice((0, 0, 1, 1, 2)))]
    cancel = rng.randrange(label) if label and rng.random() < 0.25 else None
    return children, cancel


def _drive(queue, seed: int, ops) -> list:
    """Apply `ops` to `queue`; return every fired event and `now` after
    each operation, in order."""
    log, handles = [], []

    def add(how, delay):
        label = len(handles)
        if how == "schedule":
            handles.append(queue.schedule(delay, fire, label))
        else:
            handles.append(queue.schedule_at(queue.now + delay, fire, label))

    def fire(label):
        log.append(("fire", label, queue.now))
        children, cancel = _handler_plan(seed, label)
        for how, delay in children:
            add(how, delay)
        if cancel is not None:
            queue.cancel(handles[cancel])

    for op, value in ops:
        if op in ("schedule", "schedule_at"):
            add(op, value)
        elif op == "cancel":
            if handles:
                queue.cancel(handles[value % len(handles)])
        else:
            queue.run() if value is None else queue.run(until=queue.now + value)
        log.append((op, "now", queue.now))
    return log


def _ops(seed: int):
    rng = random.Random(seed)
    ops = []
    for _ in range(60):
        roll = rng.random()
        if roll < 0.5:
            ops.append((rng.choice(("schedule", "schedule_at")), rng.choice(DELAYS)))
        elif roll < 0.7:
            ops.append(("cancel", rng.randrange(1000)))
        else:
            ops.append(("run", rng.choice((0.0, 1.0, 2.5, 4.0, 10.0, None))))
    return ops + [("run", None)]


@pytest.mark.parametrize("seed", range(40))
def test_event_queue_matches_sorted_reference(seed):
    ops = _ops(seed)
    got = _drive(Simulator(), seed, ops)
    want = _drive(ReferenceQueue(), seed, ops)
    assert got == want
    assert sum(entry[0] == "fire" for entry in want) > 10
