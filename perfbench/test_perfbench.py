"""Tests of the benchmark's own logic on synthetic inputs (no program
import, no sockets).  Run from the repository root with

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time

import pytest

from perfbench import metrics, phases, run
from perfbench.phases import Collector, open_loop
from perfbench.ledger import (
    SeqLedger,
    percentile,
    split_blocks,
    spread,
    tail_support,
    window_counts,
)
from perfbench.spans import SpanRecorder, covered

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- percentiles ------------------------------------------------------------
def test_percentile_interpolates_and_reports_its_sample_count():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(values, 50) == (3.0, 5)
    assert percentile(values, 0) == (1.0, 5)
    assert percentile(values, 100) == (5.0, 5)
    assert percentile(values, 90) == (pytest.approx(4.6), 5)


def test_percentile_matches_inclusive_quantiles():
    values = [float(v * v % 97) for v in range(1, 200)]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    assert percentile(values, 90)[0] == pytest.approx(deciles[8])
    assert percentile(values, 50)[0] == pytest.approx(statistics.median(values))


def test_percentile_of_nothing_is_nan_with_zero_count():
    value, count = percentile([], 50)
    assert math.isnan(value) and count == 0
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_tail_support_counts_samples_beyond_the_percentile():
    assert tail_support(1200, 99) == 12
    assert tail_support(360, 90) == 36
    assert tail_support(50, 99) == 0


def test_spread_is_interquartile_distance_over_median():
    values = [9.0, 10.0, 10.0, 10.0, 11.0]
    low, _, high = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((high - low) / 10.0)
    assert spread([2.0] * 6) == 0.0


def test_blocks_cover_the_window_and_the_last_takes_the_remainder():
    blocks = split_blocks(10, 23, 5)
    assert [len(b) for b in blocks] == [4, 4, 4, 4, 7]
    assert blocks[0].start == 10 and blocks[-1].stop == 33
    assert split_blocks(0, 3, 0) == [range(0, 3)]
    assert split_blocks(0, 2, 5) == [range(0, 1), range(1, 2)]


def test_window_counts_bucket_times_and_drop_the_rest():
    times = [0.1, 0.5, 0.99, 1.0, 2.7, 3.5, -0.1]
    assert window_counts(times, 0.0, 1.0, 3) == [3, 1, 1]


# -- sequence accounting -------------------------------------------------------
def _ledger(first: int, sent: int) -> SeqLedger:
    ledger = SeqLedger(first)
    for _ in range(sent):
        ledger.sent_one()
    return ledger


def test_every_sequence_delivered_once_is_complete():
    ledger = _ledger(100, 5)
    assert [ledger.record(seq, True) for seq in range(100, 105)] == [True] * 5
    assert ledger.complete()
    assert ledger.delivered_frac() == 1.0
    assert ledger.failed == 0


def test_duplicates_fail_and_never_lift_the_delivered_share():
    ledger = _ledger(0, 4)
    for seq in (0, 1, 1, 1, 2, 3, 3):
        ledger.record(seq, True)
    assert ledger.delivered == 4
    assert ledger.duplicates == 3
    assert ledger.delivered_frac() == 1.0
    assert ledger.failed == 3


def test_stragglers_outside_the_window_are_ignored():
    # Warm-up messages 0..9 arrive after the window [10, 20) opened: a
    # count-based ratio would read 15/10.
    ledger = _ledger(10, 10)
    for seq in range(5, 20):
        ledger.record(seq, True)
    assert ledger.stragglers == 5
    assert ledger.delivered_frac() == 1.0
    assert ledger.record(20, True) is False  # not sent yet


def test_missing_and_late_messages_count_as_failed():
    ledger = _ledger(0, 10)
    for seq in range(8):
        ledger.record(seq, True)
    ledger.close()
    assert ledger.record(8, True) is False  # after the drain deadline
    assert ledger.late == 1
    assert ledger.delivered_frac() == pytest.approx(0.8)
    assert ledger.failed == 2


def test_a_corrupt_delivery_is_counted_and_not_delivered():
    ledger = _ledger(0, 3)
    ledger.record(0, True)
    ledger.record(1, False)
    ledger.record(1, True)  # a second copy does not repair the first
    ledger.record(2, True)
    assert ledger.corrupt == 1
    assert ledger.duplicates == 1
    assert ledger.delivered == 2
    assert ledger.failed == 2


def test_corrupt_arrivals_count_even_when_late_or_unowned():
    collector = Collector()
    ledger = collector.phase()
    seq = ledger.sent_one()
    collector.drain(ledger, 0.0)  # deadline already passed
    collector.arrive(seq, False, 1.0, 1.0)
    collector.arrive(10_000, False, 1.0, 1.0)  # garbled sequence number
    collector.arrive(10_001, True, 1.0, 1.0)  # an intact stray is no fault
    assert ledger.late == 1
    assert collector.corrupt() == 2


def test_collector_routes_arrivals_to_the_owning_phase():
    collector = Collector()
    warm = collector.phase()
    warm_seqs = [warm.sent_one() for _ in range(3)]
    measured = collector.phase()
    assert measured.first == warm_seqs[-1] + 1
    seq = measured.sent_one()
    collector.arrive(warm_seqs[0], True, 1.0, 1.1)
    collector.arrive(seq, True, 2.0, 2.1)
    assert measured.delivered == 1 and warm.delivered == 1
    assert collector.arrivals[seq] == (2.0, 2.1)


class _FakeRig:
    """Delivers every message synchronously, checks nothing."""

    rate_hz = 500.0
    window = 2
    construct_span = "fake.construct"
    publish_span = "fake.publish"
    deliver_span = "fake.deliver"

    def __init__(self, collector: Collector, corrupt_every: int = 0) -> None:
        self.collector = collector
        self.corrupt_every = corrupt_every

    def build(self, seq: int) -> int:
        return seq

    def publish(self, seq: int) -> None:
        ok = not (self.corrupt_every and seq % self.corrupt_every == 0)
        now = time.perf_counter()
        self.collector.arrive(seq, ok, now, now)


def test_open_loop_traces_alternate_blocks_and_spans_tile_messages(
        monkeypatch):
    monkeypatch.setattr(phases, "TRACE_BLOCK_S", 0.01)  # 5-message blocks
    collector = Collector()
    recorder = SpanRecorder()
    result = open_loop(_FakeRig(collector), collector, 0.1, trace=True,
                       recorder=recorder)
    assert result["ledger"].delivered == result["ledger"].sent == 50
    assert len(result["traced"]) == 25
    assert len(result["latencies"]) == 50
    names = {span[0] for span in recorder.spans}
    assert names == {"msg", "gen.late", "fake.construct", "fake.publish",
                     "fake.deliver", "sub.callback"}
    residues = recorder.self_times()["msg"]
    assert len(residues) == 25
    # Only the generator's own bookkeeping lies between the layer spans.
    assert all(0.0 <= r < 1e-3 for r in residues)


def test_corruption_makes_the_run_incorrect_and_exit_nonzero():
    collector = Collector()
    rig = _FakeRig(collector, corrupt_every=7)
    open_loop(rig, collector, 0.05)
    assert collector.corrupt() > 0
    assert run.exit_code({"correct": collector.corrupt() == 0}) == run.EXIT_CORRUPT
    assert run.exit_code({"correct": True}) == 0


# -- spans: self time and residue ---------------------------------------------
def test_covered_merges_overlaps_and_clips_to_the_window():
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)]) == 5.0
    assert covered(0.0, 10.0, [(-5.0, -1.0), (11.0, 12.0)]) == 0.0
    assert covered(0.0, 10.0, [(0.0, 10.0), (3.0, 4.0)]) == 10.0


def test_self_time_subtracts_children_and_leaves_the_residue():
    recorder = SpanRecorder()
    # One message: 10 units end to end, layers cover 9 of them.
    recorder.add("msg", 0.0, 10.0, None, 1)
    recorder.add("construct", 0.0, 3.0, "msg", 1)
    recorder.add("publish", 3.0, 5.0, "msg", 1)
    recorder.add("deliver", 6.0, 10.0, "msg", 1)
    recorder.add("callback", 10.0, 10.5, "msg", 1)  # after the root ends
    # A second message whose spans must not leak into the first.
    recorder.add("msg", 20.0, 24.0, None, 2)
    recorder.add("deliver", 20.0, 24.0, "msg", 2)
    self_times = recorder.self_times()
    assert self_times["msg"] == [pytest.approx(1.0), pytest.approx(0.0)]
    assert self_times["construct"] == [3.0]
    assert self_times["callback"] == [0.5]


def test_nested_self_time():
    recorder = SpanRecorder()
    recorder.add("setup", 0.0, 10.0, None, "s0")
    recorder.add("setup.nodes", 1.0, 5.0, "setup", "s0")
    recorder.add("inner", 2.0, 3.0, "setup.nodes", "s0")
    times = recorder.self_times()
    assert times["setup"] == [6.0]
    assert times["setup.nodes"] == [3.0]


def test_spans_are_written_as_json(tmp_path):
    recorder = SpanRecorder()
    recorder.add("msg", 1.0, 2.0, None, 7)
    path = tmp_path / "out" / "spans.json"
    recorder.write(str(path))
    assert json.loads(path.read_text()) == [
        {"name": "msg", "start": 1.0, "end": 2.0, "parent": None, "msg": 7}
    ]


# -- the contract ----------------------------------------------------------------
def test_benchmark_json_mirrors_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        doc = json.load(f)
    assert doc == metrics.benchmark_json(doc["command"], doc["paths"],
                                         doc["run_seconds"])
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in doc[key]]
    assert len(names) == len(set(names))
    setup = [row for row in doc["end_to_end"] if row["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        row["bound"] for row in doc["end_to_end"])


def test_without_program_sources_the_command_fails_without_a_result(tmp_path):
    target = tmp_path / "perfbench"
    target.mkdir()
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        if name.endswith(".py"):
            (target / name).write_bytes(
                open(os.path.join(ROOT, "perfbench", name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "camera_shm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == run.EXIT_NO_PROGRAM
    assert proc.stdout == ""


def test_the_shared_memory_resource_tracker_does_not_outlive_the_run():
    script = (
        "import os, sys\n"
        "from multiprocessing import resource_tracker, shared_memory\n"
        "from perfbench import run\n"
        "shm = shared_memory.SharedMemory(create=True, size=4096)\n"
        "shm.close(); shm.unlink()\n"
        "pid = resource_tracker._resource_tracker._pid\n"
        "run.stop_helper_processes()\n"
        "print(pid, os.path.exists(f'/proc/{pid}'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    pid, alive = proc.stdout.split()
    assert int(pid) > 0 and alive == "False"
