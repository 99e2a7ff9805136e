"""The workload-independent part of a run: repeated cold set-ups, the
open-loop and closed-loop phases, delivery accounting and the reduction
to metrics.

A workload is a *rig* (see ``camera.py`` and ``fleet.py``) with

* ``setup(clock)`` -- build the graph from nothing, timing each step
  with ``clock.step(name)``, and stop once ``clock.probe`` has seen the
  first delivered message;
* ``build(seq)`` / ``publish(msg)`` -- make one message and hand it to
  the program;
* ``guard()`` -- raise :class:`TransportMismatch` when the negotiated
  links are not the ones the workload claims to measure;
* ``counters()`` -- per-layer counts from the program's public stats;
* ``teardown()``.

Its subscriber callback verifies the content and calls the
:class:`Collector` it was given.
"""

from __future__ import annotations

import contextlib
import math
import resource
import statistics
import threading
import time

from perfbench.ledger import (
    SeqLedger,
    percentile,
    split_blocks,
    window_counts,
)
from perfbench.spans import SpanRecorder

#: Cold set-ups per run; ``setup_s`` is their median.
SETUPS = 21
#: Untimed open-loop warm-up before the measured phases.
WARMUP_S = 1.0
#: Share of ``--seconds`` spent in the open-loop phase; the rest is the
#: closed-loop phase.
OPEN_SHARE = 0.7
#: The open-loop phase is cut into blocks of about this length; latency
#: and CPU metrics are medians over blocks, so a burst of load from
#: outside the benchmark moves at most the blocks it lands in.
BLOCK_S = 4.0
#: Closed-loop throughput is the median over windows of this length.
WINDOW_S = 1.0
#: How long after its last send a phase waits for stragglers.
DRAIN_S = 1.0
#: A closed-loop window that makes no progress for this long is reset
#: (its messages count as lost unless they arrive before the drain ends).
STALL_S = 2.0
#: Set-up probes: one message every PROBE_S until the first arrives.
PROBE_S = 0.02
#: Trace runs alternate untraced and traced open-loop blocks this long,
#: in the order U T T U, so the overhead comparison sees the same machine
#: state, and the same mean position in the run, on both sides.
TRACE_BLOCK_S = 1.0


class TransportMismatch(RuntimeError):
    """The negotiated links are not what the workload claims to measure."""


class Collector:
    """Receives every verified arrival from the rig's callback."""

    def __init__(self) -> None:
        self.ledgers: list[SeqLedger] = []
        #: seq -> (callback entry, callback end)
        self.arrivals: dict[int, tuple[float, float]] = {}
        self.outstanding: set[int] = set()
        self.stray_corrupt = 0
        self.cond = threading.Condition()
        self._next = 1

    def phase(self) -> SeqLedger:
        """A ledger whose window starts after every sequence used so far."""
        if self.ledgers:
            last = self.ledgers[-1]
            self._next = last.first + last.sent
        ledger = SeqLedger(self._next)
        self.ledgers.append(ledger)
        return ledger

    def arrive(self, seq: int, ok: bool, entry: float, done: float) -> None:
        # One lock around the ledger and the arrival time, so a reader
        # holding it never sees a delivered sequence without its time.
        with self.cond:
            for ledger in reversed(self.ledgers):
                if ledger.owns(seq):
                    if ledger.record(seq, ok):
                        self.arrivals[seq] = (entry, done)
                    break
            else:
                # A sequence number no phase sent: if the content check
                # failed too, the number itself may be what was garbled.
                self.stray_corrupt += not ok
            self.outstanding.discard(seq)
            self.cond.notify_all()

    def drain(self, ledger: SeqLedger, deadline: float) -> None:
        """Wait until every sent message arrived or ``deadline`` passed,
        then close the window: no arrival counts for it afterwards."""
        with self.cond:
            self.cond.wait_for(
                ledger.complete, timeout=max(0.0, deadline - time.perf_counter())
            )
            ledger.close()

    def corrupt(self) -> int:
        return self.stray_corrupt + sum(
            ledger.corrupt for ledger in self.ledgers)


class SetupClock:
    """Times one cold set-up, step by step, to its first delivery."""

    def __init__(self, collector: Collector,
                 recorder: SpanRecorder | None, index: int) -> None:
        self.collector = collector
        self.recorder = recorder
        self.msg = f"setup{index}"
        self.steps: dict[str, float] = {}
        self.start = time.perf_counter()
        self.first_delivery = math.nan

    @contextlib.contextmanager
    def step(self, name: str):
        begin = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.steps[name] = self.steps.get(name, 0.0) + end - begin
            if self.recorder is not None:
                self.recorder.add(f"setup.{name}", begin, end, "setup", self.msg)

    def probe(self, build, publish, timeout: float = 10.0) -> None:
        """Publish probes until the first one is delivered."""
        ledger = self.collector.phase()
        with self.step("first_msg"):
            deadline = time.perf_counter() + timeout
            while not ledger.delivered:
                if time.perf_counter() > deadline:
                    raise TimeoutError("no message delivered during set-up")
                publish(build(ledger.sent_one()))
                with self.collector.cond:
                    self.collector.cond.wait_for(
                        lambda: ledger.delivered > 0, timeout=PROBE_S
                    )
            with self.collector.cond:
                ledger.close()
                self.first_delivery = min(
                    self.collector.arrivals[seq][0] for seq in ledger.intact
                )
        if self.recorder is not None:
            self.recorder.add("setup", self.start, self.first_delivery,
                              None, self.msg)

    @property
    def seconds(self) -> float:
        return self.first_delivery - self.start


def open_loop(rig, collector: Collector, seconds: float, trace: bool = False,
              recorder: SpanRecorder | None = None) -> dict:
    """Send at ``rig.rate_hz`` on a fixed schedule for ``seconds``.

    Every sample is timed from its *due* time, so a stalled send also
    delays the samples queued behind it.  With ``trace`` the phase
    alternates untraced and traced blocks; only traced messages get
    spans.
    """
    ledger = collector.phase()
    period = 1.0 / rig.rate_hz
    count = max(1, int(seconds * rig.rate_hz))
    block = max(1, int(TRACE_BLOCK_S * rig.rate_hz))
    due: dict[int, float] = {}
    stamps: dict[int, tuple[float, float, float, float]] = {}
    late: list[float] = []
    traced_seqs: set[int] = set()
    build, publish = rig.build, rig.publish
    blocks = split_blocks(0, count, int(seconds / BLOCK_S))
    block_starts = {block.start for block in blocks}
    cpu_marks: list[float] = []
    start = time.perf_counter() + period
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for index in range(count):
        if index in block_starts:
            cpu_marks.append(time.process_time())
        scheduled = start + index * period
        delay = scheduled - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        woke = time.perf_counter()
        seq = ledger.sent_one()
        due[seq] = scheduled
        if trace and (index // block) % 4 in (1, 2):
            t0 = time.perf_counter()
            msg = build(seq)
            t1 = time.perf_counter()
            publish(msg)
            t2 = time.perf_counter()
            del msg
            stamps[seq] = (woke, t0, t1, t2)
            traced_seqs.add(seq)
        else:
            publish(build(seq))
        late.append(woke - scheduled)
    collector.drain(ledger, start + count * period + DRAIN_S)
    cpu_marks.append(time.process_time())
    cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
    latencies = {
        seq: collector.arrivals[seq][0] - due[seq] for seq in ledger.intact
    }
    if recorder is not None:
        for seq in traced_seqs & ledger.intact:
            entry, done = collector.arrivals[seq]
            woke, t0, t1, t2 = stamps[seq]
            recorder.add("msg", due[seq], entry, None, seq)
            recorder.add("gen.late", due[seq], woke, "msg", seq)
            recorder.add(rig.construct_span, t0, t1, "msg", seq)
            recorder.add(rig.publish_span, t1, t2, "msg", seq)
            recorder.add(rig.deliver_span, t2, entry, "msg", seq)
            recorder.add("sub.callback", entry, done, "msg", seq)
    return {
        "ledger": ledger,
        "latencies": latencies,
        "blocks": [
            range(ledger.first + b.start, ledger.first + b.stop)
            for b in blocks
        ],
        "block_cpu_s": [b - a for a, b in zip(cpu_marks, cpu_marks[1:])],
        "traced": traced_seqs,
        "late": late,
        "cpu_s": cpu,
        "wall_s": wall,
    }


def closed_loop(rig, collector: Collector, seconds: float,
                sample=None) -> dict:
    """Keep ``rig.window`` messages in flight for ``seconds``; the rate is
    what the program sustains.  ``sample()`` runs every ``rig.window``
    sends when given (queue-depth sampling in traced runs)."""
    ledger = collector.phase()
    window = rig.window
    build, publish = rig.build, rig.publish
    cond = collector.cond
    stalls = 0
    samples = []
    begin = time.perf_counter()
    end = begin + seconds
    while True:
        with cond:
            if not cond.wait_for(
                lambda: len(collector.outstanding) < window, timeout=STALL_S
            ):
                collector.outstanding.clear()
                stalls += 1
        if time.perf_counter() >= end:
            break
        seq = ledger.sent_one()
        with cond:
            collector.outstanding.add(seq)
        publish(build(seq))
        if sample is not None and ledger.sent % window == 0:
            samples.append(sample())
    collector.drain(ledger, time.perf_counter() + DRAIN_S)
    with cond:
        collector.outstanding.clear()
    windows = window_counts(
        (collector.arrivals[seq][0] for seq in ledger.intact),
        begin, WINDOW_S, max(1, int(seconds / WINDOW_S)),
    )
    return {
        "ledger": ledger,
        "windows": windows,
        "stalls": stalls,
        "samples": samples,
    }


def rss_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cold_setups(make_rig, collector: Collector,
                recorder: SpanRecorder | None) -> tuple[object, list]:
    """Build the rig ``SETUPS`` times from nothing; tear down all but the
    last, which the measured phases use.  Returns it with every
    set-up's clock."""
    clocks = []
    rig = None
    for index in range(SETUPS):
        if rig is not None:
            rig.teardown()
        rig = make_rig(collector)
        clock = SetupClock(collector, recorder, index)
        try:
            rig.setup(clock)
        except BaseException:
            rig.teardown()
            raise
        clocks.append(clock)
    return rig, clocks


def median_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def measure(make_rig, seconds: float, trace: bool) -> dict:
    """One run of one workload: ``SETUPS`` cold set-ups, warm-up, the
    open-loop then the closed-loop phase, the transport guard.  Returns
    the result dict ``run.py`` prints."""
    collector = Collector()
    recorder = SpanRecorder() if trace else None
    rig, clocks = cold_setups(make_rig, collector, recorder)
    try:
        # Checked up front to fail fast, and again after the phases to
        # catch a link that fell back mid-run.
        rig.guard()
        open_loop(rig, collector, WARMUP_S)
        opened = open_loop(rig, collector, seconds * OPEN_SHARE,
                           trace=trace, recorder=recorder)
        # Peak memory through set-up and the open loop: the closed loop's
        # message count, and so the benchmark's own bookkeeping, varies
        # with the machine.
        rss = rss_peak_mb()
        layer = ({**rig.counters(), "proc.threads": threading.active_count()}
                 if trace else {})
        closed = closed_loop(
            rig, collector, seconds * (1.0 - OPEN_SHARE),
            sample=rig.queue_depth if trace else None,
        )
        rig.guard()
        final = rig.counters()
    finally:
        rig.teardown()
    ledgers = [opened["ledger"], closed["ledger"]]
    attempted = sum(ledger.sent for ledger in ledgers)
    delivered = sum(ledger.delivered for ledger in ledgers)
    result = {
        "correct": collector.corrupt() == 0,
        "attempted": attempted,
        "failed": sum(ledger.failed for ledger in ledgers),
        "corrupt": collector.corrupt(),
        "duplicates": sum(ledger.duplicates for ledger in ledgers),
        "stalls": closed["stalls"],
        "delivered_frac": delivered / attempted,
        "opened": opened,
        "closed": closed,
        "setups": [clock.seconds for clock in clocks],
        "setup_steps": [clock.steps for clock in clocks],
        "layer_open": layer,
        "layer_final": final,
        "rss_peak_mb": rss,
        "recorder": recorder,
    }
    return result


def block_values(result: dict) -> dict:
    """Per-block values of the block-aggregated end-to-end metrics: the
    open-loop blocks' latency percentiles and CPU per message, and the
    closed-loop windows' rates."""
    opened = result["opened"]
    latencies = opened["latencies"]
    values: dict[str, list] = {
        "latency_p50_ms": [], "latency_p90_ms": [], "cpu_ms_per_msg": [],
    }
    for block, cpu in zip(opened["blocks"], opened["block_cpu_s"]):
        sample = [latencies[seq] for seq in block if seq in latencies]
        if not sample:
            continue
        values["latency_p50_ms"].append(percentile(sample, 50)[0] * 1e3)
        values["latency_p90_ms"].append(percentile(sample, 90)[0] * 1e3)
        values["cpu_ms_per_msg"].append(cpu * 1e3 / len(sample))
    values["throughput_msgs_s"] = [
        count / WINDOW_S for count in result["closed"]["windows"]
    ]
    return values


def end_to_end(result: dict, blocks: dict) -> dict:
    """The end-to-end metrics of an untraced run."""
    return {
        "latency_p50_ms": statistics.median(blocks["latency_p50_ms"]),
        "latency_p90_ms": statistics.median(blocks["latency_p90_ms"]),
        "delivered_frac": result["delivered_frac"],
        "throughput_msgs_s": statistics.median(blocks["throughput_msgs_s"]),
        "cpu_ms_per_msg": statistics.median(blocks["cpu_ms_per_msg"]),
        "rss_peak_mb": result["rss_peak_mb"],
        "setup_s": statistics.median(result["setups"]),
    }


def _p50_us(values) -> float:
    value, count = percentile(values, 50)
    return value * 1e6 if count else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Setup steps reported per layer; a step a workload does not have reads 0.
SETUP_STEPS = ("master", "nodes", "register", "connect", "first_msg",
               "routed", "bridge")


def per_layer(result: dict, self_times: dict) -> dict:
    """The per-layer metrics of a traced run, from its counters and the
    self times of its spans (layers a workload does not exercise read 0)."""
    opened, closed = result["opened"], result["closed"]
    live, final = result["layer_open"], result["layer_final"]
    traced = opened["traced"]
    plain = [v for s, v in opened["latencies"].items() if s not in traced]
    marked = [v for s, v in opened["latencies"].items() if s in traced]
    metrics = {
        "sfm.construct_us": _p50_us(self_times.get("sfm.construct", [])),
        "sfm.live_records": final["sfm.live_records"],
        "topic.publish_us": _p50_us(self_times.get("topic.publish", [])),
        "topic.queue_depth_max": max(closed["samples"], default=0),
        "topic.drops": final["topic.drops"],
        "transport.deliver_us": _p50_us(
            self_times.get("transport.deliver", [])),
        "transport.bytes_per_msg": _ratio(final["transport.bytes"],
                                          final["transport.sent"]),
        "routed.mux_links": live.get("routed.mux_links", 0),
        "routed.channels": live.get("routed.channels", 0),
        "reactor.links": live["reactor.links"],
        "reactor.threads": live["reactor.threads"],
        "proc.threads": live["proc.threads"],
        "proc.cpu_util": _ratio(opened["cpu_s"], opened["wall_s"]),
        "sub.callback_us": _p50_us(self_times.get("sub.callback", [])),
        "bridge.publish_raw_us": _p50_us(
            self_times.get("bridge.publish_raw", [])),
        "bridge.deliver_us": _p50_us(self_times.get("bridge.deliver", [])),
        "bridge.shed": final.get("bridge.shed", 0),
        "bridge.dropped": final.get("bridge.dropped", 0),
        "bridge.evictions": final.get("bridge.evictions", 0),
        "bridge.wire_bytes_per_msg": _ratio(final.get("bridge.wire_bytes", 0),
                                            final.get("bridge.sent", 0)),
        "gen.late_p99_ms": percentile(opened["late"], 99)[0] * 1e3,
        "trace.residue_us": _p50_us(self_times.get("msg", [])),
        "trace.overhead_pct": 100.0 * (
            _ratio(percentile(marked, 50)[0], percentile(plain, 50)[0]) - 1.0
        ),
    }
    for step in SETUP_STEPS:
        metrics[f"setup.{step}_ms"] = median_ms(
            [steps.get(step, 0.0) for steps in result["setup_steps"]]
        )
    return metrics
