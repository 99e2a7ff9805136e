"""Every workload and metric the benchmark reports, in one table.

``BENCHMARK.json`` at the repository root mirrors these tables (a test
checks that they agree).  ``moves`` says which end-to-end metric a
per-layer metric should move and ``where`` on which workloads it does
most and least work -- the prediction a change to that layer is judged
against.
"""

from __future__ import annotations

WORKLOADS = [
    {
        "name": "camera_shm",
        "why": "1 MB ROS-SF Image over SHMROS: SFM construction, manager "
               "and ring write dominate; serialization, byte-stream "
               "framing and the bridge are bypassed",
    },
    {
        "name": "camera_remote",
        "why": "the same Image with SHMROS off, dialed through a RouteD "
               "mux pair: TZC split, vectored sends, reactor reads and "
               "mux splicing dominate; the SHM ring is bypassed",
    },
    {
        "name": "fleet_ws",
        "why": "small PoseStamped@sfm over the ws bridge, 8 topics to a "
               "cbin selective dashboard: per-message framing, dispatch "
               "and fan-out dominate; large copies are absent",
    },
]

END_TO_END = [
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower",
     "bound": 0.25,
     "means": "open loop: scheduled send time to subscriber callback "
              "entry; median over ~4 s blocks of each block's median"},
    {"name": "latency_p90_ms", "unit": "ms", "better": "lower",
     "bound": 0.25,
     "means": "open loop: the same samples; median over blocks of each "
              "block's 90th percentile"},
    {"name": "delivered_frac", "unit": "frac", "better": "higher",
     "bound": 0.01,
     "means": "unique in-window sequence numbers delivered intact before "
              "the drain deadline / sent"},
    {"name": "throughput_msgs_s", "unit": "1/s", "better": "higher",
     "bound": 0.25,
     "means": "closed loop: delivered messages per second with a fixed "
              "window in flight; median over 1 s windows"},
    {"name": "cpu_ms_per_msg", "unit": "ms", "better": "lower",
     "bound": 0.25,
     "means": "open loop: process CPU time, all threads, per delivered "
              "message; median over blocks"},
    {"name": "rss_peak_mb", "unit": "MB", "better": "lower",
     "bound": 0.15,
     "means": "peak resident set of the workload's process through "
              "set-up and the open loop"},
    {"name": "setup_s", "unit": "s", "better": "lower",
     "bound": 0.25,
     "means": "fresh start to first delivered message, median of the "
              "run's cold set-ups"},
]

PER_LAYER = [
    {"name": "sfm.construct_us", "unit": "us", "better": "lower",
     "moves": "latency_p50_ms, cpu_ms_per_msg, throughput_msgs_s",
     "where": "camera_shm, camera_remote; ~0 on fleet_ws"},
    {"name": "sfm.live_records", "unit": "count", "better": "lower",
     "moves": "rss_peak_mb", "where": "camera_shm, camera_remote"},
    {"name": "topic.publish_us", "unit": "us", "better": "lower",
     "moves": "latency_p50_ms, throughput_msgs_s",
     "where": "large on camera_shm (ring copy), small on camera_remote; "
              "0 on fleet_ws (no direct publish)"},
    {"name": "topic.queue_depth_max", "unit": "count", "better": "lower",
     "moves": "latency_p90_ms, delivered_frac",
     "where": "closed-loop phase of every workload"},
    {"name": "topic.drops", "unit": "count", "better": "lower",
     "moves": "delivered_frac", "where": "every workload"},
    {"name": "transport.deliver_us", "unit": "us", "better": "lower",
     "moves": "latency_p50_ms, latency_p90_ms",
     "where": "dominant on camera_remote, moderate on camera_shm; 0 on "
              "fleet_ws (see bridge.deliver_us)"},
    {"name": "transport.bytes_per_msg", "unit": "B", "better": "lower",
     "moves": "throughput_msgs_s", "where": "camera_remote"},
    {"name": "routed.mux_links", "unit": "count", "better": "lower",
     "moves": "witness", "where": "camera_remote only"},
    {"name": "routed.channels", "unit": "count", "better": "lower",
     "moves": "witness", "where": "camera_remote only"},
    {"name": "reactor.links", "unit": "count", "better": "lower",
     "moves": "cpu_ms_per_msg, rss_peak_mb", "where": "every workload"},
    {"name": "reactor.threads", "unit": "count", "better": "lower",
     "moves": "cpu_ms_per_msg, rss_peak_mb", "where": "every workload"},
    {"name": "proc.threads", "unit": "count", "better": "lower",
     "moves": "cpu_ms_per_msg, rss_peak_mb", "where": "every workload"},
    {"name": "proc.cpu_util", "unit": "frac", "better": "lower",
     "moves": "cpu_ms_per_msg", "where": "every workload"},
    {"name": "sub.callback_us", "unit": "us", "better": "lower",
     "moves": "latency_p50_ms", "where": "small everywhere"},
    {"name": "bridge.publish_raw_us", "unit": "us", "better": "lower",
     "moves": "latency_p50_ms, throughput_msgs_s",
     "where": "fleet_ws; 0 on the camera workloads"},
    {"name": "bridge.deliver_us", "unit": "us", "better": "lower",
     "moves": "latency_p50_ms, throughput_msgs_s",
     "where": "fleet_ws; 0 on the camera workloads"},
    {"name": "bridge.shed", "unit": "count", "better": "lower",
     "moves": "delivered_frac, throughput_msgs_s", "where": "fleet_ws"},
    {"name": "bridge.dropped", "unit": "count", "better": "lower",
     "moves": "delivered_frac, throughput_msgs_s", "where": "fleet_ws"},
    {"name": "bridge.evictions", "unit": "count", "better": "lower",
     "moves": "delivered_frac", "where": "fleet_ws"},
    {"name": "bridge.wire_bytes_per_msg", "unit": "B", "better": "lower",
     "moves": "throughput_msgs_s", "where": "fleet_ws"},
    {"name": "setup.master_ms", "unit": "ms", "better": "lower",
     "moves": "setup_s", "where": "every workload"},
    {"name": "setup.nodes_ms", "unit": "ms", "better": "lower",
     "moves": "setup_s", "where": "camera_shm, camera_remote"},
    {"name": "setup.register_ms", "unit": "ms", "better": "lower",
     "moves": "setup_s",
     "where": "every workload (advertise plus subscribe)"},
    {"name": "setup.connect_ms", "unit": "ms", "better": "lower",
     "moves": "setup_s",
     "where": "every workload (links on the cameras, ws sessions on "
              "fleet_ws)"},
    {"name": "setup.first_msg_ms", "unit": "ms", "better": "lower",
     "moves": "setup_s", "where": "every workload"},
    {"name": "setup.routed_ms", "unit": "ms", "better": "lower",
     "moves": "setup_s", "where": "camera_remote only"},
    {"name": "setup.bridge_ms", "unit": "ms", "better": "lower",
     "moves": "setup_s", "where": "fleet_ws only"},
    {"name": "gen.late_p99_ms", "unit": "ms", "better": "lower",
     "moves": "latency_p50_ms, latency_p90_ms (generator, not program)",
     "where": "every workload"},
    {"name": "trace.residue_us", "unit": "us", "better": "lower",
     "moves": "unattributed share of latency_p50_ms",
     "where": "every workload"},
    {"name": "trace.overhead_pct", "unit": "%", "better": "lower",
     "moves": "traced against untraced latency_p50_ms",
     "where": "every workload"},
]

#: The keys BENCHMARK.json carries for each table.
JSON_KEYS = {
    "workloads": ("name", "why"),
    "end_to_end": ("name", "unit", "better", "bound"),
    "per_layer": ("name", "unit", "better"),
}


def benchmark_json(command: list, paths: list, run_seconds: int) -> dict:
    """The document BENCHMARK.json must hold."""
    tables = {
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }
    doc = {"command": command, "paths": paths, "run_seconds": run_seconds}
    for key, rows in tables.items():
        doc[key] = [{k: row[k] for k in JSON_KEYS[key]} for row in rows]
    return doc
