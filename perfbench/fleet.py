"""The fleet workload: small ``geometry_msgs/PoseStamped@sfm`` telemetry
through the bridge's WebSocket front door.

One robot ws connection publishes with ``publish_raw``, round-robin over
``TOPICS`` topics; one dashboard ws connection holds a cbin
selective-field subscription on every topic.  Per-message costs
dominate: ws framing, op dispatch, graph fan-out into raw taps,
selective extraction and the reactor pumps.
"""

from __future__ import annotations

import time

import numpy as np

import repro.msg.library  # noqa: F401  (registers the message types)
from perfbench.phases import TransportMismatch
from repro.bridge.server import BridgeServer
from repro.bridge.ws import WsBridgeClient
from repro.ros import reactor
from repro.ros.master import Master
from repro.sfm import global_message_manager
from repro.sfm.generator import generate_sfm_class

TOPICS = 8
RATE_HZ = 400.0
WINDOW = 16
POSE_TYPE = "geometry_msgs/PoseStamped@sfm"
FIELDS = ["header.seq", "pose.position.x", "pose.position.y",
          "pose.position.z"]
#: Seeded values for ``pose.position.z``, indexed by ``seq % len``.
Z_TABLE = 256


def topic_name(index: int) -> str:
    return f"/perfbench/robot0/pose{index}"


class FleetInputs:
    """Seeded pose contents shared by every set-up of a run."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.z = [float(v) for v in rng.uniform(-100.0, 100.0, Z_TABLE)]
        self.topics = [topic_name(i) for i in range(TOPICS)]


class FleetRig:
    construct_span = "sfm.construct"
    publish_span = "bridge.publish_raw"
    deliver_span = "bridge.deliver"
    rate_hz = RATE_HZ
    window = WINDOW

    def __init__(self, inputs: FleetInputs, collector) -> None:
        self.inputs = inputs
        self.collector = collector
        self.pose_class = generate_sfm_class("geometry_msgs/PoseStamped")
        self.master = None
        self.server = None
        self.robot = None
        self.dashboard = None

    # -- the dashboard's callback ---------------------------------------
    def _on_pose(self, msg, meta) -> None:
        entry = time.perf_counter()
        inputs = self.inputs
        try:
            seq = msg["header.seq"]
            index = seq % TOPICS
            ok = (
                meta["topic"] == inputs.topics[index]
                and msg["pose.position.x"] == float(index)
                and msg["pose.position.y"] == float(seq)
                and msg["pose.position.z"] == inputs.z[seq % Z_TABLE]
            )
        except Exception:  # an unreadable message is a corrupt delivery
            seq, ok = -1, False
        self.collector.arrive(seq, ok, entry, time.perf_counter())

    # -- set-up -------------------------------------------------------------
    def setup(self, clock) -> None:
        with clock.step("master"):
            self.master = Master()
        with clock.step("bridge"):
            self.server = BridgeServer(self.master.uri,
                                       node_name="perfbench_bridge")
            frontend = self.server.enable_ws()
        with clock.step("connect"):
            self.robot = WsBridgeClient(self.server.host, frontend.port)
            self.dashboard = WsBridgeClient(self.server.host, frontend.port)
        with clock.step("register"):
            for topic in self.inputs.topics:
                self.robot.advertise(topic, POSE_TYPE)
            for topic in self.inputs.topics:
                self.dashboard.subscribe(topic, POSE_TYPE, self._on_pose,
                                         codec="cbin", fields=FIELDS)
        clock.probe(self.build, self.publish)

    # -- load -----------------------------------------------------------------
    def build(self, seq: int):
        index = seq % TOPICS
        pose = self.pose_class()
        pose.header.seq = seq
        pose.pose.position.x = float(index)
        pose.pose.position.y = float(seq)
        pose.pose.position.z = self.inputs.z[seq % Z_TABLE]
        return self.inputs.topics[index], bytes(pose.to_wire())

    def publish(self, item) -> None:
        topic, payload = item
        self.robot.publish_raw(topic, payload)

    # -- checks and counters --------------------------------------------------
    def guard(self) -> None:
        snap = self.server.stats_snapshot()
        transports = snap["clients_by_transport"]
        codecs = sorted(sub["codec"] for sub in snap["subscriptions"])
        if transports != {"ws": 2} or codecs != ["cbin"] * TOPICS:
            raise TransportMismatch(
                f"expected two ws sessions and {TOPICS} cbin subscriptions, "
                f"bridge has {transports} and {codecs}"
            )

    def _bridge_topics(self) -> dict:
        return self.server.node.topic_stats()

    def queue_depth(self) -> int:
        return sum(pub["queue_depth"]
                   for pub in self._bridge_topics()["publishers"])

    def counters(self) -> dict:
        topics = self._bridge_topics()
        snap = self.server.stats_snapshot()
        subs = snap["subscriptions"]
        loop = reactor.global_reactor()
        return {
            "topic.drops": sum(pub["drops"] for pub in topics["publishers"])
            + sum(sub["stale_drops"] for sub in topics["subscribers"]),
            "transport.sent": sum(pub["messages"]
                                  for pub in topics["publishers"]),
            "transport.bytes": sum(pub["bytes"]
                                   for pub in topics["publishers"]),
            "reactor.links": loop.link_count(),
            "reactor.threads": loop.thread_count(),
            "sfm.live_records": global_message_manager.snapshot()[
                "live_records"],
            "bridge.shed": sum(sess["shed"] for sess in snap["sessions"]),
            "bridge.dropped": sum(sub["dropped"] for sub in subs),
            "bridge.evictions": snap["evictions"],
            "bridge.sent": sum(sub["sent"] for sub in subs),
            "bridge.wire_bytes": sum(sub["wire_bytes"] for sub in subs),
        }

    def teardown(self) -> None:
        for client in (self.robot, self.dashboard):
            if client is not None:
                client.close()
        self.robot = self.dashboard = None
        if self.server is not None:
            self.server.shutdown()
            self.server = None
        if self.master is not None:
            self.master.shutdown()
            self.master = None
