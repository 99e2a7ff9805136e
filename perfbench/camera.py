"""The camera workloads: a ~1 MB ROS-SF ``sensor_msgs/Image`` (800x600,
24 bit, the paper's middle size) from one publisher node to one
subscriber node.

* ``camera_shm`` -- both nodes negotiate SHMROS: the publish side writes
  the SFM buffer into the shared ring, the subscriber adopts the slot.
* ``camera_remote`` -- SHMROS off; every TCPROS dial is spliced through
  an in-process RouteD pair, so the link is the inter-host path (TZC
  split, vectored sends, reactor reads, mux splicing).
"""

from __future__ import annotations

import time

import numpy as np

from perfbench.phases import TransportMismatch
from repro.bench.workloads import ImageWorkload, construct_image
from repro.graphplane.routed import RouteD
from repro.ros import reactor
from repro.ros.master import Master
from repro.ros.node import NodeHandle
from repro.ros.transport import tcpros
from repro.rossf import sfm_classes_for
from repro.sfm import global_message_manager

TOPIC = "/perfbench/camera"
RATE_HZ = 30.0
WINDOW = 4
FRAMES = 4
SAMPLES = 16
HEIGHT, WIDTH = 600, 800


class CameraInputs:
    """Seeded frame contents and the byte positions the subscriber
    checks; built once per run and shared by every set-up."""

    def __init__(self, seed: int) -> None:
        self.workload = ImageWorkload(label="perfbench", width=WIDTH,
                                      height=HEIGHT)
        rng = np.random.default_rng(seed)
        size = self.workload.data_bytes
        self.frames = [
            rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
            for _ in range(FRAMES)
        ]
        self.positions = sorted(
            int(p) for p in rng.choice(size, size=SAMPLES, replace=False)
        )
        self.expected = [
            bytes(frame[p] for p in self.positions) for frame in self.frames
        ]


class CameraRig:
    construct_span = "sfm.construct"
    publish_span = "topic.publish"
    deliver_span = "transport.deliver"
    rate_hz = RATE_HZ
    window = WINDOW

    def __init__(self, inputs: CameraInputs, collector, remote: bool) -> None:
        self.inputs = inputs
        self.collector = collector
        self.remote = remote
        (self.image_class,) = sfm_classes_for("sensor_msgs/Image")
        self.master = None
        self.nodes = []
        self.routed = []
        self.hooked = False
        self.pub = None
        self.sub = None

    # -- the subscriber's callback ------------------------------------
    def _on_image(self, msg) -> None:
        entry = time.perf_counter()
        inputs = self.inputs
        try:
            seq = msg.header.seq
            data = msg.data.view
            ok = (
                msg.height == HEIGHT
                and msg.width == WIDTH
                and msg.encoding == "rgb8"
                and len(data) == inputs.workload.data_bytes
                and bytes(data[p] for p in inputs.positions)
                == inputs.expected[seq % FRAMES]
            )
        except Exception:  # an unreadable message is a corrupt delivery
            seq, ok = -1, False
        self.collector.arrive(seq, ok, entry, time.perf_counter())

    # -- set-up ---------------------------------------------------------
    def setup(self, clock) -> None:
        with clock.step("master"):
            self.master = Master()
        if self.remote:
            with clock.step("routed"):
                self._install_routed()
        with clock.step("nodes"):
            self.nodes = [
                NodeHandle(name, self.master.uri, shmros=not self.remote)
                for name in ("perfbench_pub", "perfbench_sub")
            ]
        with clock.step("register"):
            self.sub = self.nodes[1].subscribe(TOPIC, self.image_class,
                                               self._on_image)
            self.pub = self.nodes[0].advertise(TOPIC, self.image_class)
        with clock.step("connect"):
            if not self.pub.wait_for_subscribers(1):
                raise TimeoutError("subscriber did not connect")
        clock.probe(self.build, self.publish)

    def _install_routed(self) -> None:
        """Two RouteD daemons standing for two hosts; every TCPROS dial
        goes through the mux between them."""
        near = RouteD("perfbench_a", admin=False)
        far = RouteD("perfbench_b", admin=False)
        self.routed = [near, far]

        def route_everything(host, port, timeout):
            near.add_route((host, port), far.listen_addr)
            return near.dial(host, port, timeout)

        tcpros.install_connect_hook(route_everything)
        self.hooked = True

    # -- load -------------------------------------------------------------
    def build(self, seq: int):
        inputs = self.inputs
        return construct_image(self.image_class, inputs.frames[seq % FRAMES],
                               inputs.workload, seq, (0, 0))

    def publish(self, msg) -> None:
        self.pub.publish(msg)

    # -- checks and counters ------------------------------------------------
    def guard(self) -> None:
        want = "TZC" if self.remote else "SHMROS"
        out = [link.stats()["transport"] for link in self.pub.links()]
        inbound = [link.stats()["transport"] for link in self.sub.links()]
        if out != [want] or inbound != [want]:
            raise TransportMismatch(
                f"expected one {want} link, publisher has {out}, "
                f"subscriber has {inbound}"
            )
        if self.remote:
            muxes = [daemon.mux_link_count() for daemon in self.routed]
            if muxes != [1, 1]:
                raise TransportMismatch(
                    f"expected exactly one RouteD mux link, daemons hold {muxes}"
                )

    def queue_depth(self) -> int:
        return self.pub.stats()["queue_depth"]

    def counters(self) -> dict:
        links = [link.stats() for link in self.pub.links()]
        sent = sum(link["sent"] for link in links)
        loop = reactor.global_reactor()
        return {
            "topic.drops": self.pub.stats()["drops"] + sum(
                link.stats()["stale_drops"] for link in self.sub.links()
            ),
            "transport.sent": sent,
            "transport.bytes": sum(link["bytes"] for link in links),
            "routed.mux_links": (
                self.routed[0].mux_link_count() if self.routed else 0
            ),
            "routed.channels": (
                self.routed[0].channel_count() if self.routed else 0
            ),
            "reactor.links": loop.link_count(),
            "reactor.threads": loop.thread_count(),
            "sfm.live_records": global_message_manager.snapshot()[
                "live_records"],
        }

    def teardown(self) -> None:
        for node in reversed(self.nodes):
            node.shutdown()
        self.nodes = []
        if self.hooked:
            tcpros.install_connect_hook(None)
            self.hooked = False
        for daemon in self.routed:
            daemon.shutdown()
        self.routed = []
        if self.master is not None:
            self.master.shutdown()
            self.master = None

