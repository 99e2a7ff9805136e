"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload camera_shm --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same phases with spans recorded around every call into a layer and
prints the per-layer metrics (spans are written to
``perfbench/out/``).  Each metric is printed as ``name value unit``;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 on success, 1 when a delivered message failed its content
check, 2 when the program cannot be imported, 3 when the negotiated
transport is not the one the workload measures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

EXIT_CORRUPT = 1
EXIT_NO_PROGRAM = 2
EXIT_TRANSPORT = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["camera_shm", "camera_remote", "fleet_ws"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def _make_rig_factory(workload: str, seed: int):
    if workload == "fleet_ws":
        from perfbench.fleet import FleetInputs, FleetRig

        inputs = FleetInputs(seed)
        return lambda collector: FleetRig(inputs, collector)
    from repro.bench.allocator import tune_for_large_messages
    from perfbench.camera import CameraInputs, CameraRig

    # Recycle the multi-megabyte buffers instead of mmap/munmap per
    # message, as every image benchmark in the repository does.
    tune_for_large_messages()
    inputs = CameraInputs(seed)
    remote = workload == "camera_remote"
    return lambda collector: CameraRig(inputs, collector, remote)


def exit_code(result: dict) -> int:
    return 0 if result["correct"] else EXIT_CORRUPT


def report(result: dict, metrics: dict, units: dict) -> dict:
    """The JSON document of the last output line."""
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def stop_helper_processes() -> None:
    """Stop and reap the one process a run starts: multiprocessing's
    resource tracker, which the SHMROS ring's ``SharedMemory`` launches
    and which would otherwise outlive the run."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        try:
            tracker._resource_tracker._stop()
        except Exception as exc:  # pragma: no cover - interpreter internals
            print(f"perfbench: resource tracker not stopped: {exc}",
                  file=sys.stderr)


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_helper_processes()


def _main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path[:0] = [src, ROOT]
    from perfbench import metrics as tables, phases
    from perfbench.ledger import percentile, tail_support

    make_rig = _make_rig_factory(args.workload, args.seed)
    try:
        result = phases.measure(make_rig, args.seconds, bool(args.trace))
    except phases.TransportMismatch as exc:
        print(f"perfbench: refusing to report: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    if args.trace:
        self_times = result["recorder"].self_times()
        values = phases.per_layer(result, self_times)
        units = {row["name"]: row["unit"] for row in tables.PER_LAYER}
        path = os.path.join(HERE, "out",
                            f"spans-{args.workload}-seed{args.seed}.json")
        result["recorder"].write(path)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
        for name, times in sorted(self_times.items()):
            p50, count = percentile(times, 50)
            print(f"self {name} p50 {p50 * 1e6:.1f} us (n={count})")
    else:
        blocks = phases.block_values(result)
        values = phases.end_to_end(result, blocks)
        for name, series in {**blocks, "setup_s": result["setups"]}.items():
            print(f"blocks {name} " + " ".join(f"{v:.6g}" for v in series))
        units = {row["name"]: row["unit"] for row in tables.END_TO_END}
        latencies = list(result["opened"]["latencies"].values())
        p99, count = percentile(latencies, 99)
        print(f"info latency_p99_ms {p99 * 1e3:.4f} ms over all {count} "
              f"open-loop samples, {tail_support(count, 99)} beyond it "
              "(not a metric)")
    print(f"workload {args.workload} seed {args.seed} "
          f"attempted {result['attempted']} failed {result['failed']} "
          f"corrupt {result['corrupt']} duplicates {result['duplicates']} "
          f"closed-loop stalls {result['stalls']}")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps(report(result, values, units)))
    return exit_code(result)


if __name__ == "__main__":
    sys.exit(main())
