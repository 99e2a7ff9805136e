"""The repository benchmark: end-to-end and per-layer metrics on three
workloads (``camera_shm``, ``camera_remote``, ``fleet_ws``).

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload camera_shm --seed 1 --seconds 20 --trace 0

The benchmark drives the program only through its public API and public
``stats()`` counters; it never edits ``src/``.  See ``perfbench/README.md``
for what each metric means and which layer should move it.
"""
