"""End-to-end benchmark of the repository, with an outside-in layer trace.

Run every workload with ``PYTHONPATH=src python -m perf``; see
``perf/README.md`` for the workloads, the metrics and how to read the
per-layer breakdown.
"""
