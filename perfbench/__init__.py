"""The repository's benchmark: three workloads, end-to-end and per-layer metrics.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the root of a checkout; see
``perfbench/README.md`` for the workloads and every metric.
"""
