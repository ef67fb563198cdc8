"""Benchmark of the vdl package: three closed-loop workloads, per-op
output checks and an outside-in per-layer trace.  Entry point:
``python3 perfbench/run.py --workload {sweep,late,oracles,all}``."""
