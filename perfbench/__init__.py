"""End-to-end and per-layer benchmark of the novnet toolkit.

Run one workload with `python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>` from the repository root. See README.md in
this directory for the workloads, metrics and what each layer should move.
"""
