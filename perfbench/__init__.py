"""End-to-end benchmark of the paper's user workloads with per-layer attribution.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads, metrics and correctness gates.
"""
