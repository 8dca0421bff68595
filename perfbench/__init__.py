"""The repository benchmark: end-to-end workloads and a traced per-layer run.

Run ``python3 perfbench/run.py --help``; see perfbench/README.md.
"""
