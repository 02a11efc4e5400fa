"""End-to-end, layer-by-layer benchmark of the Janus reproduction.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in this process and prints its metrics; see README.md.
"""
