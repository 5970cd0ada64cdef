"""The repository benchmark: paired DMR simulations and a serve stream.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in fresh processes and prints one JSON result line.
``perfbench/workloads.json`` holds each workload's input shape and the
layer-to-metric map; ``perfbench/references.json`` holds the recorded
outputs the correctness gate compares against.
"""
