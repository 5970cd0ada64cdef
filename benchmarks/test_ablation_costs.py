"""Ablation: reconfiguration cost sensitivity (beyond the paper).

Sweeps the two cost knobs that gate how aggressively malleability pays
off: the size of the redistributed state (network time per resize) and
the blocking cost of a synchronous DMR call (the overhead the Fig. 9
inhibitor exists to amortize).
"""

from dataclasses import replace

from conftest import emit

from repro.api import Session
from repro.cluster import GiB, marenostrum_preliminary
from repro.metrics.report import format_table
from repro.runtime import RuntimeConfig
from repro.workload import FSWorkloadConfig, fs_workload


def sweep_state_bytes(num_jobs: int = 25, seed: int = 2017):
    cluster = marenostrum_preliminary()
    rows = []
    gains = {}
    for label, nbytes in [
        ("no data", 0.0),
        ("1 GiB (paper)", 1.0 * GiB),
        ("8 GiB", 8.0 * GiB),
        ("64 GiB", 64.0 * GiB),
    ]:
        cfg = FSWorkloadConfig(state_bytes=nbytes)
        pair = Session(cluster=cluster, runtime=RuntimeConfig()).run_paired(
            fs_workload(num_jobs, seed=seed, config=cfg)
        )
        rows.append([label, pair.flexible.makespan, pair.makespan_gain])
        gains[label] = pair.makespan_gain
    table = format_table(
        ["redistributed state", "flexible makespan (s)", "gain (%)"],
        rows,
        title="Ablation: resize data volume (25-job FS workload)",
    )
    return gains, table


def sweep_check_cost(num_jobs: int = 25, seed: int = 2017):
    cluster = marenostrum_preliminary()
    rows = []
    gains = {}
    for cost in (0.0, 0.15, 1.0, 5.0):
        pair = Session(
            cluster=cluster, runtime=RuntimeConfig(check_cost=cost)
        ).run_paired(fs_workload(num_jobs, seed=seed))
        rows.append([cost, pair.flexible.makespan, pair.makespan_gain])
        gains[cost] = pair.makespan_gain
    table = format_table(
        ["DMR call cost (s)", "flexible makespan (s)", "gain (%)"],
        rows,
        title="Ablation: synchronous DMR call cost (25-job FS workload)",
    )
    return gains, table


def test_ablation_state_bytes(benchmark):
    gains, table = benchmark.pedantic(sweep_state_bytes, rounds=1, iterations=1)
    emit(table)
    # Cheap redistribution keeps the gain; an absurd 64 GiB per resize
    # erodes it.
    assert gains["no data"] >= gains["64 GiB"]
    assert gains["1 GiB (paper)"] > 0


def test_ablation_check_cost(benchmark):
    gains, table = benchmark.pedantic(sweep_check_cost, rounds=1, iterations=1)
    emit(table)
    # More expensive RMS round trips can only hurt.
    assert gains[0.0] >= gains[5.0]
    assert gains[0.15] > 0
