"""Robustness: the headline conclusions hold across workload seeds.

The paper reports single runs; this bench repeats the two headline
comparisons over several independently generated workloads and checks
the conclusions are not seed artifacts.
"""

import numpy as np
from conftest import emit

from repro.api import Session
from repro.cluster import marenostrum_preliminary, marenostrum_production
from repro.metrics.report import format_table
from repro.runtime import RuntimeConfig
from repro.workload import fs_workload, realapp_workload

SEEDS = (2017, 7, 13, 42, 99)


def run_sensitivity():
    fs_gains = []
    for seed in SEEDS:
        pair = Session(
            cluster=marenostrum_preliminary(), runtime=RuntimeConfig()
        ).run_paired(fs_workload(25, seed=seed))
        fs_gains.append(pair.makespan_gain)

    real_gains = []
    real_wait_gains = []
    for seed in SEEDS:
        pair = Session(
            cluster=marenostrum_production(), runtime=RuntimeConfig()
        ).run_paired(realapp_workload(50, seed=seed))
        real_gains.append(pair.makespan_gain)
        real_wait_gains.append(pair.wait_gain)

    table = format_table(
        ["experiment", "mean gain (%)", "min", "max", "std"],
        [
            ["FS 25-job makespan", np.mean(fs_gains), np.min(fs_gains),
             np.max(fs_gains), np.std(fs_gains)],
            ["real-app 50-job makespan", np.mean(real_gains),
             np.min(real_gains), np.max(real_gains), np.std(real_gains)],
            ["real-app 50-job waiting", np.mean(real_wait_gains),
             np.min(real_wait_gains), np.max(real_wait_gains),
             np.std(real_wait_gains)],
        ],
        title=f"Seed sensitivity over seeds {SEEDS}",
    )
    return fs_gains, real_gains, real_wait_gains, table


def test_seed_sensitivity(benchmark):
    fs_gains, real_gains, wait_gains, table = benchmark.pedantic(
        run_sensitivity, rounds=1, iterations=1
    )
    emit(table)

    # FS workloads: flexible wins on every seed.
    assert all(g > 0 for g in fs_gains), fs_gains
    # Real-app workloads: the >40% makespan and >50% waiting claims hold
    # on every seed, not just the headline one.
    assert all(g > 40.0 for g in real_gains), real_gains
    assert all(g > 50.0 for g in wait_gains), wait_gains
