"""End-to-end invariants over full workload executions.

These run complete workloads through the whole stack (workload model ->
Slurm -> runtime -> DES) and assert system-level invariants that any
correct execution must satisfy, whatever the policy decides.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.cluster import ClusterConfig, marenostrum_preliminary
from repro.metrics import EventKind, allocated_nodes_series
from repro.runtime import RuntimeConfig
from repro.slurm import Accounting, JobState
from repro.workload import FSWorkloadConfig, fs_workload, realapp_workload


def check_invariants(result, num_nodes):
    jobs = [j for j in result.jobs if not j.is_resizer]
    # Every job completed exactly once.
    assert all(j.state is JobState.COMPLETED for j in jobs)
    # Timestamps are sane.
    for j in jobs:
        assert j.submit_time <= j.start_time <= j.end_time
    # No nodes leaked: the allocation series ends at zero and never
    # exceeds the machine.
    alloc = allocated_nodes_series(result.trace)
    assert alloc.values[-1] == 0
    assert max(alloc.values) <= num_nodes
    # Every resize kept the job within the cluster.
    for j in jobs:
        for _, old, new in j.resizes:
            assert 1 <= new <= num_nodes
            assert old != new
    # Trace bookkeeping: one submit and one end per job.
    for j in jobs:
        kinds = [e.kind for e in result.trace.of_job(j.job_id)]
        assert kinds.count(EventKind.JOB_SUBMIT) == 1
        assert kinds.count(EventKind.JOB_END) == 1


@pytest.mark.parametrize("flexible", [False, True])
def test_fs_workload_invariants(flexible):
    result = Session(
        cluster=marenostrum_preliminary(), runtime=RuntimeConfig()
    ).run(fs_workload(30, seed=5), flexible=flexible)
    check_invariants(result, 20)


@pytest.mark.parametrize("flexible", [False, True])
def test_realapp_workload_invariants(flexible):
    from repro.cluster import marenostrum_production

    result = Session(
        cluster=marenostrum_production(), runtime=RuntimeConfig()
    ).run(realapp_workload(20, seed=5), flexible=flexible)
    check_invariants(result, 65)


def test_paired_runs_share_submission_times():
    spec = fs_workload(15, seed=8)
    session = Session(cluster=marenostrum_preliminary())
    fixed = session.run(spec, flexible=False)
    flex = session.run(spec, flexible=True)
    assert [j.submit_time for j in fixed.jobs] == [j.submit_time for j in flex.jobs]
    assert [j.submitted_nodes for j in fixed.jobs] == [
        j.submitted_nodes for j in flex.jobs
    ]


def test_fixed_rendition_never_resizes():
    result = Session(cluster=marenostrum_preliminary()).run(
        fs_workload(15, seed=8), flexible=False
    )
    assert result.summary.resize_count == 0
    assert result.trace.of_kind(EventKind.RESIZE_EXPAND, EventKind.RESIZE_SHRINK) == []


def test_determinism_same_seed_same_trace():
    a = Session(cluster=marenostrum_preliminary()).run(
        fs_workload(20, seed=3), flexible=True
    )
    b = Session(cluster=marenostrum_preliminary()).run(
        fs_workload(20, seed=3), flexible=True
    )
    assert a.makespan == b.makespan
    assert len(a.trace) == len(b.trace)
    assert [e.kind for e in a.trace] == [e.kind for e in b.trace]
    assert [e.time for e in a.trace] == [e.time for e in b.trace]


def test_accounting_consistent_with_summary():
    result = Session(cluster=marenostrum_preliminary()).run(
        fs_workload(20, seed=3), flexible=True
    )
    acct = Accounting(result.jobs)
    assert len(acct) == 20
    assert acct.mean_wait() == pytest.approx(result.summary.avg_wait_time)
    assert acct.total_resizes() == result.summary.resize_count
    # Node-seconds from per-job integration match the machine-side series.
    assert acct.total_node_seconds() == pytest.approx(
        result.summary.total_node_seconds, rel=1e-6
    )


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_jobs=st.integers(min_value=2, max_value=12),
    nodes=st.sampled_from([8, 16, 20]),
)
@settings(max_examples=15, deadline=None)
def test_property_random_workloads_satisfy_invariants(seed, num_jobs, nodes):
    """Whatever the workload, the system conserves jobs and nodes."""
    cfg = FSWorkloadConfig(max_size=nodes, steps=4)
    result = Session(
        cluster=ClusterConfig(num_nodes=nodes), runtime=RuntimeConfig()
    ).run(fs_workload(num_jobs, seed=seed, config=cfg), flexible=True)
    check_invariants(result, nodes)
