"""The O(1) PolicyView against the materialized one.

``SlurmController.policy_view`` reads the pending count, narrowest width
and head from the queue's width index and builds the priority order only
when iterated; the resort-per-pass reference
(:class:`repro.testing.reference.ResortPerPassController`) still hands
Algorithm 1 the sorted queue as a tuple.  Every policy variant must make
the same decisions from both, and a view read after the queue moved on
must still describe the moment it was taken.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.api import Session
from repro.cluster import Machine
from repro.cluster.configs import marenostrum_preliminary
from repro.metrics.trace import EventKind, trace_digest
from repro.runtime.nanos import RuntimeConfig
from repro.sim import Environment
from repro.slurm import Job, PolicyConfig, PolicyView, SlurmController
from repro.workload.generator import fs_workload

SEED = 2017
NUM_JOBS = 40


def _run(config: PolicyConfig, async_mode: bool):
    session = (
        Session()
        .with_cluster(marenostrum_preliminary())
        .with_runtime(RuntimeConfig(async_mode=async_mode))
        .with_policy(config)
        .with_seed(SEED)
    )
    return session.run(fs_workload(NUM_JOBS, seed=SEED), flexible=True)


def _reference_run(monkeypatch, config: PolicyConfig, async_mode: bool):
    import repro.slurm.controller
    from repro.testing.reference import ResortPerPassController

    built = []

    class Recorded(ResortPerPassController):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(repro.slurm.controller, "SlurmController", Recorded)
        result = _run(config, async_mode)
    assert built, "the reference scheduler was never assembled"
    return result


@pytest.mark.parametrize("async_mode", [False, True], ids=["sync", "async"])
@pytest.mark.parametrize("shrink_mode", ["minimal", "deepest"])
@pytest.mark.parametrize("beneficiary", ["head", "any"])
def test_lazy_view_decides_like_materialized_view(
    monkeypatch, beneficiary, shrink_mode, async_mode
):
    config = PolicyConfig(shrink_mode=shrink_mode, shrink_beneficiary=beneficiary)
    production = _run(config, async_mode)
    reference = _reference_run(monkeypatch, config, async_mode)
    assert trace_digest(production.trace) == trace_digest(reference.trace)
    # The workload must reach the view-dependent branches of Algorithm 1.
    reasons = Counter(
        event["reason"]
        for event in production.trace.of_kind(EventKind.RESIZE_DECISION)
    )
    assert reasons["pending_fits"] and reasons["shrink_for_pending"], reasons


def _job(nodes: int, resizer: bool = False) -> Job:
    return Job(name=f"w{nodes}", num_nodes=nodes, time_limit=100.0,
               is_resizer=resizer)


class TestViewSnapshot:
    def _controller(self):
        env = Environment()
        ctl = SlurmController(env, Machine(4))
        ctl.submit(_job(4))  # runs, so later submissions stay pending
        env.run(until=1.0)
        return ctl

    def test_view_read_after_queue_changed_reports_old_state(self):
        ctl = self._controller()
        wide, narrow = _job(4), _job(3)
        ctl.submit(wide)
        ctl.submit(narrow)
        view = ctl.policy_view()
        # The queue moves on: the head leaves, a narrower job arrives.
        ctl.cancel_job(wide)
        ctl.submit(_job(1))
        ctl.submit(_job(2, resizer=True))
        assert len(view.pending) == 2
        assert view.pending.min_width == 3
        assert view.pending.head is wide
        assert list(view.pending) == [wide, narrow]
        now = ctl.policy_view()
        assert len(now.pending) == 2
        assert now.pending.min_width == 1
        assert now.pending.head is narrow

    def test_view_order_built_later_matches_queue_then(self):
        ctl = self._controller()
        jobs = [_job(n) for n in (2, 4, 3)]
        for job in jobs:
            ctl.submit(job)
        view = ctl.policy_view()
        expected = ctl.pending_jobs(include_resizers=False)
        # Nothing changed yet: the order is built from the live queue.
        assert list(view.pending) == expected
        ctl.cancel_job(expected[0])
        assert list(view.pending) == expected

    def test_empty_queue_view(self):
        ctl = self._controller()
        view = ctl.policy_view()
        assert not view.pending and len(view.pending) == 0
        assert view.pending.head is None and view.pending.min_width is None
        assert list(view.pending) == []

    def test_resizers_are_not_pending_for_the_policy(self):
        ctl = self._controller()
        resizer, job = _job(1, resizer=True), _job(2)
        resizer.priority_boost = float("inf")
        ctl.submit(resizer)
        ctl.submit(job)
        view = ctl.policy_view()
        assert len(view.pending) == 1
        assert view.pending.head is job and view.pending.min_width == 2


def test_hand_built_view_summarizes_its_tuple():
    a, b = _job(8), _job(2)
    view = PolicyView(free_nodes=3, pending=(a, b))
    assert len(view.pending) == 2
    assert view.pending.head is a and view.pending.min_width == 2
    assert view.pending == (a, b) and view.pending[1] is b
    assert not PolicyView(free_nodes=0).pending
