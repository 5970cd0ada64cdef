"""Property-based tests on the scheduling and policy components."""

from dataclasses import dataclass
from typing import List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ResizeAction, ResizeRequest
from repro.slurm import Job, PolicyConfig, PolicyView, ReconfigurationPolicy, plan_backfill


def pend(nodes, limit, jid, submit=0.0):
    job = Job(name=f"p{jid}", num_nodes=nodes, time_limit=limit)
    job.job_id = jid
    job.submit_time = submit
    return job


def run(nodes, start, limit, jid):
    job = Job(name=f"r{jid}", num_nodes=nodes, time_limit=limit)
    job.job_id = jid
    job.start_time = start
    # Running jobs hold their nodes; the planner counts the held set.
    job.nodes = tuple(range(1000 * jid, 1000 * jid + nodes))
    return job


queue_strategy = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=16),  # nodes
        st.floats(min_value=1.0, max_value=500.0),  # limit
    ),
    min_size=0,
    max_size=20,
)

running_strategy = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=1.0, max_value=200.0),
    ),
    min_size=0,
    max_size=8,
)


class TestBackfillProperties:
    @given(queue=queue_strategy, running=running_strategy, total=st.integers(8, 32))
    @settings(max_examples=150, deadline=None)
    def test_never_overallocates(self, queue, running, total):
        running_jobs = [run(n, 0.0, l, 100 + i) for i, (n, l) in enumerate(running)]
        used = sum(j.num_nodes for j in running_jobs)
        free = max(0, total - used)
        pending = [pend(n, l, i) for i, (n, l) in enumerate(queue)]
        starts, _ = plan_backfill(pending, running_jobs, free, now=0.0)
        assert sum(j.num_nodes for j in starts) <= free
        # No job started twice.
        assert len({j.job_id for j in starts}) == len(starts)

    @given(queue=queue_strategy, running=running_strategy, total=st.integers(8, 32))
    @settings(max_examples=150, deadline=None)
    def test_backfill_does_not_delay_reservation(self, queue, running, total):
        """Backfilled jobs fit before the shadow or beside the reservation."""
        running_jobs = [run(n, 0.0, l, 100 + i) for i, (n, l) in enumerate(running)]
        used = sum(j.num_nodes for j in running_jobs)
        free = max(0, total - used)
        pending = [pend(n, l, i) for i, (n, l) in enumerate(queue)]
        starts, reservation = plan_backfill(pending, running_jobs, free, now=0.0)
        if reservation is None:
            return
        started = {j.job_id for j in starts}
        blocked_idx = pending.index(reservation.job)
        # Phase-1 starts (before the blocked job) are unconstrained; the
        # backfilled ones (after it) must respect the reservation.
        extra = reservation.extra_nodes
        for job in pending[blocked_idx + 1 :]:
            if job.job_id in started:
                fits_before = job.time_limit <= reservation.shadow_time
                fits_beside = job.num_nodes <= extra
                assert fits_before or fits_beside
                if not fits_before:
                    extra -= job.num_nodes

    @given(queue=queue_strategy)
    @settings(max_examples=100, deadline=None)
    def test_empty_machine_priority_prefix_starts(self, queue):
        """On an idle machine the highest-priority fitting prefix starts."""
        pending = [pend(n, l, i) for i, (n, l) in enumerate(queue)]
        starts, _ = plan_backfill(pending, [], 16, now=0.0)
        if pending and pending[0].num_nodes <= 16:
            assert pending[0] in starts


class TestPolicyProperties:
    requests = st.builds(
        lambda lo, span, pref_frac: ResizeRequest(
            min_procs=lo,
            max_procs=lo + span,
            factor=2,
            preferred=None if pref_frac is None else min(lo + span, max(lo, pref_frac)),
        ),
        lo=st.integers(1, 4),
        span=st.integers(0, 28),
        pref_frac=st.one_of(st.none(), st.integers(1, 32)),
    )

    @given(
        request=requests,
        current=st.integers(1, 32),
        free=st.integers(0, 64),
        pending_sizes=st.lists(st.integers(1, 32), max_size=5),
    )
    @settings(max_examples=300, deadline=None)
    def test_decisions_always_legal(self, request, current, free, pending_sizes):
        """Whatever the inputs, decisions stay within physical limits."""
        job = Job(name="x", num_nodes=current, time_limit=10.0)
        job.job_id = 1
        view = PolicyView(
            free_nodes=free,
            pending=tuple(pend(n, 10.0, 10 + i) for i, n in enumerate(pending_sizes)),
        )
        for cfg in (
            PolicyConfig(),
            PolicyConfig(shrink_mode="deepest"),
            PolicyConfig(expand_with_pending=True, shrink_beneficiary="any"),
        ):
            decision = ReconfigurationPolicy(cfg).decide(job, request, view)
            if decision.action is ResizeAction.EXPAND:
                assert decision.target_procs > current
                assert decision.target_procs <= request.max_procs
                # An expansion never claims more nodes than are free.
                assert decision.target_procs - current <= free
            elif decision.action is ResizeAction.SHRINK:
                assert decision.target_procs < current
                assert decision.target_procs >= request.min_procs
                # Factor-2 reachability.
                assert decision.target_procs in request.shrink_sizes(current)
            else:
                assert decision.target_procs == current


# -- differential legacy-vs-incremental scheduler fuzzing ----------------------
#
# PR 4 proved the incremental O(k log n) scheduler byte-identical to the
# legacy resort-per-pass one on three pinned golden traces.  The suite
# below fuzzes that equivalence proof: random job traces — sizes, limits,
# moldable flags, mid-run cancels, node failures with repairs — are
# replayed through the production controller and the resort-per-pass
# reference (:class:`ResortPerPassController`), and the *entire canonical trace*
# (every start, backfill pick, requeue, resize decision and allocation
# change, in order) must match exactly.  Every replay also runs under the
# InvariantObserver, so the fuzz doubles as an invariant hunt.

from repro.cluster import Machine
from repro.metrics.trace import canonical_lines
from repro.sim import Environment
from repro.sim.process import Interrupt
from repro.slurm import SlurmController
from repro.slurm.job import JobClass
from repro.testing import InvariantObserver, run_bounded
from repro.testing.reference import ResortPerPassController

DIFF_NODES = 12
DIFF_HORIZON = 100_000.0


@dataclass(frozen=True)
class TraceJob:
    nodes: int
    runtime: float
    limit_factor: float
    gap: float  # arrival gap after the previous submission
    moldable: bool
    cancel_after: Optional[float]  # seconds after submission, or None


@dataclass(frozen=True)
class TraceFault:
    time: float
    node: int
    repair_after: Optional[float]


job_strategy = st.builds(
    TraceJob,
    nodes=st.integers(1, 8),
    runtime=st.floats(1.0, 300.0),
    limit_factor=st.floats(1.05, 3.0),
    gap=st.floats(0.0, 40.0),
    moldable=st.booleans(),
    cancel_after=st.one_of(st.none(), st.floats(0.0, 200.0)),
)

fault_strategy = st.builds(
    TraceFault,
    time=st.floats(0.0, 500.0),
    node=st.integers(0, DIFF_NODES - 1),
    repair_after=st.one_of(st.none(), st.floats(1.0, 300.0)),
)


def _replay_differential(jobs: List[TraceJob], faults: List[TraceFault],
                         incremental: bool) -> List[str]:
    """Replay a fuzzed trace through one scheduler; canonical lines."""
    env = Environment()
    machine = Machine(DIFF_NODES)
    controller_class = (
        SlurmController if incremental else ResortPerPassController
    )
    ctl = controller_class(env, machine)
    observer = InvariantObserver(controller=ctl)
    ctl.trace.subscribe(observer.on_event)
    runtimes = {}

    def execute(job):
        try:
            yield env.timeout(runtimes[job.job_id])
            ctl.finish_job(job)
        except Interrupt:
            return  # cancelled or requeued; the controller settled it

    def launcher(job):
        proc = env.process(execute(job), name=f"run-{job.job_id}")
        ctl.register_job_process(job, proc)

    ctl.launcher = launcher

    def canceller(job, delay):
        yield env.timeout(delay)
        if not job.is_terminal:
            ctl.cancel_job(job)

    def submitter():
        for spec in jobs:
            if spec.gap > 0:
                yield env.timeout(spec.gap)
            kwargs = {}
            if spec.moldable:
                kwargs = dict(
                    job_class=JobClass.MOLDABLE,
                    resize_request=ResizeRequest(
                        min_procs=1, max_procs=spec.nodes
                    ),
                )
            job = ctl.submit(
                Job(
                    name=f"fz-{spec.nodes}n",
                    num_nodes=spec.nodes,
                    time_limit=spec.runtime * spec.limit_factor,
                    **kwargs,
                )
            )
            runtimes[job.job_id] = spec.runtime
            if spec.cancel_after is not None:
                env.process(canceller(job, spec.cancel_after))

    def fault_driver():
        for fault in sorted(faults, key=lambda f: f.time):
            if fault.time > env.now:
                yield env.timeout(fault.time - env.now)
            node = machine.nodes[fault.node]
            from repro.cluster.node import NodeState

            if node.state is not NodeState.DOWN:
                ctl.fail_node(fault.node)
                if fault.repair_after is not None:
                    env.process(repairer(fault.node, fault.repair_after))

    def repairer(idx, delay):
        yield env.timeout(delay)
        from repro.cluster.node import NodeState

        if machine.nodes[idx].state is NodeState.DOWN:
            ctl.recover_node(idx)

    env.process(submitter(), name="submitter")
    env.process(fault_driver(), name="faults")
    run_bounded(env, until=DIFF_HORIZON, max_events=500_000)
    assert observer.verify_final() > 0
    return canonical_lines(ctl.trace)


class TestDifferentialSchedulerEquivalence:
    @given(jobs=st.lists(job_strategy, min_size=1, max_size=18))
    @settings(max_examples=40, deadline=None)
    def test_identical_traces_without_faults(self, jobs):
        legacy = _replay_differential(jobs, [], incremental=False)
        incremental = _replay_differential(jobs, [], incremental=True)
        assert legacy == incremental

    @given(
        jobs=st.lists(job_strategy, min_size=1, max_size=14),
        faults=st.lists(fault_strategy, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_identical_traces_with_faults(self, jobs, faults):
        legacy = _replay_differential(jobs, faults, incremental=False)
        incremental = _replay_differential(jobs, faults, incremental=True)
        assert legacy == incremental
