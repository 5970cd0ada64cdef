"""Reference scheduler: the original resort-per-pass controller.

:class:`ResortPerPassController` is the test oracle for the production
scheduler.  It re-sorts the whole pending queue with freshly computed
multifactor priorities on every FIFO and backfill pass, and hands
Algorithm 1 that sorted queue as a tuple at every policy view, exactly
as the controller did before :class:`~repro.slurm.queue.PendingQueue`
made the hot path incremental.  Both must start the same jobs in the same order:
the differential tests replay the same inputs through each and diff the
canonical traces, and ``repro bench sched`` replays its traces through
both (the ``legacy`` rows of ``BENCH_sched.json``) to record how much
comparison work the incremental queue saves.

It is never used in production runs; select it with
``replay_sched_trace(trace, incremental=False)`` or by building it
directly in place of :class:`~repro.slurm.controller.SlurmController`.
"""

from __future__ import annotations

from time import perf_counter
from typing import List

from repro.sim.events import Event
from repro.slurm.backfill import plan_backfill
from repro.slurm.controller import SlurmController
from repro.slurm.job import Job
from repro.slurm.reconfig import PolicyView


class _NoQueue:
    """Stand-in for the pending queue: the reference keeps none.

    The controller's queue updates become no-ops, so the reference does
    and counts only the resort-per-pass work (no queue traffic, no
    queue-depth tally).
    """

    def add(self, job: Job, now: float) -> None:
        pass

    def discard(self, job: Job) -> None:
        pass

    def reprioritize(self, job: Job, now: float) -> None:
        pass


class ResortPerPassController(SlurmController):
    """:class:`SlurmController` that re-sorts the queue on every pass."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.queue = _NoQueue()

    def pending_jobs(self, include_resizers: bool = True) -> List[Job]:
        """Pending queue in multifactor priority order, sorted afresh."""
        jobs = [
            j
            for j in self.pending.values()
            if include_resizers or not j.is_resizer
        ]
        # Every ordered view recomputes one priority per job.
        self.stats.key_evals += len(jobs)
        return self.priority_engine.sort_queue(jobs, self.env.now)

    def policy_view(self) -> PolicyView:
        """The materialized view: the sorted queue as a tuple, per call."""
        return PolicyView(
            free_nodes=self.machine.free_count,
            pending=tuple(self.pending_jobs(include_resizers=False)),
            running_count=len(self.running),
        )

    def _scheduling_pass(self, _event: Event) -> None:
        self._pass_scheduled = False
        wall_t0 = perf_counter() if self.telemetry is not None else 0.0
        free = self.machine.free_count
        examined = started = 0
        for job in self.pending_jobs():
            examined += 1
            if not self._dependency_satisfied(job):
                continue
            if job.num_nodes > free:
                fitted = self._moldable_fit(job, free)
                if fitted is None:
                    break
                job.num_nodes = fitted
            self._start_job(job)
            started += 1
            free -= job.num_nodes
        self._note_pass("fifo", examined, started, wall_t0)

    def _backfill_pass(self) -> None:
        wall_t0 = perf_counter() if self.telemetry is not None else 0.0
        pending = self.pending_jobs()
        eligible = [j for j in pending if self._dependency_satisfied(j)]
        running = self.running_jobs()
        starts, reservation = plan_backfill(
            eligible,
            running,
            self.machine.free_count,
            self.env.now,
            unreturnable=self.machine.held_unreturnable,
        )
        if reservation is not None:
            # compute_shadow sorted every running job (plus this pass's
            # picks) by expected end.
            self.stats.running_end_evals += len(running) + len(starts)
        for job in starts:
            self._start_job(job)
        self._note_pass("backfill", len(pending), len(starts), wall_t0)
