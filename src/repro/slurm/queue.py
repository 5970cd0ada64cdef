"""Incrementally-maintained pending queue — the scheduler's hot path.

The original controller re-sorted the whole pending queue with freshly
computed multifactor priorities on *every* scheduling pass, making each
submit/finish/shrink O(n log n) in the total queue and the full trace
O(n^2) — fine for the paper's 10-400 job workloads, hopeless for 50k-job
SWF replays.  :class:`PendingQueue` keeps the queue in a binary heap
ordered by :meth:`~repro.slurm.priority.MultifactorPriority.sort_key`,
which is *time-invariant* while every entry's age factor is below
saturation, so a scheduling pass only pays O(k log n) for the k jobs it
actually examines and a job's key is computed once at submission instead
of once per pass.

Saturation (a job pending longer than ``PriorityMaxAge``, 7 days by
default) breaks the time-invariance: a saturated job's priority stops
growing while younger jobs keep catching up.  The queue watches the
earliest saturation deadline and, once crossed, degrades to re-keying the
live entries per distinct timestamp — exactly the legacy cost, only for
queues that have had jobs pending for a week.

:class:`SchedStats` counts the work a scheduler performs (priority-key
evaluations, heap traffic, jobs examined per pass); the ``repro bench
sched`` harness reads it from the production controller and from the
resort-per-pass reference
(:class:`~repro.testing.reference.ResortPerPassController`) to prove the
incremental path does asymptotically less work.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import count
from typing import Dict, List, Optional, Tuple

from repro.slurm.job import Job
from repro.slurm.priority import MultifactorPriority


@dataclass
class SchedStats:
    """Operation counts of the scheduling hot path.

    ``key_evals`` (multifactor priority-key computations) plus
    ``running_end_evals`` (expected-end keys computed for backfill's
    shadow ordering) make up the bench's "comparisons" metric: they are
    the per-job work the resort-per-pass reference scheduler redoes on
    every pass and the incremental scheduler performs once per queue
    update.
    """

    fifo_passes: int = 0
    backfill_passes: int = 0
    key_evals: int = 0
    running_end_evals: int = 0
    heap_pushes: int = 0
    heap_pops: int = 0
    queue_rebuilds: int = 0
    jobs_examined: int = 0
    jobs_started: int = 0
    max_examined_in_pass: int = 0
    max_queue_depth: int = 0

    def record_pass(self, kind: str, examined: int, started: int) -> None:
        if kind == "backfill":
            self.backfill_passes += 1
        else:
            self.fifo_passes += 1
        self.jobs_examined += examined
        self.jobs_started += started
        if examined > self.max_examined_in_pass:
            self.max_examined_in_pass = examined

    @property
    def passes(self) -> int:
        return self.fifo_passes + self.backfill_passes

    @property
    def comparisons(self) -> int:
        """The bench's headline cost metric (see class docstring)."""
        return self.key_evals + self.running_end_evals

    def snapshot(self) -> Dict[str, float]:
        """Plain-dict view (what ``BENCH_sched.json`` records per run)."""
        return {
            "passes": self.passes,
            "fifo_passes": self.fifo_passes,
            "backfill_passes": self.backfill_passes,
            "key_evals": self.key_evals,
            "running_end_evals": self.running_end_evals,
            "comparisons": self.comparisons,
            "heap_pushes": self.heap_pushes,
            "heap_pops": self.heap_pops,
            "queue_rebuilds": self.queue_rebuilds,
            "jobs_examined": self.jobs_examined,
            "jobs_started": self.jobs_started,
            "max_examined_in_pass": self.max_examined_in_pass,
            "max_queue_depth": self.max_queue_depth,
            "examined_per_pass": (
                self.jobs_examined / self.passes if self.passes else 0.0
            ),
            "comparisons_per_pass": (
                self.comparisons / self.passes if self.passes else 0.0
            ),
        }


#: Heap entries are mutable ``[key, serial, job]`` triples; a dead entry
#: (removed or re-keyed) has its job slot cleared and is skipped lazily
#: at pop time.  The serial breaks exact key ties (a re-keyed job briefly
#: coexists with its dead predecessor under the same key), so the job
#: slot itself is never compared.
_Entry = List[object]


class PendingQueue:
    """Priority-ordered pending jobs with O(log n) incremental updates."""

    def __init__(
        self, engine: MultifactorPriority, stats: Optional[SchedStats] = None
    ) -> None:
        self.engine = engine
        self.stats = stats if stats is not None else SchedStats()
        self._heap: List[_Entry] = []
        self._entries: Dict[int, _Entry] = {}
        #: Keys of jobs popped by an in-flight pass, kept so push_back
        #: can reinsert without recomputing.
        self._checked_out: Dict[int, Tuple] = {}
        self._ordered_cache: Optional[List[Job]] = None
        #: Earliest time any current entry's age factor saturates.
        self._min_expiry = float("inf")
        #: True once a saturated entry is live: static keys are no longer
        #: trustworthy and the queue re-keys per distinct timestamp.
        self._stale = False
        self._fresh_at = float("-inf")
        self._serial = count()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, job: Job) -> bool:
        return job.job_id in self._entries

    # -- updates -----------------------------------------------------------
    def add(self, job: Job, now: float) -> None:
        """Insert a newly pending job (its key is computed once, here)."""
        self._insert(job, self._key(job, now))
        depth = len(self._entries)
        if depth > self.stats.max_queue_depth:
            self.stats.max_queue_depth = depth

    def discard(self, job: Job) -> None:
        """Remove a job wherever it is (no-op when absent)."""
        entry = self._entries.pop(job.job_id, None)
        if entry is not None:
            entry[2] = None  # lazily dropped at the next pop that sees it
            self._ordered_cache = None
        self._checked_out.pop(job.job_id, None)

    def reprioritize(self, job: Job, now: float) -> None:
        """Re-key a pending job after a priority change (e.g. max-priority
        boost of a shrink beneficiary)."""
        entry = self._entries.pop(job.job_id, None)
        if entry is None:
            return
        entry[2] = None
        self._insert(job, self._key(job, now))

    # -- pass-side consumption ---------------------------------------------
    def peek_head(self, now: float) -> Optional[Job]:
        """The highest-priority job without checking it out (None if empty).

        Lets a scheduling pass look at the queue head for free: when the
        head does not fit the free nodes the pass ends without ever
        touching the heap, instead of paying a pop/push-back round trip
        for every event-driven pass in a saturated system.  Dead entries
        encountered on the way are dropped, exactly as in
        :meth:`pop_head`.
        """
        self._ensure_fresh(now)
        heap = self._heap
        while heap:
            entry = heap[0]
            job = entry[2]
            if job is None or self._entries.get(job.job_id) is not entry:
                heapq.heappop(heap)  # dead entry
                continue
            return job
        return None

    def pop_head(self, now: float) -> Optional[Job]:
        """Check out the highest-priority job (None when empty).

        The caller either starts the job, abandons it via :meth:`forget`,
        or returns it untouched with :meth:`push_back` (no re-keying).
        """
        self._ensure_fresh(now)
        heap = self._heap
        while heap:
            entry = heap[0]
            job = entry[2]
            if job is None or self._entries.get(job.job_id) is not entry:
                heapq.heappop(heap)  # dead entry
                continue
            heapq.heappop(heap)
            del self._entries[job.job_id]
            self._checked_out[job.job_id] = entry[0]
            self.stats.heap_pops += 1
            self._ordered_cache = None
            return job
        return None

    def push_back(self, job: Job) -> None:
        """Return a checked-out job to the queue with its cached key."""
        key = self._checked_out.pop(job.job_id)
        self._insert(job, key)

    def forget(self, job: Job) -> None:
        """Drop the checkout record of a job that started (or died)."""
        self._checked_out.pop(job.job_id, None)

    # -- ordered views -------------------------------------------------------
    def ordered(self, now: float) -> List[Job]:
        """All pending jobs in scheduling order (fresh list per call).

        Jobs currently checked out by an in-flight pass are not listed;
        passes are synchronous, so outside observers never see a
        checkout in progress.
        """
        self._ensure_fresh(now)
        if self._ordered_cache is None:
            live = sorted(
                (entry for entry in self._entries.values()),
                key=lambda entry: entry[0],
            )
            self._ordered_cache = [entry[2] for entry in live]
        return list(self._ordered_cache)

    # -- internals -----------------------------------------------------------
    def _key(self, job: Job, now: float) -> Tuple:
        self.stats.key_evals += 1
        return self.engine.sort_key(job, now)

    def _insert(self, job: Job, key: Tuple) -> None:
        entry: _Entry = [key, next(self._serial), job]
        self._entries[job.job_id] = entry
        heapq.heappush(self._heap, entry)
        self.stats.heap_pushes += 1
        self._note_expiry(job)
        self._ordered_cache = None

    def _note_expiry(self, job: Job) -> None:
        if job.priority_boost == float("inf") or job.submit_time is None:
            return  # pinned to the front / keyed as submit 0.0: no drift
        expiry = job.submit_time + self.engine.config.max_age
        if expiry < self._min_expiry:
            self._min_expiry = expiry

    def _ensure_fresh(self, now: float) -> None:
        if not self._stale and now < self._min_expiry:
            return
        if self._stale and self._fresh_at == now:
            return
        self._rebuild(now)

    def _rebuild(self, now: float) -> None:
        """Re-key every live entry at ``now`` (saturated-queue fallback)."""
        jobs = [entry[2] for entry in self._entries.values()]
        self._heap = []
        self._entries = {}
        self._min_expiry = float("inf")
        self._stale = False
        self._ordered_cache = None
        for job in jobs:
            key = self._key(job, now)
            entry: _Entry = [key, next(self._serial), job]
            self._entries[job.job_id] = entry
            self._heap.append(entry)
            self._note_expiry(job)
            if (
                job.priority_boost != float("inf")
                and job.submit_time is not None
                and now - job.submit_time >= self.engine.config.max_age
            ):
                self._stale = True
        heapq.heapify(self._heap)
        self._fresh_at = now
        self.stats.queue_rebuilds += 1
