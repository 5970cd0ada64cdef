"""Incrementally-maintained pending queue — the scheduler's hot path.

The original controller re-sorted the whole pending queue with freshly
computed multifactor priorities on *every* scheduling pass, making each
submit/finish/shrink O(n log n) in the total queue and the full trace
O(n^2) — fine for the paper's 10-400 job workloads, hopeless for 50k-job
SWF replays.  :class:`PendingQueue` keeps the queue as one list sorted
by :meth:`~repro.slurm.priority.MultifactorPriority.sort_key`, which is
*time-invariant* while every entry's age factor is below saturation, so
a job's key is computed once at submission instead of once per pass,
and an update is a binary search plus a pointer move.

Readers read the list in place and pay only for what they look at:

* the FIFO pass peeks at the head and checks a job out
  (:meth:`PendingQueue.pop_head`) only once it is known to start;
* the backfill pass reads the first ``bf_max_job_test`` jobs through
  :meth:`PendingQueue.walk`, which moves nothing: the jobs it starts
  leave through :meth:`PendingQueue.discard`, the others stay put;
* Algorithm 1 reads a :class:`PendingSnapshot` — the pending count, the
  narrowest pending width and the highest-priority job, all kept
  current by a per-width index — and the full priority order only when
  a caller iterates it.

Saturation (a job pending longer than ``PriorityMaxAge``, 7 days by
default) breaks the time-invariance: a saturated job's priority stops
growing while younger jobs keep catching up.  The queue watches the
earliest saturation deadline and, once crossed, degrades to re-keying the
live entries per distinct timestamp — exactly the legacy cost, only for
queues that have had jobs pending for a week.

:class:`SchedStats` counts the work a scheduler performs (priority-key
evaluations, queue traffic, jobs examined per pass); the ``repro bench
sched`` harness reads it from the production controller and from the
resort-per-pass reference
(:class:`~repro.testing.reference.ResortPerPassController`) to prove the
incremental path does asymptotically less work.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, insort
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.slurm.job import Job
from repro.slurm.priority import MultifactorPriority

_INF = float("inf")


@dataclass
class SchedStats:
    """Operation counts of the scheduling hot path.

    ``key_evals`` (multifactor priority-key computations) plus
    ``running_end_evals`` (expected-end keys computed for backfill's
    shadow ordering) make up the bench's "comparisons" metric: they are
    the per-job work the resort-per-pass reference scheduler redoes on
    every pass and the incremental scheduler performs once per queue
    update.  ``heap_pushes`` counts queue insertions and ``heap_pops``
    checkouts by :meth:`PendingQueue.pop_head` (the names predate the
    sorted list and stay as the bench's keys).
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


class PendingSnapshot(Sequence):
    """The pending non-resizer jobs at one instant, in priority order.

    Its length, :attr:`min_width` (the narrowest pending job's node
    count, None when nothing is pending) and :attr:`head` (the
    highest-priority job) are fixed when the snapshot is taken.  The
    full order is built on first iteration or indexing.  A snapshot
    taken from a :class:`PendingQueue` stays a snapshot: if the queue
    changes before the order was built, the queue builds it first, so
    a snapshot never reports newer state.
    """

    __slots__ = ("_count", "min_width", "head", "_jobs", "_queue",
                 "__weakref__")

    def __init__(
        self,
        count: int,
        min_width: Optional[int],
        head: Optional[Job],
        jobs: Optional[Tuple[Job, ...]] = None,
        queue: Optional["PendingQueue"] = None,
    ) -> None:
        self._count = count
        self.min_width = min_width
        self.head = head
        self._jobs = jobs
        self._queue = queue

    @classmethod
    def of(cls, jobs: Iterable[Job] = ()) -> "PendingSnapshot":
        """A snapshot of jobs already listed in priority order."""
        jobs = tuple(jobs)
        return cls(
            len(jobs),
            min((job.num_nodes for job in jobs), default=None),
            jobs[0] if jobs else None,
            jobs,
        )

    def jobs(self) -> Tuple[Job, ...]:
        """The full priority order (built once, on first use)."""
        if self._jobs is None:
            self._jobs = self._queue._pending_order()
            self._queue = None
        return self._jobs

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        return self.jobs()[index]

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PendingSnapshot):
            other = other.jobs()
        if not isinstance(other, tuple):
            return NotImplemented
        return self.jobs() == other

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PendingSnapshot({list(self.jobs())!r})"


#: Queue entries are ``(key, job, width)`` tuples kept sorted by key.
#: Keys end in the job id, so they are unique and a comparison never
#: reaches the job.  ``width`` is the job's node count when it entered
#: the queue (None for resizers, which Algorithm 1 ignores): the width
#: index is debited with it, never with a ``num_nodes`` that changed
#: since.
_Entry = Tuple[Tuple, Job, Optional[int]]


class PendingQueue:
    """Priority-ordered pending jobs with O(log n)-comparison updates.

    The entries live in one list sorted by key: an update is a binary
    search plus a pointer move, and every reader (head, walk, ordered
    view, snapshot) reads the list in place.
    """

    def __init__(
        self, engine: MultifactorPriority, stats: Optional[SchedStats] = None
    ) -> None:
        self.engine = engine
        self.stats = stats if stats is not None else SchedStats()
        self._sorted: List[_Entry] = []
        self._entries: Dict[int, _Entry] = {}
        #: Key and width of jobs popped by an in-flight pass, kept so
        #: push_back can reinsert without recomputing.
        self._checked_out: Dict[int, Tuple] = {}
        #: Width index: live non-resizer entries per node count, their
        #: total and the smallest width present (inf when none).
        self._widths: Dict[int, int] = {}
        self._counted = 0
        self._min_width = _INF
        #: Snapshots whose order is not built yet; built before the
        #: next update so they keep reporting the state they were
        #: taken in.
        self._open: List[weakref.ref] = []
        #: Earliest time any current entry's age factor saturates.
        self._min_expiry = _INF
        #: True once a saturated entry is live: static keys are no longer
        #: trustworthy and the queue re-keys per distinct timestamp.
        self._stale = False
        self._fresh_at = float("-inf")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, job: Job) -> bool:
        return job.job_id in self._entries

    # -- updates -----------------------------------------------------------
    def add(self, job: Job, now: float) -> None:
        """Insert a newly pending job (its key is computed once, here)."""
        width = None if job.is_resizer else job.num_nodes
        self._insert(job, self._key(job, now), width)
        depth = len(self._entries)
        if depth > self.stats.max_queue_depth:
            self.stats.max_queue_depth = depth

    def discard(self, job: Job) -> None:
        """Remove a job wherever it is (no-op when absent)."""
        if job.job_id in self._entries:
            self._remove(job)
        self._checked_out.pop(job.job_id, None)

    def reprioritize(self, job: Job, now: float) -> None:
        """Re-key a pending job after a priority change (e.g. max-priority
        boost of a shrink beneficiary)."""
        if job.job_id not in self._entries:
            return
        _, _, width = self._remove(job)
        self._insert(job, self._key(job, now), width)

    # -- pass-side consumption ---------------------------------------------
    def peek_head(self, now: float) -> Optional[Job]:
        """The highest-priority job without checking it out (None if empty).

        Lets a scheduling pass look at the queue head for free: when the
        head does not fit the free nodes the pass ends without touching
        the queue, instead of paying a pop/push-back round trip for
        every event-driven pass in a saturated system.
        """
        self._ensure_fresh(now)
        return self._sorted[0][1] if self._sorted else None

    def pop_head(self, now: float) -> Optional[Job]:
        """Check out the highest-priority job (None when empty).

        The caller either starts the job (:meth:`discard` then drops the
        checkout record) or returns it untouched with :meth:`push_back`
        (no re-keying).
        """
        self._ensure_fresh(now)
        if not self._sorted:
            return None
        key, job, width = self._remove(self._sorted[0][1])
        self._checked_out[job.job_id] = (key, width)
        self.stats.heap_pops += 1
        return job

    def push_back(self, job: Job) -> None:
        """Return a checked-out job to the queue with its cached key."""
        key, width = self._checked_out.pop(job.job_id)
        self._insert(job, key, width)

    # -- ordered views -------------------------------------------------------
    def walk(self, now: float) -> Iterator[Job]:
        """Pending jobs in scheduling order, lazily and read-only.

        Reads the sorted entries in place: the first k jobs cost O(k)
        and nothing is popped, pushed or re-keyed.  The iterator must be
        consumed before the queue changes.
        """
        self._ensure_fresh(now)
        return (entry[1] for entry in self._sorted)

    def ordered(self, now: float) -> List[Job]:
        """All pending jobs in scheduling order (fresh list per call).

        Jobs currently checked out by an in-flight pass are not listed;
        passes are synchronous, so outside observers never see a
        checkout in progress.
        """
        self._ensure_fresh(now)
        return [entry[1] for entry in self._sorted]

    def snapshot(self, now: float) -> PendingSnapshot:
        """The pending non-resizer jobs as Algorithm 1 sees them.

        O(1) unless resizers sit at the head: the count and minimum
        width come from the width index.  The order is built only if
        the snapshot is iterated (see :class:`PendingSnapshot`).
        """
        self._ensure_fresh(now)
        if not self._counted:
            return PendingSnapshot(0, None, None, ())
        _, head, width = self._sorted[0]
        if width is None:  # a resizer heads the queue
            head = next(job for _, job, w in self._sorted if w is not None)
        snap = PendingSnapshot(self._counted, self._min_width, head, queue=self)
        self._open.append(weakref.ref(snap))
        return snap

    # -- internals -----------------------------------------------------------
    def _key(self, job: Job, now: float) -> Tuple:
        self.stats.key_evals += 1
        return self.engine.sort_key(job, now)

    def _pending_order(self) -> Tuple[Job, ...]:
        """The non-resizer jobs in order, at the current keys."""
        return tuple(job for _, job, width in self._sorted if width is not None)

    def _changing(self) -> None:
        """Build the order of every live open snapshot before an update."""
        if not self._open:
            return
        refs, self._open = self._open, []
        for ref in refs:
            snap = ref()
            if snap is not None:
                snap.jobs()

    def _insert(self, job: Job, key: Tuple, width: Optional[int]) -> None:
        self._changing()
        entry = (key, job, width)
        self._entries[job.job_id] = entry
        insort(self._sorted, entry)
        self.stats.heap_pushes += 1
        if width is not None:
            self._widths[width] = self._widths.get(width, 0) + 1
            self._counted += 1
            if width < self._min_width:
                self._min_width = width
        self._note_expiry(job)

    def _remove(self, job: Job) -> _Entry:
        """Take a queued job's entry out of the list and the index."""
        self._changing()
        entry = self._entries.pop(job.job_id)
        del self._sorted[bisect_left(self._sorted, entry)]
        width = entry[2]
        if width is not None:
            left = self._widths[width] - 1
            self._counted -= 1
            if left:
                self._widths[width] = left
            else:
                del self._widths[width]
                if width == self._min_width:
                    self._min_width = min(self._widths, default=_INF)
        return entry

    def _note_expiry(self, job: Job) -> None:
        if job.priority_boost == _INF or job.submit_time is None:
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
        """Re-key every entry at ``now`` (saturated-queue fallback).

        The set of entries and their widths do not change, so the width
        index carries over as it is.
        """
        self._changing()
        self._min_expiry = _INF
        self._stale = False
        for _, job, width in self._sorted:
            self._entries[job.job_id] = (self._key(job, now), job, width)
            self._note_expiry(job)
            if (
                job.priority_boost != _INF
                and job.submit_time is not None
                and now - job.submit_time >= self.engine.config.max_age
            ):
                self._stale = True
        self._sorted = sorted(self._entries.values())
        self._fresh_at = now
        self.stats.queue_rebuilds += 1
