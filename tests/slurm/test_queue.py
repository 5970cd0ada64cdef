"""Tests for the incremental pending queue (the scheduler hot path)."""

import random

from repro.cluster import Machine
from repro.metrics.trace import canonical_lines
from repro.sim import Environment
from repro.slurm import (
    Job,
    MultifactorConfig,
    MultifactorPriority,
    PendingQueue,
    SlurmController,
)
from repro.testing.reference import ResortPerPassController


def job_of(jid, nodes, submit, boost=0.0):
    job = Job(name=f"j{jid}", num_nodes=nodes, time_limit=100.0)
    job.job_id = jid
    job.submit_time = submit
    job.priority_boost = boost
    return job


def engine(nodes=32, **cfg):
    return MultifactorPriority(MultifactorConfig(**cfg), nodes)


def random_jobs(rng, n, max_nodes=32):
    jobs = []
    for i in range(1, n + 1):
        boost = float("inf") if rng.random() < 0.1 else 0.0
        jobs.append(
            job_of(i, rng.randint(1, max_nodes), rng.uniform(0, 1000), boost)
        )
    return jobs


class TestOrderEquivalence:
    """queue.ordered() must equal the legacy sort for any job mix."""

    def test_matches_sort_queue_random(self):
        rng = random.Random(7)
        eng = engine()
        for trial in range(20):
            jobs = random_jobs(rng, 40)
            queue = PendingQueue(eng)
            for job in jobs:
                queue.add(job, now=job.submit_time)
            now = 2000.0
            assert queue.ordered(now) == eng.sort_queue(jobs, now)

    def test_pop_order_matches_sorted_order(self):
        rng = random.Random(13)
        eng = engine()
        jobs = random_jobs(rng, 30)
        queue = PendingQueue(eng)
        for job in jobs:
            queue.add(job, now=job.submit_time)
        expected = eng.sort_queue(jobs, 5000.0)
        popped = []
        while True:
            job = queue.pop_head(5000.0)
            if job is None:
                break
            popped.append(job)
        assert popped == expected

    def test_key_time_invariance_before_saturation(self):
        eng = engine()
        a = job_of(1, 4, submit=10.0)
        b = job_of(2, 9, submit=400.0)
        k_early = eng.sort_key(a, 500.0), eng.sort_key(b, 500.0)
        k_late = eng.sort_key(a, 90_000.0), eng.sort_key(b, 90_000.0)
        assert k_early == k_late


class TestIncrementalUpdates:
    def test_push_back_preserves_position(self):
        eng = engine()
        queue = PendingQueue(eng)
        jobs = [job_of(i, i, submit=float(i)) for i in range(1, 6)]
        for job in jobs:
            queue.add(job, now=job.submit_time)
        head = queue.pop_head(10.0)
        queue.push_back(head)
        assert queue.pop_head(10.0) is head

    def test_discard_and_contains(self):
        eng = engine()
        queue = PendingQueue(eng)
        job = job_of(1, 4, 0.0)
        queue.add(job, now=0.0)
        assert job in queue and len(queue) == 1
        queue.discard(job)
        assert job not in queue and len(queue) == 0
        assert queue.pop_head(1.0) is None
        queue.discard(job)  # idempotent

    def test_reprioritize_moves_boosted_job_to_front(self):
        eng = engine()
        queue = PendingQueue(eng)
        small = job_of(1, 1, submit=0.0)
        big = job_of(2, 32, submit=0.0)
        queue.add(small, now=0.0)
        queue.add(big, now=0.0)
        assert queue.ordered(1.0)[0] is big  # favor_big default
        small.priority_boost = float("inf")
        queue.reprioritize(small, now=1.0)
        assert queue.ordered(1.0)[0] is small
        # Re-boosting again must not corrupt the heap (dead-entry ties).
        queue.reprioritize(small, now=2.0)
        assert queue.pop_head(2.0) is small

    def test_forget_drops_checkout(self):
        eng = engine()
        queue = PendingQueue(eng)
        job = job_of(1, 2, 0.0)
        queue.add(job, 0.0)
        assert queue.pop_head(0.0) is job
        queue.forget(job)
        assert len(queue) == 0 and queue.pop_head(0.0) is None


class TestSaturationFallback:
    """Once a job's age factor saturates the static keys go stale; the
    queue must fall back to re-keying and still match the legacy sort."""

    def test_order_correct_across_saturation(self):
        # Tiny max_age so saturation is easy to reach: beyond it, an old
        # small job's priority freezes while a younger big job keeps
        # gaining and eventually overtakes it.
        eng = engine(max_age=100.0)
        old_small = job_of(1, 1, submit=0.0)
        young_big = job_of(2, 24, submit=90.0)
        queue = PendingQueue(eng)
        queue.add(old_small, now=0.0)
        queue.add(young_big, now=90.0)
        for now in (95.0, 120.0, 250.0, 1000.0):
            assert queue.ordered(now) == eng.sort_queue(
                [old_small, young_big], now
            ), f"diverged at now={now}"

    def test_rebuild_counts_tracked(self):
        eng = engine(max_age=10.0)
        queue = PendingQueue(eng)
        queue.add(job_of(1, 2, submit=0.0), now=0.0)
        queue.ordered(50.0)  # past saturation: forces a rebuild
        assert queue.stats.queue_rebuilds >= 1


class TestControllerModeEquivalence:
    """The incremental controller and the resort-per-pass reference
    must emit identical traces."""

    def _drive(self, incremental):
        env = Environment()
        controller_class = (
            SlurmController if incremental else ResortPerPassController
        )
        ctl = controller_class(env, Machine(16))
        rng = random.Random(42)
        jobs = []
        for i in range(30):
            job = Job(
                name=f"w{i}",
                num_nodes=rng.randint(1, 12),
                time_limit=rng.uniform(20.0, 200.0),
            )
            jobs.append(job)

        def arrivals():
            for job in jobs:
                yield env.timeout(rng.uniform(0.0, 10.0))
                ctl.submit(job)

        def reaper():
            # Finish running jobs after a deterministic pseudo-runtime.
            pending = set()
            while not ctl.all_done() or pending:
                for job in list(ctl.running.values()):
                    if job.job_id not in pending:
                        pending.add(job.job_id)
                        env.process(finisher(job))
                yield env.timeout(5.0)
                pending = {j for j in pending if j in ctl.running}

        def finisher(job):
            yield env.timeout(job.time_limit / 4.0)
            if job.job_id in ctl.running:
                ctl.finish_job(job)

        env.process(arrivals(), name="arrivals")
        env.process(reaper(), name="reaper")
        env.run(until=2000.0)
        return canonical_lines(ctl.trace)

    def test_traces_identical(self):
        assert self._drive(incremental=True) == self._drive(incremental=False)
