"""Tests of the benchmark's own logic (no program run needed)."""

from __future__ import annotations

import asyncio
import time

import pytest

from perfbench.common import gate_renditions, load_json, load_shapes
from perfbench.layers import Tracer, layer_metrics
from perfbench.serve import (
    Client, client_metrics, cpu_per_request, schedule, solo_rounds,
)
from perfbench.sims import SimWorkload
from perfbench.stats import percentile, samples_for, tail_percentile


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_subtracts_nested_wrapped_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 10

    def middle():
        clock.now += 2
        leaf()
        clock.now += 1

    def outer():
        clock.now += 5
        middle()
        leaf()
        clock.now += 3

    leaf = tracer.wrap("leaf", leaf)
    middle = tracer.wrap("middle", middle)
    outer = tracer.wrap("outer", outer)
    outer()
    t = tracer.snapshot()
    assert t["leaf"] == {"calls": 2, "total_ns": 20, "self_ns": 20, "extra": {}}
    assert t["middle"]["total_ns"] == 13 and t["middle"]["self_ns"] == 3
    assert t["outer"]["total_ns"] == 31 and t["outer"]["self_ns"] == 8
    # Self times partition the outermost call's wall.
    assert sum(v["self_ns"] for v in t.values()) == t["outer"]["total_ns"]


def test_self_time_survives_exceptions_and_unwrapped_gaps():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def failing():
        clock.now += 4
        raise KeyError("boom")

    def unwrapped_then_failing():
        clock.now += 6  # time in unwrapped code stays with the caller
        with pytest.raises(KeyError):
            failing()

    failing = tracer.wrap("failing", failing)
    outer = tracer.wrap("outer", unwrapped_then_failing)
    outer()
    t = tracer.snapshot()
    assert t["failing"]["calls"] == 1 and t["failing"]["self_ns"] == 4
    assert t["outer"]["total_ns"] == 10 and t["outer"]["self_ns"] == 6
    assert tracer._stack() == []


def test_install_rebinds_imported_names_and_uninstall_restores():
    from repro.slurm import backfill, controller

    original = backfill.plan_backfill
    tracer = Tracer()
    tracer.install([("slurm.backfill", "plan",
                     "repro.slurm.backfill:plan_backfill", None)])
    try:
        assert backfill.plan_backfill is not original
        assert controller.plan_backfill is backfill.plan_backfill
    finally:
        tracer.uninstall()
    assert backfill.plan_backfill is original
    assert controller.plan_backfill is original


@pytest.mark.parametrize("count, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_samples_for_matches_the_rule():
    for pct in (50.0, 90.0, 99.0):
        n = samples_for(pct)
        assert tail_percentile(n) >= pct
        assert tail_percentile(n - 1) is None or tail_percentile(n - 1) < pct


def test_percentile_interpolates():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50.0) == 2.5
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 90.0) == pytest.approx(4.6)


def test_open_loop_latency_counts_waiting_for_a_connection():
    service = 0.05
    gap = 0.01

    class SlowClient(Client):
        async def _flow(self, item, res):
            await asyncio.sleep(service)
            res["done"] = time.perf_counter()

    client = SlowClient(port=0, shape={}, refs={}, connections=1, poll=False,
                        latency_limit=10.0)
    items = [{"phase": "heavy", "due": k * gap, "seed": 1, "flexible": False}
             for k in range(5)]
    asyncio.run(client.run(items))
    results = sorted(client.results, key=lambda r: r["due"])
    for k, r in enumerate(results):
        # Queued behind k earlier requests on the single connection: the
        # round trip from the due time grows, though the generator ran
        # on time.
        assert r["rt"] >= (k + 1) * service - k * gap - 0.005
        assert r["lag"] < gap
        assert r["error"] is None
    assert client.connections_max == 1


def test_round_trip_over_the_limit_fails_the_request():
    class SlowClient(Client):
        async def _flow(self, item, res):
            await asyncio.sleep(0.03)
            res["done"] = time.perf_counter()

    client = SlowClient(port=0, shape={}, refs={}, connections=1, poll=False,
                        latency_limit=0.01)
    asyncio.run(client.run([{"phase": "light", "due": 0.0, "seed": 1,
                             "flexible": True}]))
    assert "over the limit" in client.results[0]["error"]


def test_latencies_keep_requests_over_the_limit():
    class SlowClient(Client):
        async def _flow(self, item, res):
            await asyncio.sleep(0.01)
            res["accepted"] = res["first_frame"] = res["sent"] = 0.0
            res["done"] = time.perf_counter()
            res["status_end"] = res["done"]
            res["frames"] = 3

    client = SlowClient(port=0, shape={}, refs={}, connections=2, poll=False,
                        latency_limit=0.001)
    items = [{"phase": phase, "due": 0.001 * k, "seed": 1,
              "flexible": k % 2 == 1}
             for phase in ("light", "heavy") for k in range(4)]
    wall = asyncio.run(client.run(items))
    assert all("over the limit" in r["error"] for r in client.results)
    # Every request failed, yet each is timed and the metrics are filled.
    metrics = client_metrics({"results": client.results, "wall": wall,
                              "queue_depths": [], "connections_max": 2,
                              "routes": {}})
    assert metrics["serve.rt_p50_ms"] >= 10.0
    assert metrics["serve.light_rt_p50_ms"] >= 10.0
    assert metrics["serve.errors"] == len(items)
    assert metrics["serve.stream_frames"] == 3 * len(items)


def test_solo_rounds_are_a_count_fixed_by_the_run_length():
    shape = {"solo_round_s": {"fixed": 0.15, "flexible": 0.6}}
    assert solo_rounds(shape, False, 15.0) == 100
    assert solo_rounds(shape, True, 15.0) == 25
    assert solo_rounds(shape, True, 0.1) == 1


def test_cpu_per_request_subtracts_the_idle_server():
    assert cpu_per_request(2.5, 100, 0.5) == pytest.approx(0.02)


def test_solo_pass_sends_whole_rounds_one_at_a_time():
    class Recorder(Client):
        async def _flow(self, item, res):
            self.seen.append((item["seed"], self.in_flight))
            await asyncio.sleep(0.002)
            res["done"] = time.perf_counter()

    client = Recorder(port=0, shape={}, refs={}, connections=2, poll=False,
                      latency_limit=1.0)
    client.seen = []
    asyncio.run(client.solo([3, 1, 2], flexible=True, rounds=2))
    seeds = [seed for seed, _ in client.seen]
    assert seeds == [3, 1, 2, 3, 1, 2]
    assert {in_flight for _, in_flight in client.seen} == {1}
    assert all(r["flexible"] and r["error"] is None for r in client.results)


REFS = {"7": {
    "fixed": {"makespan": 100.5, "avg_wait_time": 3.25, "resize_count": 0,
              "trace_digest": "ab" * 32},
    "flexible": {"makespan": 90.0, "avg_wait_time": 2.0, "resize_count": 4,
                 "trace_digest": "cd" * 32},
}}


def _rendition(flexible, **changes):
    summary = dict(REFS["7"]["flexible" if flexible else "fixed"], **changes)
    return {"input_seed": 7, "flexible": flexible, "summary": summary}


def test_gate_accepts_recorded_summaries():
    assert gate_renditions([_rendition(False), _rendition(True)], REFS) == []


@pytest.mark.parametrize("changes", [
    {"makespan": 100.50001}, {"resize_count": 5}, {"trace_digest": "ef" * 32},
    {"avg_wait_time": 3.0},
])
def test_gate_rejects_a_tampered_summary(changes):
    failures = gate_renditions([_rendition(False, **changes)], REFS)
    assert len(failures) == 1 and "seed 7 fixed" in failures[0]


def test_gate_rejects_an_input_without_reference():
    r = _rendition(True)
    r["input_seed"] = 8
    assert gate_renditions([r], REFS) == [
        "seed 8 flexible: no recorded reference"]


def test_timed_sim_runs_cover_the_seed_pool_evenly():
    seconds = load_json("../BENCHMARK.json")["run_seconds"]
    for shape in load_shapes().values():
        if shape["kind"] != "sim":
            continue
        workload = SimWorkload.__new__(SimWorkload)
        workload.shape = shape
        assert workload.pair_count(seconds) % len(shape["seed_pool"]) == 0
        assert workload.pair_count(seconds / 4) >= 1


def test_layer_map_names_every_reported_metric():
    spec = load_json("workloads.json")
    bench = load_json("../BENCHMARK.json")
    mapped = [m for layer in spec["layers"].values() for m in layer["metrics"]]
    assert len(mapped) == len(set(mapped))
    assert set(mapped) == {m["name"] for m in bench["per_layer"]}
    assert set(layer_metrics({}, 1.0, 1.0, 1.0)) == set(mapped)
    assert set(spec["end_to_end"]) == {m["name"] for m in bench["end_to_end"]}
    assert {w["name"] for w in bench["workloads"]} == set(spec["workloads"])


def test_layer_self_times_and_unattributed_add_up_to_the_traced_wall():
    def tally(self_ns, total_ns=None):
        return {"calls": 1, "self_ns": self_ns,
                "total_ns": self_ns if total_ns is None else total_ns,
                "extra": {}}

    tallies = {"sim.step": tally(4_000_000_000, 9_000_000_000),
               "slurm.queue.pop_head": tally(1_500_000_000),
               "metrics.trace.record": tally(700_000_000, 1_000_000_000),
               "api.observers": tally(300_000_000)}
    out = layer_metrics(tallies, 10.0, 5.0, 2.0)
    layers = {k: v for k, v in out.items() if k.startswith("self_s.")}
    assert layers["self_s.sim"] == pytest.approx(4.0)
    assert layers["self_s.metrics"] == pytest.approx(0.7)
    assert out["unattributed_s"] == pytest.approx(3.5)
    assert sum(layers.values()) + out["unattributed_s"] == pytest.approx(
        out["traced_wall_s"])
    assert out["sim.events_per_s"] == pytest.approx(0.2)
