"""Tests for the ``repro bench`` emitters and the sched-bench drift gate."""

import json
from pathlib import Path

from repro.store import ResultStore
from repro.sweep import run_bench, write_bench
from repro.sweep.bench import (
    VOLATILE_BENCH_KEYS,
    bench_drift,
    check_sched_bench,
)

COMMITTED_SCHED_BENCH = Path(__file__).resolve().parents[2] / "BENCH_sched.json"


def _quick_bench(store=None):
    # fig1 only: analytic, so the bench machinery is exercised in
    # milliseconds; the full artifact list is covered by the CLI smoke.
    return run_bench(quick=True, artifacts=("fig1",), store=store)


class TestRunBench:
    def test_payload_shape(self):
        data = _quick_bench()
        assert data["bench"] == "sweep"
        assert data["quick"] is True
        assert data["seeds"] == [2017, 2018]
        entry = data["artifacts"]["fig1"]
        assert entry["cells"] == 2
        assert entry["cached_cells"] == 0
        assert entry["ensemble_wall_s"] >= 0
        assert set(entry["cell_wall"]) == {
            "n", "mean", "median", "stdev", "ci95_half", "ci_low", "ci_high"
        }
        metrics = entry["metrics"]["artifact=fig1"]
        factor = metrics["factor[initial_procs=48;target_procs=12]"]
        assert factor["n"] == 2
        assert factor["mean"] > 1.0
        assert data["total_wall_s"] >= entry["ensemble_wall_s"]

    def test_store_feeds_second_bench(self, tmp_path):
        store = ResultStore(tmp_path)
        _quick_bench(store=store)
        data = _quick_bench(store=store)
        assert data["artifacts"]["fig1"]["cached_cells"] == 2

    def test_full_defaults_to_five_seeds(self):
        data = run_bench(artifacts=("fig1",))
        assert len(data["seeds"]) == 5
        assert data["quick"] is False


class TestWriteBench:
    def test_emits_well_formed_json(self, tmp_path):
        path = tmp_path / "BENCH_sweep.json"
        written = write_bench(_quick_bench(), str(path))
        assert written == str(path)
        data = json.loads(path.read_text())
        assert data["bench"] == "sweep"
        assert data["artifacts"]["fig1"]["metrics"]


class TestSchedBenchDrift:
    def test_committed_sched_bench_matches_both_schedulers(self):
        # Replays the smallest committed size through the incremental
        # scheduler and the resort-per-pass reference, so a reference
        # that counted its work differently fails here, not only in CI.
        committed = json.loads(COMMITTED_SCHED_BENCH.read_text())
        smallest = min(committed["traces"], key=int)
        assert "legacy" in committed["traces"][smallest]
        assert check_sched_bench(str(COMMITTED_SCHED_BENCH)) == []

    def test_drift_ignores_volatile_keys_and_reports_nested_ones(self):
        committed = {
            "traces": {"5": {"legacy": {"comparisons": 10, "wall_s": 1.0}}},
            "generated_unix": 1.0,
        }
        fresh = {
            "traces": {"5": {"legacy": {"comparisons": 11, "wall_s": 9.0}}},
            "generated_unix": 2.0,
        }
        assert {"wall_s", "generated_unix"} <= VOLATILE_BENCH_KEYS
        assert bench_drift(committed, fresh) == [
            "traces.5.legacy.comparisons: committed 10 != fresh 11"
        ]
        fresh["traces"]["5"]["legacy"]["comparisons"] = 10
        assert bench_drift(committed, fresh) == []
