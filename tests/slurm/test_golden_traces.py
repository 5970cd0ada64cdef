"""Golden-trace determinism suite.

Pins the scheduler's observable behaviour — every (time, job, decision)
tuple it records — for the paper's headline artifacts, so performance
work on the scheduling hot path is provably behaviour-preserving:

* ``fig1`` — the analytic C/R-vs-DMR table (scheduler-free; pins the
  cost models the scheduler's decisions feed into);
* ``fig3`` — paired fixed/flexible FS workloads (10/25/50 jobs, the
  paper's seed) through the full submit/backfill/resize machinery;
* ``table2`` — paired real-application workloads (25/50 jobs).

The committed files under ``goldens/`` were captured from the
pre-refactor (re-sort-every-pass) scheduler after its correctness
fixes; ``test_incremental_matches_legacy_*`` additionally re-derives the
legacy order live through the reference scheduler
(:class:`repro.testing.reference.ResortPerPassController`), so the
equivalence proof does not age as the seeds move.  Regenerate after an *intentional* behaviour change with::

    PYTHONPATH=src python tests/slurm/test_golden_traces.py --regen
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.api import Session
from repro.metrics.trace import canonical_lines, text_digest

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: Reduced workload sizes: the full artifacts (up to 400 jobs) would put
#: tens of seconds into the tier-1 suite; these sizes cover every code
#: path (backfill, shrink-for-pending, expand, resizer jobs) at ~1/10th
#: the cost.
FIG3_GOLDEN_COUNTS = (10, 25, 50)
TABLE2_GOLDEN_COUNTS = (25, 50)
GOLDEN_SEED = 2017


def _paired_lines(tag: str, num_jobs: int, pair) -> List[str]:
    lines: List[str] = []
    for rendition, result in (("fixed", pair.fixed), ("flexible", pair.flexible)):
        lines.append(f"# {tag} n={num_jobs} {rendition}")
        lines.extend(canonical_lines(result.trace))
    return lines


def fig1_golden_text() -> str:
    from repro.experiments.fig01_cr_vs_dmr import run_fig01

    return run_fig01().as_csv()


def fig3_golden_lines(session: Optional[Session] = None) -> List[str]:
    from repro.experiments.fig03_sync import run_fig03

    result = run_fig03(
        job_counts=FIG3_GOLDEN_COUNTS, seed=GOLDEN_SEED, session=session
    )
    lines: List[str] = []
    for row in result.rows:
        lines.extend(_paired_lines("fig3", row.num_jobs, row.pair))
    return lines


def table2_golden_lines(session: Optional[Session] = None) -> List[str]:
    from repro.experiments.fig10_12_realapps import run_realapps

    result = run_realapps(
        job_counts=TABLE2_GOLDEN_COUNTS, seed=GOLDEN_SEED, session=session
    )
    lines: List[str] = []
    for row in result.rows:
        lines.extend(_paired_lines("table2", row.num_jobs, row.pair))
    return lines


def _payload(name: str, lines: List[str]) -> dict:
    text = "\n".join(lines)
    return {
        "artifact": name,
        "seed": GOLDEN_SEED,
        "events": len(lines),
        "digest": text_digest(text),
        # Head/tail samples make a digest mismatch diagnosable without
        # regenerating anything.
        "head": lines[:5],
        "tail": lines[-5:],
    }


def _load(name: str) -> dict:
    with open(GOLDEN_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _assert_matches(name: str, lines: List[str]) -> None:
    golden = _load(name)
    current = _payload(name, lines)
    assert current["events"] == golden["events"], (
        f"{name}: event count drifted {golden['events']} -> "
        f"{current['events']}; head now {current['head']}"
    )
    assert current["digest"] == golden["digest"], (
        f"{name}: scheduling decisions changed "
        f"(head {current['head']}, tail {current['tail']}); if intentional, "
        f"regenerate with 'python tests/slurm/test_golden_traces.py --regen'"
    )


# -- golden-file pins ---------------------------------------------------------

def test_fig1_golden():
    _assert_matches("fig1", fig1_golden_text().splitlines())


def test_fig3_golden():
    _assert_matches("fig3", fig3_golden_lines())


def test_table2_golden():
    _assert_matches("table2", table2_golden_lines())


# -- telemetry transparency ---------------------------------------------------
#
# Span recording must be pure observation: a telemetry-enabled session
# has to reproduce the canonical traces byte-identically (the obs
# tentpole's golden guard).

def test_fig3_golden_unchanged_with_telemetry():
    session = Session().with_telemetry(correlation_id="golden")
    _assert_matches("fig3", fig3_golden_lines(session))


def test_table2_golden_unchanged_with_telemetry():
    session = Session().with_telemetry(correlation_id="golden")
    _assert_matches("table2", table2_golden_lines(session))


# -- legacy-vs-incremental live equivalence -----------------------------------
#
# The golden files pin today's behaviour; these tests re-derive the
# legacy (re-sort-every-pass) schedule live and diff the full tuple
# stream, so the incremental scheduler's equivalence proof does not age.
# Session assembly looks the controller class up at call time, so
# patching the module attribute swaps in the reference scheduler.

def _legacy_lines(monkeypatch, golden_lines) -> List[str]:
    import repro.slurm.controller
    from repro.testing.reference import ResortPerPassController

    built = []

    class Recorded(ResortPerPassController):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(repro.slurm.controller, "SlurmController", Recorded)
        lines = golden_lines()
    assert built, "the reference scheduler was never assembled"
    return lines


def test_incremental_matches_legacy_fig3(monkeypatch):
    assert fig3_golden_lines() == _legacy_lines(monkeypatch, fig3_golden_lines)


def test_incremental_matches_legacy_table2(monkeypatch):
    assert table2_golden_lines() == _legacy_lines(
        monkeypatch, table2_golden_lines
    )


# -- regeneration entry point -------------------------------------------------

def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, lines in (
        ("fig1", fig1_golden_text().splitlines()),
        ("fig3", fig3_golden_lines()),
        ("table2", table2_golden_lines()),
    ):
        payload = _payload(name, lines)
        with open(GOLDEN_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"goldens/{name}.json: {payload['events']} lines, "
              f"digest {payload['digest'][:12]}…")


if __name__ == "__main__":
    if "--regen" not in sys.argv:
        print(__doc__)
        raise SystemExit(2)
    regenerate()
