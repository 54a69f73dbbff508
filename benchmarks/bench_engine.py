"""Batch engine — cold vs. cached vs. incremental throughput.

Not a paper table: this bench quantifies the engine layer the ROADMAP
asks for. A fleet of generated scenarios is assessed three ways — cold
(every LTS generated), memo-warm (LTSs reused across users of a model)
and result-warm (everything served from the result cache) — and the
cached runs must beat the cold one by a wide margin (the acceptance
bar is 2x; in practice result-cache hits are orders of magnitude
cheaper than analysis).

The incremental scenario exercises the PR-2 layer: run the full
fleet, apply a one-ACL-edit to the surgery model, and
``reanalyze`` — which must re-run strictly fewer jobs than a cold
sweep of the edited fleet while producing byte-identical result
signatures.

Run under pytest-benchmark for timings, or standalone for the CI smoke
check (which also emits ``BENCH_engine.json``)::

    PYTHONPATH=src python benchmarks/bench_engine.py --quick
"""

from __future__ import annotations

import json
import sys
import tempfile
import time

import pytest

from repro.casestudies import build_surgery_system
from repro.engine import (
    BatchEngine,
    FleetReport,
    ScenarioGenerator,
    reanalyze,
    scenario_jobs,
)

FLEET_SCENARIOS = 16
BENCH_JSON = "BENCH_engine.json"


def _fleet_jobs(count=FLEET_SCENARIOS, seed=11):
    return scenario_jobs(ScenarioGenerator(seed=seed).generate(count))


def _cold_run(jobs):
    """A fresh engine: nothing memoised, nothing cached."""
    return BatchEngine(backend="serial").run(jobs)


def test_cold_fleet_assessment(benchmark):
    jobs = _fleet_jobs()
    batch = benchmark(_cold_run, jobs)
    assert batch.stats.executed == len(jobs)
    assert batch.stats.lts_generations > 0
    benchmark.extra_info["jobs"] = len(jobs)
    benchmark.extra_info["lts_generations"] = batch.stats.lts_generations


def test_result_cached_fleet_assessment(benchmark):
    jobs = _fleet_jobs()
    engine = BatchEngine(backend="serial")
    engine.run(jobs)                      # warm the result cache
    batch = benchmark(engine.run, jobs)
    assert batch.stats.result_hits == len(jobs)
    assert batch.stats.lts_generations == 0
    benchmark.extra_info["hit_rate"] = \
        engine.result_cache.stats.hit_rate


def test_thread_backend_fleet_assessment(benchmark):
    jobs = _fleet_jobs()
    batch = benchmark(
        lambda: BatchEngine(backend="thread", workers=4).run(jobs))
    assert batch.stats.executed == len(jobs)


def test_cached_run_at_least_2x_faster():
    """The acceptance bar: warm disk cache >= 2x over cold, zero LTS
    generations."""
    ratio, cold_batch, warm_batch = _measure_speedup(FLEET_SCENARIOS)
    assert warm_batch.stats.lts_generations == 0
    assert [r.signature() for r in cold_batch.results] == \
        [r.signature() for r in warm_batch.results]
    assert ratio >= 2.0, (
        f"cached run only {ratio:.1f}x faster than cold")


def _measure_speedup(count, seed=11):
    """(cold / warm) wall-time ratio through a shared disk cache.

    Only the two ``run`` calls are timed. Both job lists are built
    first: building the fleet costs the same on both sides, and timing
    it would shrink the ratio as the cold run gets faster."""
    cold_jobs = _fleet_jobs(count, seed)
    warm_jobs = _fleet_jobs(count, seed)
    with tempfile.TemporaryDirectory() as cache_dir:
        cold_engine = BatchEngine(backend="serial", cache_dir=cache_dir)
        started = time.perf_counter()
        cold_batch = cold_engine.run(cold_jobs)
        cold_time = time.perf_counter() - started

        warm_engine = BatchEngine(backend="serial", cache_dir=cache_dir)
        started = time.perf_counter()
        warm_batch = warm_engine.run(warm_jobs)
        warm_time = time.perf_counter() - started
    return cold_time / max(warm_time, 1e-9), cold_batch, warm_batch


def _one_acl_edit():
    """The bench's model edit: a create-only grant the LTS generator
    never consults, so the incremental layer can re-seed every cached
    surgery LTS instead of regenerating."""
    after = build_surgery_system()
    after.policy.allow("Nurse", "create", "AnonEHR")
    return after


def _measure_incremental(count, seed=11):
    """Full-fleet cold run, one-ACL-edit, then incremental vs. cold
    re-analysis of the edited fleet. Returns the timing/accounting
    dict for BENCH_engine.json plus the two outcomes."""
    before = build_surgery_system()
    after = _one_acl_edit()
    jobs = _fleet_jobs(count, seed)

    engine = BatchEngine(backend="serial")
    started = time.perf_counter()
    full = engine.run(jobs)
    full_time = time.perf_counter() - started

    started = time.perf_counter()
    incremental = reanalyze(engine, before, after,
                            _fleet_jobs(count, seed))
    incremental_time = time.perf_counter() - started

    started = time.perf_counter()
    cold_edited = reanalyze(BatchEngine(backend="serial"), before,
                            after, _fleet_jobs(count, seed))
    cold_edited_time = time.perf_counter() - started

    record = {
        "scenarios": count,
        "jobs": len(jobs),
        "full_cold": {
            "seconds": round(full_time, 4),
            "executed": full.stats.executed,
            "lts_generations": full.stats.lts_generations,
        },
        "incremental_reanalysis": {
            "seconds": round(incremental_time, 4),
            "executed": incremental.batch.stats.executed,
            "result_hits": incremental.batch.stats.result_hits,
            "lts_generations":
                incremental.batch.stats.lts_generations,
            "lts_seeded": incremental.lts_seeded,
            "retargeted": incremental.retargeted,
            "invalidation": incremental.plan.level,
        },
        "cold_reanalysis": {
            "seconds": round(cold_edited_time, 4),
            "executed": cold_edited.batch.stats.executed,
            "lts_generations":
                cold_edited.batch.stats.lts_generations,
        },
        "incremental_speedup": round(
            cold_edited_time / max(incremental_time, 1e-9), 2),
    }
    return record, incremental, cold_edited


def _signatures(batch):
    return [repr(r.signature()).encode() for r in batch.results]


def test_incremental_rerun_beats_cold_on_one_acl_edit():
    """The PR-2 acceptance bar: after a one-ACL edit, reanalyze runs
    strictly fewer jobs than a cold run of the edited fleet, with
    byte-identical result signatures."""
    record, incremental, cold_edited = _measure_incremental(
        FLEET_SCENARIOS)
    assert cold_edited.batch.stats.executed == record["jobs"]
    assert incremental.batch.stats.executed < \
        cold_edited.batch.stats.executed
    assert incremental.batch.stats.lts_generations == 0
    assert incremental.lts_seeded >= 1
    assert _signatures(incremental.batch) == \
        _signatures(cold_edited.batch)


def _quick_smoke() -> int:
    """Standalone CI smoke: sweep, re-sweep warm, one-ACL-edit
    incremental re-analysis; check the bars, emit BENCH_engine.json."""
    count = 30
    ratio, cold_batch, warm_batch = _measure_speedup(count)
    report = FleetReport(cold_batch.results, cold_batch.stats)
    print(report.summary_table())
    print(f"cold: {cold_batch.stats.describe()}")
    print(f"warm: {warm_batch.stats.describe()}")
    print(f"cached speedup: {ratio:.1f}x")
    failures = []
    if warm_batch.stats.lts_generations != 0:
        failures.append("warm run regenerated LTSs")
    if warm_batch.stats.result_hits != len(warm_batch.results):
        failures.append("warm run missed the result cache")
    if ratio < 2.0:
        failures.append(f"speedup {ratio:.1f}x below the 2x bar")
    if [r.signature() for r in cold_batch.results] != \
            [r.signature() for r in warm_batch.results]:
        failures.append("cold and warm results disagree")

    record, incremental, cold_edited = _measure_incremental(count)
    print(f"one-ACL-edit incremental: "
          f"{incremental.batch.stats.describe()}")
    print(f"one-ACL-edit cold:        "
          f"{cold_edited.batch.stats.describe()}")
    print(f"incremental re-ran "
          f"{incremental.batch.stats.executed}/"
          f"{cold_edited.batch.stats.executed} jobs "
          f"({record['incremental_speedup']}x wall-time)")
    if incremental.batch.stats.executed >= \
            cold_edited.batch.stats.executed:
        failures.append("incremental re-ran as many jobs as cold")
    if incremental.batch.stats.lts_generations != 0:
        failures.append("incremental re-analysis regenerated LTSs")
    if _signatures(incremental.batch) != _signatures(cold_edited.batch):
        failures.append("incremental and cold results disagree")

    record["cached"] = {
        "speedup": round(ratio, 2),
        "result_hits": warm_batch.stats.result_hits,
    }
    with open(BENCH_JSON, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    print(f"wrote {BENCH_JSON}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print("engine bench smoke:", "FAIL" if failures else "OK")
    return 1 if failures else 0


if __name__ == "__main__":
    if "--quick" in sys.argv:
        sys.exit(_quick_smoke())
    sys.exit(pytest.main([__file__, "-q"]))
