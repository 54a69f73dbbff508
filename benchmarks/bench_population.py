"""Population-scale risk: vectorized batch pass vs. per-user loop.

The paper's analysis has "an instance for each user" and is meant to
run "with running users of the system, or with simulated users in the
development phase". PR 7 restructures that sweep so population size is
a batch dimension, not a Python loop:
:class:`~repro.core.risk.population.VectorizedPopulationAnalyzer`
compiles each consent group's risk transitions into integer bitmask
plans once and evaluates every member against them, while the original
:class:`~repro.core.risk.population.PopulationAnalyzer` stays as the
per-user reference oracle.

Two bars, both enforced in ``--quick`` (the CI smoke):

- **identity** — the vectorized report must match the looped oracle on
  every observable surface (outcomes, histogram, hot spots, fraction);
- **speed** — the vectorized pass must beat the loop by at least
  ``BENCH_POPULATION_TARGET``x (default 10) at the CI population size,
  comparing the best of three cold runs of each.

Timing for a 100k-user sweep is recorded informationally (the loop is
too slow to run at that size in CI). Run under pytest for the
benchmark tables, or standalone for the CI check::

    PYTHONPATH=src python benchmarks/bench_population.py --quick
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

from repro.casestudies import build_surgery_system
from repro.consent import simulate_users
from repro.core.risk import (
    PopulationAnalyzer,
    RiskLevel,
    VectorizedPopulationAnalyzer,
)

#: The speedup bar of the --quick smoke, overridable for noisy CI
#: machines (mirrors BENCH_GENERATION_TARGET).
TARGET_SPEEDUP = float(os.environ.get("BENCH_POPULATION_TARGET",
                                      "10.0"))

#: Population sizes of the --quick smoke: the compared size runs both
#: implementations; the throughput size runs the vectorized pass only.
COMPARED_COUNT = 20_000
THROUGHPUT_COUNT = 100_000

BENCH_JSON = "BENCH_population.json"


def _population(count: int):
    system = build_surgery_system()
    schema = system.schemas["EHRSchema"]
    users = simulate_users(count, list(schema), list(system.services),
                           seed=17)
    return system, users


def _reports_match(looped, vectorized) -> bool:
    return (looped.outcomes == vectorized.outcomes
            and looped.skipped == vectorized.skipped
            and looped.level_histogram() == vectorized.level_histogram()
            and looped.hot_spots() == vectorized.hot_spots()
            and looped.unacceptable_fraction
            == vectorized.unacceptable_fraction
            and looped.field_scores == vectorized.field_scores)


# -- pytest benchmarks --------------------------------------------------------

@pytest.mark.parametrize("count", [100, 1000, 10_000])
def test_vectorized_sweep(benchmark, count):
    system, users = _population(count)

    def run():
        return VectorizedPopulationAnalyzer(system).analyse(users)

    report = benchmark(run)
    assert report.analysed_count + len(report.skipped) == count
    assert report.users_at_or_above(RiskLevel.LOW)
    benchmark.extra_info["users"] = count
    benchmark.extra_info["unacceptable"] = round(
        report.unacceptable_fraction, 3)


@pytest.mark.parametrize("count", [100, 1000])
def test_looped_oracle_sweep(benchmark, count):
    """The reference loop, kept in the table so the ablation stays
    visible run over run."""
    system, users = _population(count)

    def run():
        return PopulationAnalyzer(system).analyse(users)

    report = benchmark(run)
    assert report.analysed_count + len(report.skipped) == count
    benchmark.extra_info["users"] = count


def test_vectorized_matches_oracle(benchmark):
    system, users = _population(2000)

    def run():
        return (PopulationAnalyzer(system).analyse(users),
                VectorizedPopulationAnalyzer(system).analyse(users))

    looped, vectorized = benchmark(run)
    assert _reports_match(looped, vectorized)


def test_lts_cache_bounds_generation_cost(benchmark):
    """10k users, but only as many compiled plans as consent
    combinations (at most 2^services = 4 here)."""
    system, users = _population(10_000)

    def run():
        analyzer = VectorizedPopulationAnalyzer(system)
        analyzer.analyse(users)
        return analyzer

    analyzer = benchmark(run)
    assert len(analyzer._plans) <= 4
    benchmark.extra_info["distinct_consent_sets"] = len(
        analyzer._plans)


def test_remediation_effect_population_wide(benchmark):
    """The IV.A policy fix, measured across the population: the share
    of users facing unacceptable risk must not increase."""
    from repro.casestudies import tighten_administrator_policy

    system, users = _population(5000)
    fixed = tighten_administrator_policy(build_surgery_system())

    def run():
        before = VectorizedPopulationAnalyzer(system).analyse(users)
        after = VectorizedPopulationAnalyzer(fixed).analyse(users)
        return before, after

    before, after = benchmark(run)
    assert after.unacceptable_fraction <= before.unacceptable_fraction
    benchmark.extra_info["before"] = round(
        before.unacceptable_fraction, 3)
    benchmark.extra_info["after"] = round(
        after.unacceptable_fraction, 3)


# -- CI smoke -----------------------------------------------------------------

#: Timed runs of each compared pass; the speed bar compares the best
#: of each, so one slow run on a noisy host does not decide it.
REPEATS = 3


def _timed(analyzer, users, repeats: int = 1):
    """Best-of-``repeats`` seconds of ``analyzer().analyse(users)``,
    each run on a fresh (cold) analyzer, and the last report."""
    best = float("inf")
    for _ in range(repeats):
        analyse = analyzer().analyse
        started = time.perf_counter()
        report = analyse(users)
        best = min(best, time.perf_counter() - started)
    return best, report


def _quick_smoke() -> int:
    """Standalone CI smoke: identity + speedup bars; emit
    BENCH_population.json."""
    failures = []

    system, users = _population(COMPARED_COUNT)
    looped_seconds, looped = _timed(
        lambda: PopulationAnalyzer(system), users, REPEATS)
    vector_seconds, vectorized = _timed(
        lambda: VectorizedPopulationAnalyzer(system), users, REPEATS)
    speedup = looped_seconds / max(vector_seconds, 1e-9)

    print(f"looped:     {COMPARED_COUNT} users in "
          f"{looped_seconds:.2f}s (best of {REPEATS})")
    print(f"vectorized: {COMPARED_COUNT} users in "
          f"{vector_seconds:.2f}s (best of {REPEATS}, {speedup:.1f}x)")

    if not _reports_match(looped, vectorized):
        failures.append(
            "vectorized report diverges from the looped oracle")
    if speedup < TARGET_SPEEDUP:
        failures.append(
            f"vectorized speedup {speedup:.1f}x is under the "
            f"{TARGET_SPEEDUP}x bar")

    big_system, big_users = _population(THROUGHPUT_COUNT)
    big_seconds, big_report = _timed(
        lambda: VectorizedPopulationAnalyzer(big_system), big_users)
    throughput = THROUGHPUT_COUNT / max(big_seconds, 1e-9)
    print(f"vectorized: {THROUGHPUT_COUNT} users in "
          f"{big_seconds:.2f}s ({throughput:,.0f} users/s)")
    if big_report.analysed_count + len(big_report.skipped) \
            != THROUGHPUT_COUNT:
        failures.append("100k sweep lost users")

    record = {
        "compared_users": COMPARED_COUNT,
        "target_speedup": TARGET_SPEEDUP,
        "repeats": REPEATS,
        "looped": {"seconds": round(looped_seconds, 4)},
        "vectorized": {"seconds": round(vector_seconds, 4),
                       "speedup": round(speedup, 2)},
        "throughput": {
            "users": THROUGHPUT_COUNT,
            "seconds": round(big_seconds, 4),
            "users_per_second": round(throughput),
            "unacceptable_fraction": round(
                big_report.unacceptable_fraction, 4),
        },
    }
    with open(BENCH_JSON, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    print(f"wrote {BENCH_JSON}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print("population bench smoke:", "FAIL" if failures else "OK")
    return 1 if failures else 0


if __name__ == "__main__":
    if "--quick" in sys.argv:
        sys.exit(_quick_smoke())
    sys.exit(pytest.main([__file__, "-q"]))
