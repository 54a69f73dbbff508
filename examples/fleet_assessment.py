#!/usr/bin/env python3
"""Fleet assessment: sweep a generated scenario fleet through the
batch engine and aggregate the results.

The paper analyses one model for one user; a service operator has
*many* deployments and *many* users. This example generates 24 diverse
scenarios (healthcare baseline and remediated, retail loyalty, scaled
synthetic systems with and without pseudonymisation), each with a
Westin-persona user population, runs them through the cache-aware
engine, and prints the fleet-level roll-up: the risk-level histogram,
the risk-matrix cells, the worst disclosure paths, and what each
design variant changed against its family baseline.

Run with ``python examples/fleet_assessment.py``. The cache lives in a
fresh temporary directory for each run; a second engine over the same
directory then answers the whole fleet from it — watch the
"result-cache hits" line.
"""

import tempfile

from repro.engine import (
    BatchEngine,
    FleetReport,
    ScenarioGenerator,
    scenario_jobs,
)

SCENARIO_COUNT = 24
SEED = 2026


def main() -> None:
    # -- 1. a deterministic fleet: same seed, same 24 scenarios -------
    generator = ScenarioGenerator(seed=SEED, personas_per_scenario=2)
    scenarios = generator.generate(SCENARIO_COUNT)
    jobs = scenario_jobs(scenarios)
    print(f"generated {len(scenarios)} scenarios "
          f"({len(jobs)} analysis jobs) from seed {SEED}")
    families = sorted({s.family for s in scenarios})
    print(f"families: {', '.join(families)}\n")

    with tempfile.TemporaryDirectory() as cache_dir:
        # -- 2. assess the fleet through the parallel engine ----------
        engine = BatchEngine(backend="thread", cache_dir=cache_dir)
        batch = engine.run(jobs)

        # -- 3. the fleet-level report --------------------------------
        report = FleetReport(batch.results, batch.stats)
        print(report.describe())

        # -- 4. what did each design variant buy? ----------------------
        print("\nper-variant deltas against family baselines:")
        for family, data in report.scenario_deltas().items():
            print(f"  {family} (baseline: {data['baseline_level']}):")
            for variant, verdict in data["variants"].items():
                sign = "+" if verdict["delta"] > 0 else ""
                print(f"    {variant}: {verdict['max_level']} "
                      f"({sign}{verdict['delta']} vs baseline)")

        print(f"\ncache: {engine.result_cache.stats.describe()}")

        # -- 5. the warm path: a new engine over the same directory ----
        warm_engine = BatchEngine(backend="thread", cache_dir=cache_dir)
        warm = warm_engine.run(jobs)
        print(f"re-run by a second engine: "
              f"{warm.stats.result_hits}/{len(jobs)} result-cache hits, "
              f"{warm.stats.lts_generations} LTS generations")


if __name__ == "__main__":
    main()
