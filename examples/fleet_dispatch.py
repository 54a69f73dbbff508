#!/usr/bin/env python3
"""Fleet dispatch: one sweep sharded across two worker nodes.

Spins up two real ``repro serve`` workers in-process (asyncio HTTP
servers on ephemeral ports), dispatches a scenario sweep across them
with the :class:`~repro.fleet.FleetDispatcher`, and shows the merged
fleet report — then proves the headline invariant by running the same
sweep on a single-node engine and comparing result signatures.

Run with ``python examples/fleet_dispatch.py``.
"""

import tempfile

from repro.engine import BatchEngine, ScenarioGenerator, scenario_jobs
from repro.fleet import FleetDispatcher, HttpTransport
from repro.service import AnalysisService, AsyncServerThread


def start_worker(cache_dir):
    """One live worker; returns (service, server, 'host:port')."""
    service = AnalysisService(backend="thread", cache_dir=cache_dir)
    server = AsyncServerThread(service).start()
    return service, server, f"{server.host}:{server.port}"


def make_jobs():
    """A seed-deterministic mixed scenario sweep (24 jobs)."""
    scenarios = ScenarioGenerator(
        seed=42, personas_per_scenario=2).generate(12)
    return scenario_jobs(scenarios)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        workers = [start_worker(f"{tmp}/worker{i}") for i in range(2)]
        addresses = [address for _, _, address in workers]
        print(f"workers: {', '.join(addresses)}\n")

        # -- dispatch the sweep across the fleet -----------------------
        dispatcher = FleetDispatcher(addresses, HttpTransport())
        outcome = dispatcher.run(make_jobs())

        print("=== merged fleet report ===")
        print(outcome.report().describe())
        print()
        print("=== dispatch accounting ===")
        print(outcome.stats.describe())
        for report in outcome.stats.workers:
            load = report.load
            print(f"  {report.worker}: dispatched "
                  f"{report.dispatched}, completed {report.completed}"
                  f" (job table {load.job_table}/{load.max_jobs} at "
                  "probe)")

        # -- same sweep, one node: identical signatures ----------------
        single = BatchEngine(cache_dir=f"{tmp}/single")
        batch = single.run(make_jobs())
        matches = [r.signature() for r in batch.results] == \
            list(outcome.signatures())
        print(f"\nfleet signatures == single-node signatures: "
              f"{matches}")

        for service, server, _ in workers:
            server.stop()
            service.close()


if __name__ == "__main__":
    main()
