"""Scenario generation determinism and fleet aggregation."""

import json
import re

import pytest

from repro.casestudies import (
    build_loyalty_system,
    build_scaled_system,
    build_surgery_system,
    tighten_administrator_policy,
)
from repro.engine import (
    BatchEngine,
    FleetReport,
    ScenarioGenerator,
    model_fingerprint,
    scenario_jobs,
    user_fingerprint,
)


class TestScenarioGenerator:
    def test_deterministic_under_fixed_seed(self):
        first = ScenarioGenerator(seed=42).generate(12)
        second = ScenarioGenerator(seed=42).generate(12)
        assert [s.name for s in first] == [s.name for s in second]
        assert [model_fingerprint(s.system) for s in first] == \
            [model_fingerprint(s.system) for s in second]
        assert [
            tuple(user_fingerprint(u) for u in s.users) for s in first
        ] == [
            tuple(user_fingerprint(u) for u in s.users) for s in second
        ]

    def test_different_seeds_vary_the_fleet(self):
        first = ScenarioGenerator(seed=1).generate(12)
        second = ScenarioGenerator(seed=2).generate(12)
        fps = lambda stream: [model_fingerprint(s.system)  # noqa: E731
                              for s in stream]
        assert fps(first) != fps(second) or [
            tuple(user_fingerprint(u) for u in s.users) for s in first
        ] != [
            tuple(user_fingerprint(u) for u in s.users) for s in second
        ]

    def test_covers_every_family_and_both_anon_settings(self):
        scenarios = ScenarioGenerator(seed=0).generate(20)
        families = {s.family for s in scenarios}
        assert families == {"surgery", "loyalty", "scaled"}
        scaled_variants = {s.variant for s in scenarios
                           if s.family == "scaled"}
        assert any("anon" in v for v in scaled_variants)
        assert any("anon" not in v for v in scaled_variants)
        assert {"baseline", "tightened"} <= {
            s.variant for s in scenarios if s.family == "surgery"}

    def test_every_user_has_a_consent(self):
        scenarios = ScenarioGenerator(seed=3,
                                      personas_per_scenario=3).generate(8)
        for scenario in scenarios:
            for user in scenario.users:
                assert user.agreed_services

    def test_jobs_flattening(self):
        scenarios = ScenarioGenerator(seed=0,
                                      personas_per_scenario=2).generate(5)
        jobs = scenario_jobs(scenarios)
        assert len(jobs) == 10
        assert jobs[0].scenario == scenarios[0].name
        assert jobs[1].system is jobs[0].system

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ScenarioGenerator(personas_per_scenario=0)
        with pytest.raises(ValueError):
            ScenarioGenerator().generate(-1)


def _fresh_template(scenario):
    """A new build of the scenario's family/variant template."""
    if scenario.family == "surgery":
        system = build_surgery_system()
        return tighten_administrator_policy(system) \
            if scenario.variant == "tightened" else system
    if scenario.family == "loyalty":
        return build_loyalty_system()
    actors, fields, stores = map(int, re.match(
        r"a(\d+)-f(\d+)-s(\d+)", scenario.variant).groups())
    return build_scaled_system(
        actors=actors, fields=fields, stores=stores,
        pseudonymise=scenario.variant.endswith("-anon"))


class TestSharedModels:
    """One ``generate()`` call builds each distinct model once."""

    @pytest.mark.parametrize("seed", [0, 5, 41])
    def test_objects_are_shared_exactly_when_contents_agree(self, seed):
        scenarios = ScenarioGenerator(seed=seed).generate(30)
        fps = [model_fingerprint(s.system) for s in scenarios]
        for i, first in enumerate(scenarios):
            for j, second in enumerate(scenarios):
                assert (first.system is second.system) == \
                    (fps[i] == fps[j]), (first.name, second.name)
        assert len({id(s.system) for s in scenarios}) == len(set(fps)) \
            < len(scenarios)

    @pytest.mark.parametrize("seed", [0, 5, 41])
    def test_each_model_is_its_template(self, seed):
        for scenario in ScenarioGenerator(seed=seed).generate(30):
            assert model_fingerprint(scenario.system) == \
                model_fingerprint(_fresh_template(scenario)), \
                scenario.name

    def test_separate_calls_share_no_object(self):
        generator = ScenarioGenerator(seed=7)
        first, second = generator.generate(20), generator.generate(20)
        assert not {id(s.system) for s in first} & \
            {id(s.system) for s in second}
        # Editing one call's model leaves a later call's fleet intact.
        edited = second[1].system
        baseline = model_fingerprint(edited)
        edited.policy.allow("Administrator", "read", "EHR")
        assert model_fingerprint(edited) != baseline
        fresh = generator.generate(20)
        assert model_fingerprint(fresh[1].system) == baseline
        assert fresh[1].system is not edited


class TestFleetReport:
    @pytest.fixture(scope="class")
    def batch(self):
        jobs = scenario_jobs(ScenarioGenerator(seed=0).generate(12))
        return BatchEngine(backend="serial").run(jobs)

    def test_histogram_accounts_for_every_job(self, batch):
        report = FleetReport(batch.results, batch.stats)
        histogram = report.level_histogram()
        assert sum(histogram.values()) == len(batch.results)
        assert set(histogram) == {"none", "low", "medium", "high"}

    def test_matrix_histogram_counts_events(self, batch):
        report = FleetReport(batch.results)
        total_events = sum(len(r.events) for r in batch.results)
        assert sum(report.matrix_histogram().values()) == total_events

    def test_worst_is_ranked(self, batch):
        report = FleetReport(batch.results)
        worst = report.worst(4)
        ranks = [r.level.rank for r in worst]
        assert ranks == sorted(ranks, reverse=True)
        assert worst[0].level == report.max_level()

    def test_worst_events_are_unique_paths(self, batch):
        report = FleetReport(batch.results)
        events = report.worst_events(10)
        assert len(set(events)) == len(events)

    def test_scenario_deltas_use_family_baselines(self, batch):
        report = FleetReport(batch.results)
        deltas = report.scenario_deltas()
        assert set(deltas) == {"surgery", "loyalty", "scaled"}
        surgery = deltas["surgery"]["variants"]
        assert {"baseline", "tightened"} <= set(surgery)
        assert surgery["baseline"]["delta"] == 0
        # The IV.A remediation can only remove risk, never add it.
        assert surgery["tightened"]["delta"] <= 0

    def test_summary_table_and_describe(self, batch):
        report = FleetReport(batch.results, batch.stats)
        table = report.summary_table()
        assert "TOTAL" in table
        for family in ("surgery", "loyalty", "scaled"):
            assert family in table
        text = report.describe()
        assert "risk levels:" in text
        assert "backend" in text          # engine stats included

    def test_to_dict_is_json_compatible(self, batch):
        report = FleetReport(batch.results, batch.stats)
        payload = json.dumps(report.to_dict())
        assert json.loads(payload)["jobs"] == len(batch.results)

    def test_empty_fleet(self):
        report = FleetReport([])
        assert report.max_level().value == "none"
        assert sum(report.level_histogram().values()) == 0
        assert report.worst() == ()
