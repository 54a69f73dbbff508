"""Unit tests for population-level risk analysis."""

import pytest

from repro.consent import UserProfile, simulate_users
from repro.core.risk import (
    PopulationAnalyzer,
    RiskLevel,
    analyse_population,
)


def _users(surgery_system):
    sensitive = UserProfile(
        "sensitive", agreed_services=["MedicalService"],
        sensitivities={"diagnosis": "high"}, default_sensitivity=0.2,
        acceptable_risk="low")
    relaxed = UserProfile(
        "relaxed", agreed_services=["MedicalService"],
        default_sensitivity=0.05, acceptable_risk="high")
    both_services = UserProfile(
        "trusting",
        agreed_services=["MedicalService", "MedicalResearchService"],
        sensitivities={"diagnosis": "high"}, acceptable_risk="medium")
    no_consent = UserProfile("offline")
    return [sensitive, relaxed, both_services, no_consent]


class TestPopulationAnalysis:
    def test_outcomes_per_user(self, surgery_system):
        report = analyse_population(surgery_system,
                                    _users(surgery_system))
        assert report.analysed_count == 3
        assert report.skipped == ("offline",)
        by_name = {o.user_name: o for o in report.outcomes}
        assert by_name["sensitive"].max_level is RiskLevel.MEDIUM
        assert by_name["relaxed"].max_level is RiskLevel.LOW
        # all actors allowed for the trusting user -> no risk events
        assert by_name["trusting"].max_level is RiskLevel.NONE

    def test_level_histogram(self, surgery_system):
        report = analyse_population(surgery_system,
                                    _users(surgery_system))
        histogram = report.level_histogram()
        assert histogram[RiskLevel.MEDIUM] == 1
        assert histogram[RiskLevel.LOW] == 1
        assert histogram[RiskLevel.NONE] == 1

    def test_unacceptable_fraction(self, surgery_system):
        report = analyse_population(surgery_system,
                                    _users(surgery_system))
        # only 'sensitive' (acceptable=low) has a MEDIUM event
        assert report.unacceptable_fraction == pytest.approx(1 / 3)

    def test_users_at_or_above(self, surgery_system):
        report = analyse_population(surgery_system,
                                    _users(surgery_system))
        assert [o.user_name for o in
                report.users_at_or_above("medium")] == ["sensitive"]

    def test_hot_spots_point_at_admin_ehr(self, surgery_system):
        report = analyse_population(surgery_system,
                                    _users(surgery_system))
        spots = report.hot_spots()
        assert spots[("Administrator", "diagnosis")] == 2

    def test_summary_table(self, surgery_system):
        report = analyse_population(surgery_system,
                                    _users(surgery_system))
        table = report.summary_table()
        assert "MEDIUM" in table and "users" in table

    def test_lts_cache_reused(self, surgery_system):
        analyzer = PopulationAnalyzer(surgery_system)
        users = _users(surgery_system)
        analyzer.analyse(users)
        # two distinct consent sets among analysed users
        assert len(analyzer._lts_source) == 2

    def test_empty_population(self, surgery_system):
        report = analyse_population(surgery_system, [])
        assert report.analysed_count == 0
        assert report.unacceptable_fraction == 0.0

    def test_simulated_westin_population(self, surgery_system):
        schema = surgery_system.schemas["EHRSchema"]
        users = simulate_users(
            40, list(schema), list(surgery_system.services), seed=5)
        report = analyse_population(surgery_system, users)
        assert report.analysed_count + len(report.skipped) == 40
        # fundamentalists with partial consent should produce some risk
        assert report.users_at_or_above("low")
