"""Unit tests for LTS re-identification annotations (ARX integration)."""

import pytest

from repro.casestudies import (
    synthetic_physical_records,
    table1_records,
)
from repro.core import generate_lts
from repro.core.risk import (
    ReidentificationAnnotator,
    annotate_reidentification,
    merge_risks,
)
from repro.errors import AnalysisError


@pytest.fixture
def research_lts(research_system):
    return generate_lts(research_system)


class TestAnnotator:
    def test_findings_per_anon_read(self, research_lts, table1):
        findings = annotate_reidentification(research_lts, table1)
        # the research service has two anon-read flows; the dataflow
        # interleaving yields each read from two states
        assert findings
        assert all(f.actor == "Researcher" for f in findings)
        quasi_sets = {f.quasi_identifiers for f in findings}
        assert ("height", "weight") in quasi_sets
        assert ("age", "weight") in quasi_sets

    def test_prosecutor_risk_values(self, research_lts, table1):
        findings = annotate_reidentification(research_lts, table1)
        # weights are nearly unique -> reading (height, weight) or
        # (age, weight) makes most records singleton classes
        for finding in findings:
            assert finding.prosecutor.highest_risk == 1.0
            assert finding.marketer > 0.5

    def test_annotation_attached_to_transition(self, research_lts,
                                               table1):
        findings = annotate_reidentification(research_lts, table1)
        risks = merge_risks(findings)
        for finding in findings:
            assert "prosecutor" in risks[finding.transition.tid].context

    def test_existing_annotation_extended_not_replaced(
            self, research_system, research_lts, table1, weight_policy):
        from repro.core.risk import PseudonymisationRiskAnalyzer
        pseudonym = PseudonymisationRiskAnalyzer(
            research_system, weight_policy,
            dataset=table1).annotate(research_lts,
                                     actors=["Researcher"])
        findings = annotate_reidentification(research_lts, table1)
        assert findings
        risks = merge_risks(pseudonym, findings)
        # value-risk annotations on risk transitions survive
        risky = [tid for tid, risk in risks.items()
                 if risk.value_risk is not None]
        assert sorted(risky) == sorted(r.transition.tid for r in pseudonym)

    def test_note_extends_disclosure_annotation(self, research_system,
                                                research_lts, table1):
        """Merged onto a disclosure risk table, a re-identification
        note is appended to the transition's context after "; "."""
        from repro.consent import UserProfile
        from repro.core.risk import DisclosureRiskAnalyzer
        user = UserProfile("u", agreed_services=["HealthCheckService"],
                           default_sensitivity=0.3)
        report = DisclosureRiskAnalyzer(research_system).analyse(
            user, lts=research_lts)
        findings = annotate_reidentification(research_lts, table1)
        risks = merge_risks(report.annotations, findings)
        for finding in findings:
            tid = finding.transition.tid
            before = report.annotations[tid]
            merged = risks[tid]
            assert merged.assessment is before.assessment
            expected = "; ".join(
                c for c in (before.context, finding.describe()) if c)
            assert merged.context == expected
        untouched = set(report.annotations) - \
            {f.transition.tid for f in findings}
        assert all(risks[tid] is report.annotations[tid]
                   for tid in untouched)

    def test_journalist_model_with_population(self, research_lts):
        sample = table1_records()
        population = [r.mask(["name"])
                      for r in synthetic_physical_records(500, seed=3)]
        findings = annotate_reidentification(
            research_lts, sample, population=population)
        for finding in findings:
            assert finding.journalist is not None
            assert finding.journalist.highest_risk <= \
                finding.prosecutor.highest_risk + 1e-9
            assert "journalist" in finding.describe()

    def test_actor_filter(self, research_lts, table1):
        assert annotate_reidentification(
            research_lts, table1, actors=["DataManager"]) == []

    def test_exceeds_threshold(self, research_lts, table1):
        findings = annotate_reidentification(research_lts, table1)
        assert all(f.exceeds(0.9) for f in findings)
        # but a coarse-only release would not: use a dataset where all
        # quasi values collide
        from repro.datastore import make_records
        flat = make_records([{"age": 1, "height": 1, "weight": 1}] * 10)
        flat_findings = annotate_reidentification(research_lts, flat)
        # every class has size 10 -> prosecutor 0.1
        assert flat_findings[-1].prosecutor.highest_risk == \
            pytest.approx(0.1)

    def test_empty_dataset_rejected(self):
        with pytest.raises(AnalysisError, match="non-empty"):
            ReidentificationAnnotator([])

    def test_field_map_missing_entry(self, research_lts, table1):
        annotator = ReidentificationAnnotator(
            table1, record_field_map={"weight_anon": "weight"})
        with pytest.raises(AnalysisError, match="no entry"):
            annotator.annotate(research_lts)
