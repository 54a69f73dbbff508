"""Unit tests for JSON export of LTSs and analysis results."""

import json

import pytest

from repro.core import GenerationOptions, ModelGenerator, generate_lts
from repro.core.export import (
    disclosure_report_to_dict,
    lts_to_dict,
    lts_to_json,
    pseudonymisation_risks_to_dict,
    transition_to_dict,
)
from repro.core.risk import (
    DisclosureRiskAnalyzer,
    PseudonymisationRiskAnalyzer,
)


class TestLtsExport:
    def test_shape(self, medical_lts):
        data = lts_to_dict(medical_lts)
        assert data["initial"] == medical_lts.initial.sid
        assert len(data["states"]) == len(medical_lts)
        assert len(data["transitions"]) == \
            len(medical_lts.transitions)
        assert data["stats"]["states"] == len(medical_lts)

    def test_transitions_reference_valid_states(self, medical_lts):
        data = lts_to_dict(medical_lts)
        sids = {s["sid"] for s in data["states"]}
        for transition in data["transitions"]:
            assert transition["source"] in sids
            assert transition["target"] in sids

    def test_variables_optional(self, medical_lts):
        with_vars = lts_to_dict(medical_lts, include_variables=True)
        without = lts_to_dict(medical_lts, include_variables=False)
        assert "true_variables" in with_vars["states"][1]
        assert "true_variables" not in without["states"][0]

    def test_json_round_trip(self, medical_lts):
        text = lts_to_json(medical_lts)
        data = json.loads(text)
        assert data["stats"]["transitions"] == 12

    def test_flow_key_serialized(self, medical_lts):
        data = lts_to_dict(medical_lts)
        flows = [t["flow"] for t in data["transitions"]]
        assert ["MedicalService", 1] in flows


class TestRiskExport:
    def test_disclosure_report(self, surgery_system, patient):
        report = DisclosureRiskAnalyzer(surgery_system).analyse(patient)
        data = disclosure_report_to_dict(report)
        assert data["max_level"] == "medium"
        assert data["non_allowed_actors"] == ["Administrator",
                                              "Researcher"]
        event = data["events"][0]
        assert event["actor"] == "Administrator"
        assert event["impact"] == pytest.approx(0.9)
        assert any(s["name"] == "accidental access"
                   for s in event["scenarios"])
        json.dumps(data)  # JSON-compatible

    def test_annotated_transition_export(self, surgery_system, patient):
        analyzer = DisclosureRiskAnalyzer(surgery_system)
        non_allowed = patient.non_allowed_actors(surgery_system)
        lts = ModelGenerator(surgery_system).generate(
            GenerationOptions(
                services=("MedicalService",),
                include_potential_reads=True,
                potential_read_actors=frozenset(non_allowed)))
        report = analyzer.analyse(patient, lts=lts)
        event = report.events[0]
        exported = transition_to_dict(
            event.transition, report.annotations[event.transition.tid])
        assert exported["risk"]["level"] == "medium"
        assert "risk" not in transition_to_dict(event.transition)
        data = lts_to_dict(lts, risks=report.annotations)
        assert all("risk" in t for t in data["transitions"])

    def test_pseudonymisation_risks(self, research_system,
                                    weight_policy, table1):
        lts = generate_lts(research_system)
        risks = PseudonymisationRiskAnalyzer(
            research_system, weight_policy,
            dataset=table1).annotate(lts, actors=["Researcher"])
        data = pseudonymisation_risks_to_dict(risks)
        assert sorted(d["violations"] for d in data) == [0, 2, 4]
        assert all(d["sensitive_field"] == "weight" for d in data)
        json.dumps(data)

    def test_unscored_risks_export(self, research_system,
                                   weight_policy):
        lts = generate_lts(research_system)
        risks = PseudonymisationRiskAnalyzer(
            research_system, weight_policy,
            dataset=None).annotate(lts, actors=["Researcher"])
        data = pseudonymisation_risks_to_dict(risks)
        assert all(d["violations"] is None for d in data)
        assert all("max_risk" not in d for d in data)
