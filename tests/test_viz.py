"""Unit tests for DOT export and text reports."""

import pytest

from repro.casestudies import table1_records
from repro.core import GenerationOptions, generate_lts
from repro.core.risk import (
    PseudonymisationRiskAnalyzer,
    ValueRiskPolicy,
    merge_risks,
)
from repro.dfd import dfd_to_dot
from repro.errors import ModelError
from repro.viz import (
    identification_table,
    lts_digest,
    lts_to_dot,
    risk_transition_table,
    state_variable_table,
)


class TestDfdDot:
    def test_shapes_follow_fig1_conventions(self, surgery_system):
        dot = dfd_to_dot(surgery_system)
        assert '"User" [shape=oval, style=bold];' in dot
        assert '"Doctor" [shape=oval];' in dot
        assert 'shape=box' in dot
        # anonymised store drawn dashed
        assert 'style=dashed' in dot

    def test_edges_labelled_with_order_fields_purpose(self,
                                                      surgery_system):
        dot = dfd_to_dot(surgery_system)
        assert "1: {name, dob}" in dot
        assert "(book appointment)" in dot

    def test_service_filter(self, surgery_system):
        dot = dfd_to_dot(surgery_system, services=["MedicalService"])
        assert "Researcher" not in dot
        assert dot.count("subgraph") == 1

    def test_unknown_service_rejected(self, surgery_system):
        with pytest.raises(ModelError):
            dfd_to_dot(surgery_system, services=["Ghost"])

    def test_quoting(self, surgery_system):
        dot = dfd_to_dot(surgery_system, graph_name='my "graph"')
        assert '\\"graph\\"' in dot


class TestLtsDot:
    def test_states_and_edges_present(self, medical_lts):
        dot = lts_to_dot(medical_lts)
        assert '"s0"' in dot
        assert "collect{name, dob}" in dot
        assert "style=bold" in dot  # initial state

    def test_variables_suppressed_by_default(self, medical_lts):
        dot = lts_to_dot(medical_lts)
        assert "has(" not in dot

    def test_show_variables(self, medical_lts):
        dot = lts_to_dot(medical_lts, show_variables=True,
                         max_label_variables=2)
        assert "has(" in dot
        assert "... +" in dot  # truncation marker

    def test_risk_transitions_dotted(self, research_system, weight_policy,
                                     table1):
        lts = generate_lts(research_system)
        risks = PseudonymisationRiskAnalyzer(
            research_system, weight_policy,
            dataset=table1).annotate(lts, actors=["Researcher"])
        dot = lts_to_dot(lts, risks=merge_risks(risks))
        assert "style=dotted" in dot
        assert "violations=4/6" in dot
        assert "violations" not in lts_to_dot(lts)


class TestTextReports:
    def test_state_variable_table(self, medical_lts):
        from repro.core.reachability import terminal_states
        final = terminal_states(medical_lts)[0]
        table = state_variable_table(final)
        assert "actor" in table and "has" in table and "could" in table
        assert "Doctor" in table

    def test_state_variable_table_empty_state(self, medical_lts):
        table = state_variable_table(medical_lts.initial)
        assert "-" in table

    def test_identification_table(self, medical_lts):
        table = identification_table(medical_lts)
        assert "Administrator" in table
        # admin could identify EHR fields but never has
        admin_row = [line for line in table.splitlines()
                     if line.startswith("Administrator")][0]
        assert "diagnosis" in admin_row

    def test_lts_digest(self, medical_lts):
        digest = lts_digest(medical_lts, "Fig3")
        assert digest.startswith("Fig3:")
        assert "states" in digest and "collect" in digest

    def test_risk_transition_table(self, research_system, weight_policy,
                                   table1):
        lts = generate_lts(research_system)
        risks = PseudonymisationRiskAnalyzer(
            research_system, weight_policy,
            dataset=table1).annotate(lts, actors=["Researcher"])
        table = risk_transition_table(lts, merge_risks(risks))
        assert "risk" in table
        assert "Researcher" in table

    def test_risk_transition_table_empty(self, medical_lts):
        assert "-" in risk_transition_table(medical_lts)


class TestGoldenRiskRender:
    def test_golden_risk_render_replays(self):
        """DOT, risk table and JSON export of two analysed LTSs,
        rendered from their risk side tables, match the recording in
        ``tests/data/golden_risk_render.json`` byte for byte."""
        import json
        from capture_golden_risk_render import DATA_PATH, capture
        with open(DATA_PATH, "r", encoding="utf-8") as handle:
            golden = json.load(handle)
        rendered = capture()
        assert sorted(rendered) == sorted(golden)
        for name, outputs in golden.items():
            for kind, text in outputs.items():
                assert rendered[name][kind] == text, (name, kind)
