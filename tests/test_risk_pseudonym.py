"""Unit tests for pseudonymisation risk transitions (paper III.B/IV.B)."""

import pytest

from repro.casestudies import build_research_system, table1_records
from repro.core import (
    LTS,
    ActionType,
    GenerationOptions,
    TransitionKind,
    VariableRegistry,
    VarKind,
    generate_lts,
)
from repro.core.generation import ConfigurationInfo
from repro.core.risk import (
    PseudonymisationRiskAnalyzer,
    ValueRiskPolicy,
)
from repro.errors import AnalysisError, PolicyViolationError


@pytest.fixture
def research_lts(research_system):
    return generate_lts(research_system)


@pytest.fixture
def analyzer(research_system, weight_policy, table1):
    return PseudonymisationRiskAnalyzer(
        research_system, weight_policy, dataset=table1)


class TestRiskTransitionInjection:
    def test_fig4_violation_scores(self, research_lts, analyzer):
        risks = analyzer.annotate(research_lts, actors=["Researcher"])
        assert sorted(r.violations for r in risks) == [0, 2, 4]

    def test_fields_read_drive_the_scores(self, research_lts, analyzer):
        risks = analyzer.annotate(research_lts, actors=["Researcher"])
        by_fields = {frozenset(r.fields_read): r.violations
                     for r in risks}
        assert by_fields == {
            frozenset({"height_anon"}): 0,
            frozenset({"age_anon"}): 2,
            frozenset({"age_anon", "height_anon"}): 4,
        }

    def test_risk_transitions_marked_and_dotted(self, research_lts,
                                                analyzer):
        risks = analyzer.annotate(research_lts, actors=["Researcher"])
        for risk in risks:
            assert risk.transition.kind is TransitionKind.RISK
            assert risk.transition.label.action is ActionType.READ
            assert risk.transition.label.fields == ("weight",)
            assert risk.annotation.value_risk is risk.result

    def test_target_state_has_sensitive_field(self, research_lts,
                                              analyzer):
        risks = analyzer.annotate(research_lts, actors=["Researcher"])
        for risk in risks:
            target = research_lts.state(risk.transition.target)
            assert target.vector.has("Researcher", "weight")

    def test_at_risk_states_require_anon_access(self, research_lts,
                                                analyzer):
        risks = analyzer.annotate(research_lts, actors=["Researcher"])
        for risk in risks:
            source = research_lts.state(risk.transition.source)
            assert source.vector.has("Researcher", "weight_anon")

    def test_actor_with_raw_access_excluded(self, research_lts,
                                            analyzer):
        # DataManager can read raw weight from HealthRecords, so no
        # inference risk is modelled for it.
        risks = analyzer.annotate(research_lts,
                                  actors=["DataManager"])
        assert risks == []

    def test_all_actors_default(self, research_lts, analyzer):
        risks = analyzer.annotate(research_lts)
        assert {r.actor for r in risks} == {"Researcher"}

    def test_describe_mentions_scores(self, research_lts, analyzer):
        risks = analyzer.annotate(research_lts, actors=["Researcher"])
        texts = [r.describe() for r in risks]
        assert any("violations=4/6" in t for t in texts)


class TestInjectedStates:
    """Risk targets are states added to the analysed LTS: a generated
    key stays packed and lazy, a hand-built one keeps a dict."""

    def test_generated_info_is_lazy_and_equals_the_eager_decode(
            self, research_lts, analyzer):
        base = research_lts.freeze()
        fork = base.fork()
        risks = analyzer.annotate(fork, actors=["Researcher"])
        injected = [(risk, fork.state(risk.transition.target))
                    for risk in risks
                    if risk.transition.target >= len(base)]
        assert injected
        for risk, state in injected:
            assert isinstance(state.info, ConfigurationInfo)
            codec = state.key.codec
            assert dict(state.info) == {
                "holdings": codec.decode_holdings(state.key.packed),
                "contents": codec.decode_contents(state.key.packed),
                "fired": codec.decode_fired(state.key.packed),
            }
            source = fork.state(risk.transition.source)
            assert dict(state.info) == dict(source.info)
            assert fork.state_by_key(state.key) is state

    def test_hand_built_info_stays_a_copied_dict(self, research_system,
                                                 weight_policy):
        registry = VariableRegistry(["Researcher"],
                                    ["weight", "weight_anon"])
        lts = LTS(registry)
        info = {"note": "released"}
        sid, _ = lts.add_state(
            "s", registry.empty_vector().with_true(
                VarKind.HAS, "Researcher", "weight_anon"), info)
        risks = PseudonymisationRiskAnalyzer(
            research_system, weight_policy).annotate(lts)
        assert len(risks) == 1
        target = lts.state(risks[0].transition.target)
        assert target.key == ("risk", "s", "Researcher", "weight")
        assert target.info == info and target.info is not info
        assert target.vector.has("Researcher", "weight")


class TestWithoutData:
    def test_unscored_transitions_still_injected(self, research_system,
                                                 weight_policy,
                                                 research_lts):
        analyzer = PseudonymisationRiskAnalyzer(
            research_system, weight_policy, dataset=None)
        risks = analyzer.annotate(research_lts, actors=["Researcher"])
        assert len(risks) == 3
        assert all(r.result is None for r in risks)
        assert all("unscored" in r.describe() for r in risks)


class TestEnforcement:
    def test_design_gate_raises(self, research_system, table1,
                                research_lts):
        policy = ValueRiskPolicy("weight", closeness=5.0,
                                 confidence=0.9,
                                 max_violation_fraction=0.5)
        analyzer = PseudonymisationRiskAnalyzer(
            research_system, policy, dataset=table1)
        risks = analyzer.annotate(research_lts, actors=["Researcher"])
        with pytest.raises(PolicyViolationError):
            analyzer.enforce(risks)

    def test_gate_passes_with_loose_threshold(self, research_system,
                                              table1, research_lts):
        policy = ValueRiskPolicy("weight", closeness=5.0,
                                 confidence=0.9,
                                 max_violation_fraction=0.7)
        analyzer = PseudonymisationRiskAnalyzer(
            research_system, policy, dataset=table1)
        analyzer.enforce(
            analyzer.annotate(research_lts, actors=["Researcher"]))


class TestErrors:
    def test_unanonymised_sensitive_field_rejected(self, research_system,
                                                   table1, research_lts):
        policy = ValueRiskPolicy("name")
        analyzer = PseudonymisationRiskAnalyzer(
            research_system, policy, dataset=table1)
        with pytest.raises(AnalysisError, match="name_anon"):
            analyzer.annotate(research_lts)

    def test_field_map_missing_entry(self, research_system,
                                     weight_policy, table1,
                                     research_lts):
        analyzer = PseudonymisationRiskAnalyzer(
            research_system, weight_policy, dataset=table1,
            record_field_map={"weight_anon": "weight"})
        with pytest.raises(AnalysisError, match="no entry"):
            analyzer.annotate(research_lts, actors=["Researcher"])

    def test_explicit_field_map(self, research_system, weight_policy,
                                table1, research_lts):
        analyzer = PseudonymisationRiskAnalyzer(
            research_system, weight_policy, dataset=table1,
            record_field_map={
                "age_anon": "age", "height_anon": "height",
                "weight_anon": "weight",
            })
        risks = analyzer.annotate(research_lts, actors=["Researcher"])
        assert sorted(r.violations for r in risks) == [0, 2, 4]
