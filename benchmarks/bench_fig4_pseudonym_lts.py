"""Fig. 4 — pseudonymisation risk analysis output.

Regenerates the annotated LTS of Fig. 4: the research system's LTS
with dotted risk transitions injected wherever the Researcher has read
``weight_anon`` without rights to ``weight``, scored 0 / 2 / 4
violations as the quasi-identifier sets {height}, {age}, {age, height}
accumulate. Prints the DOT with the dotted red risk edges.
"""

from __future__ import annotations

import pytest

from repro.core import TransitionKind, generate_lts
from repro.core.risk import PseudonymisationRiskAnalyzer, merge_risks
from repro.viz import lts_to_dot, risk_transition_table


def test_fig4_annotation(benchmark, research_system, weight_policy,
                         table1):
    def annotate():
        lts = generate_lts(research_system)
        analyzer = PseudonymisationRiskAnalyzer(
            research_system, weight_policy, dataset=table1)
        return lts, analyzer.annotate(lts, actors=["Researcher"])

    lts, risks = benchmark(annotate)
    assert sorted(r.violations for r in risks) == [0, 2, 4]
    assert {frozenset(r.fields_read): r.violations for r in risks} == {
        frozenset({"height_anon"}): 0,
        frozenset({"age_anon"}): 2,
        frozenset({"age_anon", "height_anon"}): 4,
    }
    assert all(t.kind is TransitionKind.RISK
               for t in lts.transitions_of_kind(TransitionKind.RISK))
    benchmark.extra_info["violation_scores"] = [0, 2, 4]
    print()
    print("=== Fig. 4 risk transitions ===")
    print(risk_transition_table(lts, merge_risks(risks)))


def test_fig4_dot_render(benchmark, research_system, weight_policy,
                         table1):
    lts = generate_lts(research_system)
    risks = PseudonymisationRiskAnalyzer(
        research_system, weight_policy,
        dataset=table1).annotate(lts, actors=["Researcher"])
    dot = benchmark(lts_to_dot, lts, "fig4", risks=merge_risks(risks))
    assert "style=dotted" in dot
    assert "violations=0/6" in dot
    assert "violations=2/6" in dot
    assert "violations=4/6" in dot
    print()
    print(dot)


def test_fig4_design_phase_error(benchmark, research_system, table1):
    """The administrator option of IV.B: declare > 50% violations
    unacceptable and the analysis raises, forcing a different
    pseudonymisation."""
    from repro.core.risk import ValueRiskPolicy
    from repro.errors import PolicyViolationError

    gated = ValueRiskPolicy("weight", closeness=5.0, confidence=0.9,
                            max_violation_fraction=0.5)

    def run():
        lts = generate_lts(research_system)
        analyzer = PseudonymisationRiskAnalyzer(
            research_system, gated, dataset=table1)
        risks = analyzer.annotate(lts, actors=["Researcher"])
        with pytest.raises(PolicyViolationError):
            analyzer.enforce(risks)
        return risks

    risks = benchmark(run)
    assert len(risks) == 3
