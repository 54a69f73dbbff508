#!/usr/bin/env python3
"""The paper's section IV.B case study: pseudonymisation value risk.

Takes raw physical-attribute records, 2-anonymises them (reproducing
the exact release of the paper's Table I), scores the researcher's
ability to infer weight within 5 kg at 90% confidence for each
quasi-identifier combination, prints Table I, annotates the research
system's LTS with the dotted risk transitions of Fig. 4, and shows
both the design-phase error gate and the utility check.

Run with ``python examples/pseudonymisation_risk.py``.
"""

from repro.anonymize import Pseudonymizer, utility_report
from repro.casestudies import (
    build_research_system,
    raw_physical_records,
    table1_hierarchies,
)
from repro.core import generate_lts
from repro.core.risk import (
    PseudonymisationRiskAnalyzer,
    ValueRiskPolicy,
    merge_risks,
    render_risk_table,
    risk_sweep,
)
from repro.datastore import RuntimeDatastore
from repro.errors import PolicyViolationError
from repro.schema import DataSchema, Field
from repro.viz import lts_to_dot, risk_transition_table


def prepare_release():
    """Raw records -> 2-anonymised release (the paper's preparation)."""
    schema = DataSchema("Physical", [
        Field("name"), Field("age"), Field("height"), Field("weight")])
    store = RuntimeDatastore("HealthRecords", schema)
    store.load(raw_physical_records())
    run = Pseudonymizer(
        quasi_identifiers=("age", "height"),
        identifiers=("name",),
        hierarchies=table1_hierarchies(),
    ).run(store, k=2)
    # score under the original column names, as Table I prints them
    return [r.renamed({"age_anon": "age", "height_anon": "height",
                       "weight_anon": "weight"})
            for r in run.released]


def main():
    released = prepare_release()
    print("=== The 2-anonymised release: full privacy posture ===")
    from repro.anonymize import privacy_metrics
    metrics = privacy_metrics(released, ("age", "height"), "weight")
    print(metrics.summary_table())
    print("(k-anonymity alone does not remove value risk — that is "
          "the paper's point)")
    print()

    policy = ValueRiskPolicy(sensitive_field="weight", closeness=5.0,
                             confidence=0.9)
    combos = [["height"], ["age"], ["age", "height"]]
    results = risk_sweep(released, combos, policy)

    print("=== Table I: risk values for 2-anonymisation records ===")
    print(render_risk_table(released, ["age", "height", "weight"],
                            results))
    print()
    print("violations:", [r.violations for r in results],
          " (paper: 0, 2, 4)")
    print()

    print("=== Fig. 4: the annotated LTS ===")
    system = build_research_system()
    lts = generate_lts(system)
    analyzer = PseudonymisationRiskAnalyzer(
        system, policy,
        dataset=released,
        record_field_map={"age_anon": "age", "height_anon": "height",
                          "weight_anon": "weight"})
    risks = analyzer.annotate(lts, actors=["Researcher"])
    risk_table = merge_risks(risks)
    print(risk_transition_table(lts, risk_table))
    print()
    for risk in sorted(risks, key=lambda r: r.violations):
        print(" -", risk.describe())
    print()

    print("=== The design-phase gate (IV.B) ===")
    gated = ValueRiskPolicy("weight", closeness=5.0, confidence=0.9,
                            max_violation_fraction=0.5)
    gated_analyzer = PseudonymisationRiskAnalyzer(
        system, gated, dataset=released,
        record_field_map={"age_anon": "age", "height_anon": "height",
                          "weight_anon": "weight"})
    gated_risks = gated_analyzer.annotate(generate_lts(system),
                                          actors=["Researcher"])
    try:
        gated_analyzer.enforce(gated_risks)
    except PolicyViolationError as error:
        print("PolicyViolationError:", error)
    print()

    print("=== Utility of the release (III.B) ===")
    original = [r.mask(["name"]) for r in raw_physical_records()]
    for field, utility in utility_report(
            original, released, ["age", "height", "weight"]).items():
        print(f"  {field}: mean {utility.original_mean:.1f} -> "
              f"{utility.released_mean:.1f} "
              f"(error {utility.mean_error:.2f}), "
              f"coverage {utility.coverage:.0%}")
    print()

    print("=== Fig. 4 as DOT (dotted = risk transitions) ===")
    print(lts_to_dot(lts, "fig4", risks=risk_table))


if __name__ == "__main__":
    main()
