"""Capture rendered risk output into ``tests/data/golden_risk_render.json``.

The file pins what an operator sees of a risk analysis: for two
analysed LTSs it holds the DOT rendering (``lts_to_dot``), the risk
transition table (``risk_transition_table``) and the JSON export
(``lts_to_json``), each as the exact text the renderer returns.

- ``fig4_research`` is the research system's LTS (Fig. 4) after
  pseudonymisation analysis of the Researcher against Table I, followed
  by re-identification scoring of the same release.
- ``iva_medical`` is the IV.A medical LTS (Medical Service plus
  potential reads of the non-allowed actors) after disclosure analysis
  for the case-study patient.

``test_viz.py`` replays the file: it rebuilds both cases, renders them
from their risk side tables and requires identical text.

The file in the repository was recorded before the analyzers stopped
writing annotations onto the transitions, from the renderers that read
those annotations back off the LTS. It therefore pins that moving the
annotations into side tables changed no rendered byte. Regenerate it
only when the rendering is *meant* to move, and review the diff.

Run from the repository root::

    PYTHONPATH=src python tests/capture_golden_risk_render.py
"""

from __future__ import annotations

import json
import os
import sys

from repro.casestudies import (
    build_research_system,
    build_surgery_system,
    surgery_patient,
    table1_records,
)
from repro.core import ModelGenerator, generate_lts
from repro.core.export import lts_to_json
from repro.core.risk import (
    DisclosureRiskAnalyzer,
    PseudonymisationRiskAnalyzer,
    ValueRiskPolicy,
    annotate_reidentification,
    merge_risks,
)
from repro.viz import lts_to_dot, risk_transition_table

DATA_PATH = os.path.join(os.path.dirname(__file__), "data",
                         "golden_risk_render.json")


def research_case():
    """Fig. 4: pseudonym risk transitions, then re-identification."""
    system = build_research_system()
    records = table1_records()
    lts = generate_lts(system)
    policy = ValueRiskPolicy(sensitive_field="weight", closeness=5.0,
                             confidence=0.9)
    risks = PseudonymisationRiskAnalyzer(
        system, policy, dataset=records).annotate(
            lts, actors=["Researcher"])
    findings = annotate_reidentification(lts, records)
    return lts, merge_risks(risks, findings)


def medical_case():
    """IV.A: disclosure analysis of the surgery patient."""
    system = build_surgery_system()
    patient = surgery_patient()
    analyzer = DisclosureRiskAnalyzer(system)
    lts = ModelGenerator(system).generate(
        analyzer.default_options(system, patient))
    report = analyzer.analyse(patient, lts=lts)
    return lts, report.annotations


CASES = (("fig4_research", research_case), ("iva_medical", medical_case))


def render(lts, risks) -> dict:
    return {
        "dot": lts_to_dot(lts, risks=risks),
        "table": risk_transition_table(lts, risks),
        "json": lts_to_json(lts, risks=risks),
    }


def capture() -> dict:
    return {name: render(*build()) for name, build in CASES}


def main() -> int:
    rendered = capture()
    os.makedirs(os.path.dirname(DATA_PATH), exist_ok=True)
    with open(DATA_PATH, "w", encoding="utf-8") as handle:
        json.dump(rendered, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {DATA_PATH}")
    for name, outputs in rendered.items():
        sizes = ", ".join(f"{kind} {len(text)} chars"
                          for kind, text in sorted(outputs.items()))
        print(f"  {name}: {sizes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
