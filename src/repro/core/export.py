"""Exporting generated models and analysis results as plain data.

Tooling around the method (dashboards, CI gates, the paper's idea of
feeding analysis output back into user-facing privacy policies) needs
machine-readable artefacts, not Python objects. This module serializes
LTSs, disclosure reports and pseudonymisation risks to JSON-compatible
dicts. Exports are lossy in one deliberate way: states are identified
by id, with their true variables listed, rather than by the internal
configuration key.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Optional

from .lts import LTS, Transition
from .risk.report import RiskAnnotation


def transition_to_dict(transition: Transition,
                       risk: Optional[RiskAnnotation] = None) -> Dict:
    """Serialize one transition, with its risk annotation if given."""
    label = transition.label
    data = {
        "tid": transition.tid,
        "source": transition.source,
        "target": transition.target,
        "kind": transition.kind.value,
        "action": label.action.value,
        "actor": label.actor,
        "fields": list(label.fields),
        "from": label.source,
        "to": label.target,
        "schema": label.schema,
        "purpose": label.purpose,
        "flow": list(label.flow_key) if label.flow_key else None,
    }
    if risk is not None:
        data["risk"] = _risk_annotation_to_dict(risk)
    return data


def _risk_annotation_to_dict(annotation) -> Dict:
    data: Dict = {}
    if annotation.assessment is not None:
        assessment = annotation.assessment
        data["level"] = assessment.level.value
        data["impact"] = assessment.impact
        data["impact_category"] = assessment.impact_category.value
        data["likelihood"] = assessment.likelihood
        data["likelihood_category"] = \
            assessment.likelihood_category.value
    if annotation.value_risk is not None:
        result = annotation.value_risk
        data["value_risk"] = {
            "sensitive_field": result.policy.sensitive_field,
            "fields_read": list(result.fields_read),
            "violations": result.violations,
            "records": len(result.per_record),
            "max_risk": result.max_risk,
        }
    if annotation.scenario_breakdown:
        data["scenarios"] = [
            {"name": name, "probability": probability}
            for name, probability in annotation.scenario_breakdown
        ]
    if annotation.context:
        data["context"] = annotation.context
    return data


def lts_to_dict(lts: LTS, include_variables: bool = True,
                risks: Optional[Mapping[int, RiskAnnotation]] = None) -> Dict:
    """Serialize an LTS (optionally with per-state true variables),
    annotating transitions from the risk table ``risks``."""
    risks = risks if risks is not None else {}
    states: List[Dict] = []
    for state in lts.states:
        entry: Dict = {"sid": state.sid}
        if include_variables:
            entry["true_variables"] = [
                {"kind": variable.kind.value, "actor": variable.actor,
                 "field": variable.field}
                for variable in state.vector.true_variables()
            ]
        states.append(entry)
    return {
        "initial": lts.initial.sid,
        "actors": list(lts.registry.actors),
        "fields": list(lts.registry.fields),
        "states": states,
        "transitions": [transition_to_dict(t, risks.get(t.tid))
                        for t in lts.transitions],
        "stats": lts.stats(),
    }


def lts_to_json(lts: LTS, indent: Optional[int] = 2,
                include_variables: bool = True,
                risks: Optional[Mapping[int, RiskAnnotation]] = None) -> str:
    return json.dumps(lts_to_dict(lts, include_variables, risks),
                      indent=indent)


def disclosure_report_to_dict(report) -> Dict:
    """Serialize a :class:`DisclosureRiskReport`."""
    return {
        "user": report.user_name,
        "allowed_actors": list(report.allowed_actors),
        "non_allowed_actors": list(report.non_allowed_actors),
        "max_level": report.max_level.value,
        "events": [
            {
                "actor": event.actor,
                "fields": list(event.fields),
                "store": event.store,
                "level": event.level.value,
                "impact": event.assessment.impact,
                "likelihood": event.assessment.likelihood,
                "transition": event.transition.tid,
                "scenarios": [
                    {"name": name, "probability": probability}
                    for name, probability in event.scenario_breakdown
                ],
            }
            for event in report.events
        ],
    }


def pseudonymisation_risks_to_dict(risks) -> List[Dict]:
    """Serialize :class:`PseudonymisationRisk` findings."""
    entries: List[Dict] = []
    for risk in risks:
        entry = {
            "actor": risk.actor,
            "sensitive_field": risk.sensitive_field,
            "fields_read": list(risk.fields_read),
            "transition": risk.transition.tid,
            "violations": risk.violations,
        }
        if risk.result is not None:
            entry["records"] = len(risk.result.per_record)
            entry["violation_fraction"] = risk.result.violation_fraction
            entry["max_risk"] = risk.result.max_risk
        entries.append(entry)
    return entries
