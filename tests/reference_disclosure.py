"""Reference oracle for unwanted-disclosure analysis (paper III.A).

A literal port of the per-transition analyzer that
:class:`~repro.core.risk.disclosure.DisclosureRiskAnalyzer` replaced:
the impact of every transition is found by walking the variables it
newly sets (``PrivacyVector.newly_true_versus``) one at a time and
taking the largest ``SensitivityProfile.sigma_for``, and every read by
a non-allowed actor asks the likelihood model afresh. The one change
is where the annotations go. The historical analyzer wrote them onto
``transition.risk``; this port writes the same objects into a dict
keyed by transition id, which it returns next to the report.

It is slow on purpose and kept only as the authority the packed-mask
analyzer is compared against in ``test_risk_disclosure.py``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.actions import ActionType
from repro.core.risk.report import (
    DisclosureRiskReport,
    RiskAnnotation,
    RiskEvent,
)


def reference_analyse(analyzer, user, lts
                      ) -> Tuple[DisclosureRiskReport,
                                 Dict[int, RiskAnnotation]]:
    """Analyse ``lts`` for ``user`` with ``analyzer``'s system,
    likelihood model and risk matrix; returns the report and the
    annotations the historical analyzer attached, by transition id."""
    system = analyzer.system
    allowed = user.allowed_actors(system)
    non_allowed = user.non_allowed_actors(system)
    annotations: Dict[int, RiskAnnotation] = {}
    events = []
    for transition in lts.transitions:
        impact = _impact(lts, transition, user, allowed)
        annotation = RiskAnnotation(
            context=f"impact relative to absolute state: {impact:.3f}")
        annotations[transition.tid] = annotation
        if not _is_risk_event(transition, non_allowed):
            if impact > 0.0:
                annotation.context = (
                    f"potential exposure, impact={impact:.3f}")
            continue
        store = transition.label.source \
            if transition.label.source in system.datastores else None
        likelihood = analyzer.likelihood.probability(
            transition.label.actor, store, transition.label.fields)
        assessment = analyzer.matrix.assess(impact, likelihood)
        breakdown = tuple(analyzer.likelihood.breakdown(
            transition.label.actor, store, transition.label.fields))
        annotation.assessment = assessment
        annotation.scenario_breakdown = breakdown
        annotation.context = ""
        events.append(RiskEvent(
            transition=transition,
            actor=transition.label.actor,
            fields=transition.label.fields,
            store=store,
            assessment=assessment,
            scenario_breakdown=breakdown,
        ))
    report = DisclosureRiskReport(
        user_name=user.name,
        allowed_actors=allowed,
        non_allowed_actors=non_allowed,
        events=events,
    )
    return report, annotations


def _impact(lts, transition, user, allowed) -> float:
    """Max sigma(d, a) over the variables newly set by the transition,
    "relative to the absolute privacy state"."""
    source_vector = lts.state(transition.source).vector
    target_vector = lts.state(transition.target).vector
    impact = 0.0
    for variable in target_vector.newly_true_versus(source_vector):
        sigma = user.sensitivity.sigma_for(
            variable.field, variable.actor, allowed)
        if sigma > impact:
            impact = sigma
    return impact


def _is_risk_event(transition, non_allowed) -> bool:
    return (transition.label.action is ActionType.READ and
            transition.label.actor in non_allowed)
