"""Risk annotations, risk side tables and the disclosure risk report.

A :class:`RiskAnnotation` is the "privacy risk measure" label the
paper attaches to transitions during analysis. It may carry a full
impact x likelihood :class:`~repro.core.risk.matrix.RiskAssessment`
(unwanted disclosure, III.A), a value-risk result (pseudonymisation,
III.B), or both.

Analyses never write annotations onto the LTS. Each returns them as a
*risk table*, a mapping from transition id to annotation: a
disclosure report's :attr:`DisclosureRiskReport.annotations`, or the
findings of the pseudonymisation and re-identification analyses, each
carrying its own ``annotation``. :func:`merge_risks` joins several
tables into the one the renderers and the monitor read.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..._util import ascii_table
from ..lts import Transition
from .matrix import RiskAssessment, RiskLevel


@dataclass
class RiskAnnotation:
    """The risk label of one transition."""

    assessment: Optional[RiskAssessment] = None
    value_risk: Optional[object] = None  # ValueRiskResult (III.B)
    scenario_breakdown: Tuple[Tuple[str, float], ...] = ()
    context: str = ""

    @property
    def level(self) -> RiskLevel:
        if self.assessment is not None:
            return self.assessment.level
        return RiskLevel.NONE

    def describe(self) -> str:
        parts = []
        if self.assessment is not None:
            parts.append(
                f"{self.assessment.level.value.upper()} "
                f"(impact={self.assessment.impact_category.value}, "
                f"likelihood={self.assessment.likelihood_category.value})"
            )
        if self.value_risk is not None:
            parts.append(
                f"violations={self.value_risk.violations}/"
                f"{len(self.value_risk.per_record)}"
            )
        if self.context:
            parts.append(self.context)
        return "; ".join(parts) if parts else "<unscored>"


def merge_risks(*tables) -> Dict[int, RiskAnnotation]:
    """Join risk tables into one, keyed by transition id.

    Each table is a ``tid -> RiskAnnotation`` mapping or a sequence of
    findings that carry ``transition`` and ``annotation`` (pseudonym
    risks, re-identification findings). Where two tables annotate the
    same transition, the later context is appended to the earlier one
    after ``"; "`` and the earlier assessment and value risk are kept
    (filled from the later annotation only where absent).
    """
    merged: Dict[int, RiskAnnotation] = {}
    for table in tables:
        items: Iterable = table.items() if isinstance(table, Mapping) \
            else ((f.transition.tid, f.annotation) for f in table)
        for tid, annotation in items:
            current = merged.get(tid)
            if current is None:
                merged[tid] = annotation
                continue
            merged[tid] = dataclasses.replace(
                current,
                assessment=current.assessment or annotation.assessment,
                value_risk=current.value_risk or annotation.value_risk,
                scenario_breakdown=current.scenario_breakdown
                or annotation.scenario_breakdown,
                context="; ".join(
                    c for c in (current.context, annotation.context) if c))
    return merged


@dataclass(frozen=True)
class RiskEvent:
    """One identified risk: a transition with its assessment."""

    transition: Transition
    actor: str
    fields: Tuple[str, ...]
    store: Optional[str]
    assessment: RiskAssessment
    scenario_breakdown: Tuple[Tuple[str, float], ...] = ()

    @property
    def level(self) -> RiskLevel:
        return self.assessment.level

    def describe(self) -> str:
        where = f" from {self.store}" if self.store else ""
        return (
            f"{self.level.value.upper()}: {self.actor} reads "
            f"{{{', '.join(self.fields)}}}{where} "
            f"[impact={self.assessment.impact:.2f} "
            f"({self.assessment.impact_category.value}), "
            f"likelihood={self.assessment.likelihood:.2f} "
            f"({self.assessment.likelihood_category.value})]"
        )


class DisclosureRiskReport:
    """The output of unwanted-disclosure analysis for one user.

    ``impacts`` holds every analysed transition's impact, indexed by
    transition id; :attr:`annotations` renders them, with the events,
    into the report's risk table on first access.
    """

    def __init__(self, user_name: str,
                 allowed_actors: Sequence[str],
                 non_allowed_actors: Sequence[str],
                 events: Sequence[RiskEvent],
                 impacts: Sequence[float] = ()):
        self.user_name = user_name
        self.allowed_actors = tuple(sorted(allowed_actors))
        self.non_allowed_actors = tuple(sorted(non_allowed_actors))
        self._events = tuple(sorted(
            events, key=lambda e: (-e.assessment.level.rank,
                                   e.actor, e.fields)))
        self.impacts = tuple(impacts)
        self._annotations: Optional[Dict[int, RiskAnnotation]] = None

    @property
    def events(self) -> Tuple[RiskEvent, ...]:
        return self._events

    @property
    def annotations(self) -> Mapping[int, RiskAnnotation]:
        """The risk table: one annotation per analysed transition.

        Reads carry their assessment and scenario breakdown; every
        other transition its impact relative to the absolute privacy
        state, labelled a potential exposure when positive.
        """
        if self._annotations is None:
            events = {e.transition.tid: e for e in self._events}
            table: Dict[int, RiskAnnotation] = {}
            for tid, impact in enumerate(self.impacts):
                event = events.get(tid)
                if event is not None:
                    table[tid] = RiskAnnotation(
                        assessment=event.assessment,
                        scenario_breakdown=event.scenario_breakdown)
                elif impact > 0.0:
                    table[tid] = RiskAnnotation(
                        context=f"potential exposure, impact={impact:.3f}")
                else:
                    table[tid] = RiskAnnotation(
                        context="impact relative to absolute state: "
                                f"{impact:.3f}")
            self._annotations = table
        return self._annotations

    @property
    def max_level(self) -> RiskLevel:
        if not self._events:
            return RiskLevel.NONE
        return max(e.level for e in self._events)

    def events_at_or_above(self, level) -> Tuple[RiskEvent, ...]:
        threshold = RiskLevel.from_name(level)
        return tuple(e for e in self._events if e.level >= threshold)

    def events_above(self, level) -> Tuple[RiskEvent, ...]:
        threshold = RiskLevel.from_name(level)
        return tuple(e for e in self._events if e.level > threshold)

    def by_actor(self) -> Dict[str, Tuple[RiskEvent, ...]]:
        grouped: Dict[str, List[RiskEvent]] = {}
        for event in self._events:
            grouped.setdefault(event.actor, []).append(event)
        return {actor: tuple(events)
                for actor, events in grouped.items()}

    def unacceptable_for(self, user) -> Tuple[RiskEvent, ...]:
        """Events exceeding the user's acceptable risk level."""
        return self.events_above(user.acceptable_risk)

    def summary_table(self) -> str:
        headers = ("risk", "actor", "fields", "store",
                   "impact", "likelihood")
        rows = [
            (
                event.level.value.upper(),
                event.actor,
                ", ".join(event.fields),
                event.store or "-",
                f"{event.assessment.impact:.2f}",
                f"{event.assessment.likelihood:.2f}",
            )
            for event in self._events
        ]
        if not rows:
            rows = [("-", "-", "-", "-", "-", "-")]
        return ascii_table(headers, rows)

    def __repr__(self) -> str:
        return (
            f"DisclosureRiskReport(user={self.user_name!r}, "
            f"events={len(self._events)}, "
            f"max={self.max_level.value})"
        )
