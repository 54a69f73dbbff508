"""Job and result types of the batch engine.

An :class:`AnalysisJob` is one unit of work — a system model, the user
to analyse it for, the analysis *kind* to run (disclosure by default),
optional explicit generation options and optional per-kind parameters.
A :class:`JobResult` is its flat, picklable outcome: risk events and
kind-specific findings reduced to value tuples so results travel
across process boundaries and in/out of caches without dragging LTS
objects along.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping, NamedTuple, Optional, Tuple

from ..consent import UserProfile
from ..core import GenerationOptions
from ..core.risk import RiskLevel
from ..core.risk.report import DisclosureRiskReport
from ..dfd import SystemModel


@dataclass
class AnalysisJob:
    """One model x user x kind x options analysis request.

    ``kind`` names an entry of the analysis-kind registry
    (:mod:`repro.engine.kinds`); ``params`` carries kind-specific
    inputs (e.g. ``{"withdraw": ["MedicalService"]}`` for a consent
    change) and participates in the cache identity.

    ``scenario``/``family``/``variant`` are display/grouping labels
    (no effect on the cache identity — the engine asserts this);
    ``job_id`` is assigned by the engine when left empty.
    """

    system: SystemModel
    user: UserProfile
    options: Optional[GenerationOptions] = None
    kind: str = "disclosure"
    params: Optional[Mapping[str, Any]] = None
    scenario: str = ""
    family: str = ""
    variant: str = ""
    job_id: str = ""


class RiskEventSummary(NamedTuple):
    """One risk event, flattened to plain values."""

    level: str
    actor: str
    fields: Tuple[str, ...]
    store: Optional[str]
    impact: float
    likelihood: float
    impact_category: str
    likelihood_category: str


@dataclass(frozen=True)
class JobResult:
    """The picklable outcome of one job.

    ``signature()`` is the semantic content — what must be identical
    between a serial and a parallel run, or between a computed and a
    cached result. ``from_cache``/``lts_generated``/``lts_reused``/
    ``duration`` are execution metadata and excluded from it;
    ``lts_generated`` is True when the job generated at least one LTS,
    ``lts_reused`` when every LTS it read came from the memo (it does
    not cross the wire: a fleet dispatcher sets it from the stats of
    the worker's one-job response).

    ``events`` holds disclosure-style risk events (kinds that produce
    none leave it empty); ``details`` is the kind's own flattened
    payload as ``(key, value)`` pairs — see each kind's ``analyse``
    for its schema.
    """

    job_id: str
    scenario: str
    family: str
    variant: str
    fingerprint: str
    user: str
    states: int
    transitions: int
    max_level: str
    events: Tuple[RiskEventSummary, ...]
    non_allowed_actors: Tuple[str, ...]
    kind: str = "disclosure"
    details: Tuple[Tuple[str, Any], ...] = ()
    lts_generated: bool = True
    lts_reused: bool = False
    from_cache: bool = False
    duration: float = 0.0

    def signature(self) -> tuple:
        return (self.kind, self.fingerprint, self.user, self.states,
                self.transitions, self.max_level, self.events,
                self.non_allowed_actors, self.details)

    @property
    def level(self) -> RiskLevel:
        return RiskLevel.from_name(self.max_level)

    def detail(self, key: str, default=None):
        """The kind-payload entry named ``key`` (first match)."""
        for name, value in self.details:
            if name == key:
                return value
        return default

    def relabel(self, job: AnalysisJob) -> "JobResult":
        """A cached result re-badged for the job that requested it."""
        return replace(
            self, job_id=job.job_id, scenario=job.scenario,
            family=job.family, variant=job.variant,
            from_cache=True, lts_generated=False, lts_reused=False,
            duration=0.0)


def summarize_events(report: DisclosureRiskReport
                     ) -> Tuple[RiskEventSummary, ...]:
    """Flatten a disclosure report's events to plain value tuples."""
    return tuple(
        RiskEventSummary(
            level=event.level.value,
            actor=event.actor,
            fields=tuple(event.fields),
            store=event.store,
            impact=event.assessment.impact,
            likelihood=event.assessment.likelihood,
            impact_category=event.assessment.impact_category.value,
            likelihood_category=event.assessment.likelihood_category.value,
        )
        for event in report.events
    )
