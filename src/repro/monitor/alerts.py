"""Alerts raised while tracking a running system against its model."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Optional

from ..core.lts import Transition
from ..core.risk.matrix import RiskLevel
from ..core.risk.report import RiskAnnotation
from .events import ObservedEvent


class AlertSeverity(enum.Enum):
    INFO = "info"
    WARNING = "warning"
    CRITICAL = "critical"


@dataclass(frozen=True)
class Alert:
    """Base alert: something the operator should look at."""

    severity: AlertSeverity
    message: str

    def describe(self) -> str:
        return f"[{self.severity.value.upper()}] {self.message}"


@dataclass(frozen=True)
class RiskAlert(Alert):
    """A risk-annotated transition was actually taken at runtime.

    The event crossed from *potential* risk (a dotted transition in the
    analysed model) to *actual* behaviour — e.g. a non-allowed actor
    really did read the EHR.
    """

    transition: Optional[Transition] = None
    level: RiskLevel = RiskLevel.NONE
    event: Optional[ObservedEvent] = None


@dataclass(frozen=True)
class DivergenceAlert(Alert):
    """The running system performed an action its model cannot explain.

    Either the model is stale or the system is misbehaving; both are
    findings — the paper's premise is that the model stays meaningful
    through the service's lifetime.
    """

    event: Optional[ObservedEvent] = None
    state_id: int = -1


def risk_alert(transition: Transition, event: ObservedEvent,
               acceptable: RiskLevel,
               risks: Mapping[int, RiskAnnotation]) -> RiskAlert:
    """Build a risk alert graded against the user's acceptable level,
    at the level the risk table ``risks`` gives the transition."""
    risk = risks.get(transition.tid)
    level = risk.level if risk is not None else RiskLevel.NONE
    severity = AlertSeverity.CRITICAL if level > acceptable \
        else AlertSeverity.WARNING
    return RiskAlert(
        severity=severity,
        message=(
            f"risk-annotated action occurred: {event.describe()} "
            f"(level {level.value}, acceptable {acceptable.value})"
        ),
        transition=transition,
        level=level,
        event=event,
    )


def divergence_alert(event: ObservedEvent, state_id: int) -> DivergenceAlert:
    return DivergenceAlert(
        severity=AlertSeverity.CRITICAL,
        message=(
            f"unmodelled behaviour observed in state s{state_id}: "
            f"{event.describe()}"
        ),
        event=event,
        state_id=state_id,
    )
