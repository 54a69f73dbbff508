"""The privacy monitor: walking the LTS alongside the running system.

A :class:`PrivacyMonitor` holds the current LTS state of one user's
privacy and advances it as runtime events arrive. It raises alerts
when transitions the user's risk table annotates are actually taken
and when the system diverges from its model — turning the design-time
artefact into the lifetime monitoring instrument the paper's
introduction promises.
"""

from __future__ import annotations

from typing import Callable, List, Mapping, Optional, Tuple

from ..core.lts import LTS, Transition
from ..core.risk.matrix import RiskLevel
from ..core.risk.report import RiskAnnotation
from ..errors import UnknownEventError
from .alerts import Alert, divergence_alert, risk_alert
from .events import ObservedEvent


class PrivacyMonitor:
    """Tracks one user's privacy state against a generated LTS.

    Parameters
    ----------
    lts:
        The model to track against.
    acceptable_risk:
        Risk level above which a taken risk transition is CRITICAL
        (typically ``user.acceptable_risk``).
    strict:
        When true, an event matching no transition raises
        :class:`~repro.errors.UnknownEventError`; otherwise a
        divergence alert is recorded and the state stays put.
    on_alert:
        Optional callback invoked with every alert as it is raised.
    risks:
        The user's risk table over ``lts`` (transition id ->
        annotation), e.g. a disclosure report's ``annotations``;
        taking a transition it rates above NONE raises a risk alert.
    """

    def __init__(self, lts: LTS,
                 acceptable_risk: RiskLevel = RiskLevel.LOW,
                 strict: bool = False,
                 on_alert: Optional[Callable[[Alert], None]] = None,
                 risks: Optional[Mapping[int, RiskAnnotation]] = None):
        self.lts = lts
        self.risks = risks if risks is not None else {}
        self.acceptable_risk = RiskLevel.from_name(acceptable_risk)
        self.strict = strict
        self._on_alert = on_alert
        self._current = lts.initial.sid
        self._trace: List[Transition] = []
        self._alerts: List[Alert] = []

    # -- state ---------------------------------------------------------------

    @property
    def current_state(self):
        return self.lts.state(self._current)

    @property
    def trace(self) -> Tuple[Transition, ...]:
        return tuple(self._trace)

    @property
    def alerts(self) -> Tuple[Alert, ...]:
        return tuple(self._alerts)

    def reset(self) -> None:
        self._current = self.lts.initial.sid
        self._trace = []
        self._alerts = []

    # -- observation -----------------------------------------------------------

    def observe(self, event: ObservedEvent) -> Optional[Transition]:
        """Advance the monitor by one observed event.

        Returns the matched transition, or ``None`` on (non-strict)
        divergence.
        """
        matched = self._match(event)
        if matched is None:
            if self.strict:
                raise UnknownEventError(event.describe(), self._current)
            self._raise_alert(divergence_alert(event, self._current))
            return None
        self._current = matched.target
        self._trace.append(matched)
        risk = self.risks.get(matched.tid)
        if risk is not None and risk.level is not RiskLevel.NONE:
            self._raise_alert(risk_alert(
                matched, event, self.acceptable_risk, self.risks))
        return matched

    def observe_all(self, events) -> List[Optional[Transition]]:
        return [self.observe(event) for event in events]

    def _match(self, event: ObservedEvent) -> Optional[Transition]:
        for transition in self.lts.transitions_from(self._current):
            if event.matches(transition):
                return transition
        return None

    def _raise_alert(self, alert: Alert) -> None:
        self._alerts.append(alert)
        if self._on_alert is not None:
            self._on_alert(alert)

    # -- reporting ----------------------------------------------------------------

    def exposure_of(self, actor: str) -> Tuple[str, ...]:
        """Fields the actor has or could identify in the current state."""
        return self.current_state.vector.fields_known_by(actor)

    def critical_alerts(self) -> Tuple[Alert, ...]:
        from .alerts import AlertSeverity
        return tuple(a for a in self._alerts
                     if a.severity is AlertSeverity.CRITICAL)

    def __repr__(self) -> str:
        return (
            f"PrivacyMonitor(state=s{self._current}, "
            f"events={len(self._trace)}, alerts={len(self._alerts)})"
        )
