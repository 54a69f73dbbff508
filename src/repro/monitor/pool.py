"""Monitoring many users at once.

A deployed service has one privacy-state instance *per user* (paper
§III). The :class:`MonitorPool` manages that fleet: it lazily creates
one :class:`~repro.monitor.tracker.PrivacyMonitor` per user over a
shared, frozen LTS (one per consent combination, from an
:class:`~repro.core.ltssource.LtsSource`) and a risk table (one per
consent combination and sensitivity profile, cached), routes
events by user id, and aggregates alerts — the operational surface of
"monitor the privacy risks during the lifetime of the service".
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..core.ltssource import LocalLtsSource
from ..core.risk.disclosure import DisclosureRiskAnalyzer
from ..dfd.model import SystemModel
from ..errors import MonitorError
from .alerts import Alert
from .events import ObservedEvent
from .tracker import PrivacyMonitor


class MonitorPool:
    """Per-user privacy monitors over shared models and risk tables.

    Parameters
    ----------
    system:
        The system model.
    analyzer:
        Optional pre-configured :class:`DisclosureRiskAnalyzer`
        (likelihood model / risk matrix); defaults are used otherwise.
    on_alert:
        Callback ``(user_name, alert)`` invoked for every alert raised
        by any user's monitor.

    The pooled LTSs come from the pool's own
    :class:`~repro.core.ltssource.LocalLtsSource`, which generates each
    consent combination once. They are frozen: no user's monitor may
    write on another's LTS.
    """

    def __init__(self, system: SystemModel,
                 analyzer: Optional[DisclosureRiskAnalyzer] = None,
                 on_alert: Optional[Callable[[str, Alert], None]] = None):
        self.system = system
        self._analyzer = analyzer if analyzer is not None \
            else DisclosureRiskAnalyzer(system)
        self._lts_source = LocalLtsSource()
        self._on_alert = on_alert
        self._monitors: Dict[str, PrivacyMonitor] = {}
        self._risk_cache: Dict[Tuple, object] = {}

    # -- registration -------------------------------------------------------

    def register(self, user) -> PrivacyMonitor:
        """Create (or return) the monitor for ``user``.

        The user's LTS is generated from their agreed services with
        potential reads for their non-allowed actors and cached by
        consent combination; the user's risk table over it is cached
        by consent combination and sensitivity profile.
        """
        existing = self._monitors.get(user.name)
        if existing is not None:
            return existing
        if not user.agreed_services:
            raise MonitorError(
                f"user {user.name!r} has not agreed to any service; "
                "there is no behaviour to monitor"
            )
        lts, risks = self._analysed_lts(user)
        monitor = PrivacyMonitor(
            lts,
            acceptable_risk=user.acceptable_risk,
            on_alert=self._make_alert_handler(user.name),
            risks=risks,
        )
        self._monitors[user.name] = monitor
        return monitor

    def _analysed_lts(self, user):
        """The user's LTS and risk table, each shared as widely as it
        can be.

        Generation depends only on the agreed services and the
        non-allowed actors, so every user with the same consents
        shares one LTS. The risk table also depends on the
        sensitivities, so it is shared only by users whose consents
        and sigmas both match. The acceptable risk level keys
        neither: it grades alerts in each user's own monitor.
        """
        options = self._analyzer.default_options(self.system, user)
        lts = self._lts_source.lts_for(self.system, options)
        risk_key = (
            options.cache_key(),
            tuple(sorted(user.sensitivity.as_dict().items())),
            user.sensitivity.default,
        )
        risks = self._risk_cache.get(risk_key)
        if risks is None:
            risks = self._risk_cache[risk_key] = \
                self._analyzer.analyse(user, lts=lts).annotations
        return lts, risks

    def _make_alert_handler(self, user_name: str):
        def handler(alert: Alert) -> None:
            if self._on_alert is not None:
                self._on_alert(user_name, alert)
        return handler

    # -- routing --------------------------------------------------------------

    def observe(self, user_name: str, event: ObservedEvent):
        """Deliver one event to one user's monitor."""
        monitor = self._monitors.get(user_name)
        if monitor is None:
            raise MonitorError(
                f"no monitor registered for user {user_name!r}"
            )
        return monitor.observe(event)

    def broadcast(self, event: ObservedEvent) -> Dict[str, object]:
        """Deliver an event affecting every user (e.g. a bulk read of a
        store holding all users' records). Returns per-user matches."""
        return {
            name: monitor.observe(event)
            for name, monitor in self._monitors.items()
        }

    # -- aggregation --------------------------------------------------------------

    def monitor_for(self, user_name: str) -> PrivacyMonitor:
        try:
            return self._monitors[user_name]
        except KeyError:
            raise MonitorError(
                f"no monitor registered for user {user_name!r}"
            ) from None

    @property
    def user_names(self) -> Tuple[str, ...]:
        return tuple(self._monitors)

    def all_alerts(self) -> List[Tuple[str, Alert]]:
        """(user, alert) pairs across the fleet, registration order."""
        pairs: List[Tuple[str, Alert]] = []
        for name, monitor in self._monitors.items():
            pairs.extend((name, alert) for alert in monitor.alerts)
        return pairs

    def users_with_critical_alerts(self) -> Tuple[str, ...]:
        return tuple(
            name for name, monitor in self._monitors.items()
            if monitor.critical_alerts()
        )

    def __len__(self) -> int:
        return len(self._monitors)

    def __repr__(self) -> str:
        return (
            f"MonitorPool(users={len(self._monitors)}, "
            f"cached_lts={len(self._lts_source)})"
        )
