"""Impact analysis of consent changes.

The paper's introduction motivates monitoring "during the lifetime of
the service (as the users, data, and behaviour may change)". The most
common change is consent: a user agrees to a new service or withdraws
from one, which re-partitions the actors into allowed / non-allowed
and changes every sigma(d, a) at once. This module answers the
question *before* the change is committed: which actors flip status,
and what does the risk report look like afterwards?
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from ...dfd.model import SystemModel
from ...errors import AnalysisError
from ..ltssource import LocalLtsSource, LtsSource
from .disclosure import DisclosureRiskAnalyzer
from .likelihood import LikelihoodModel
from .matrix import RiskLevel, RiskMatrix
from .report import DisclosureRiskReport


@dataclass(frozen=True)
class ConsentChangeReport:
    """Before/after view of one proposed consent change."""

    user_name: str
    agreed_before: Tuple[str, ...]
    agreed_after: Tuple[str, ...]
    newly_allowed_actors: Tuple[str, ...]
    newly_non_allowed_actors: Tuple[str, ...]
    before: Optional[DisclosureRiskReport]
    after: Optional[DisclosureRiskReport]

    @property
    def before_level(self) -> RiskLevel:
        return self.before.max_level if self.before is not None \
            else RiskLevel.NONE

    @property
    def after_level(self) -> RiskLevel:
        return self.after.max_level if self.after is not None \
            else RiskLevel.NONE

    @property
    def risk_increases(self) -> bool:
        return self.after_level > self.before_level

    def summary_tuple(self) -> tuple:
        """Flatten to plain values (batch-engine result payload)."""
        return (
            self.agreed_before,
            self.agreed_after,
            self.newly_allowed_actors,
            self.newly_non_allowed_actors,
            self.before_level.value,
            self.after_level.value,
            self.risk_increases,
        )

    def describe(self) -> str:
        lines = [
            f"consent change for {self.user_name!r}: "
            f"{list(self.agreed_before)} -> {list(self.agreed_after)}",
        ]
        if self.newly_allowed_actors:
            lines.append(
                "  actors becoming allowed: "
                + ", ".join(self.newly_allowed_actors))
        if self.newly_non_allowed_actors:
            lines.append(
                "  actors becoming non-allowed: "
                + ", ".join(self.newly_non_allowed_actors))
        lines.append(
            f"  max risk: {self.before_level.value} -> "
            f"{self.after_level.value}")
        return "\n".join(lines)


def analyse_consent_change(system: SystemModel, user,
                           agree: Iterable[str] = (),
                           withdraw: Iterable[str] = (),
                           likelihood: Optional[LikelihoodModel] = None,
                           matrix: Optional[RiskMatrix] = None,
                           initial_store_contents=None,
                           source: Optional[LtsSource] = None
                           ) -> ConsentChangeReport:
    """Evaluate a proposed consent change without mutating ``user``.

    ``agree`` / ``withdraw`` are service names. The returned report
    carries full disclosure reports for both consent states (``None``
    for a state with no agreed services, where the paper's analysis is
    undefined). ``initial_store_contents`` (store -> field names)
    models data already held from earlier use — essential when
    withdrawing from the service that produced the data, since the
    stores do not forget with the consent.

    Both sides' LTSs come from ``source`` (the batch engine passes its
    memo, so the "before" side is the LTS the user's own disclosure
    job reads); without one, a :class:`LocalLtsSource` generates each
    distinct side once.
    """
    agree = tuple(agree)
    withdraw = tuple(withdraw)
    if not agree and not withdraw:
        raise AnalysisError(
            "a consent change needs at least one service to agree to "
            "or withdraw from"
        )
    for service in (*agree, *withdraw):
        system.service(service)  # raises on unknown names

    before_services = set(user.agreed_services)
    after_services = (before_services | set(agree)) - set(withdraw)
    source = source if source is not None else LocalLtsSource()
    analyzer = DisclosureRiskAnalyzer(system, likelihood, matrix)

    def report_for(services):
        if not services:
            return None
        from ...consent import UserProfile
        profile = UserProfile(
            user.name,
            agreed_services=services,
            sensitivities=user.sensitivity.as_dict(),
            default_sensitivity=user.sensitivity.default,
            acceptable_risk=user.acceptable_risk,
        )
        options = DisclosureRiskAnalyzer.default_options(system, profile)
        if initial_store_contents is not None:
            options = dataclasses.replace(
                options,
                initial_store_contents=dict(initial_store_contents))
        return analyzer.analyse(profile,
                                lts=source.lts_for(system, options))

    allowed_before = system.allowed_actors(before_services) \
        if before_services else set()
    allowed_after = system.allowed_actors(after_services) \
        if after_services else set()

    return ConsentChangeReport(
        user_name=user.name,
        agreed_before=tuple(sorted(before_services)),
        agreed_after=tuple(sorted(after_services)),
        newly_allowed_actors=tuple(sorted(
            allowed_after - allowed_before)),
        newly_non_allowed_actors=tuple(sorted(
            allowed_before - allowed_after)),
        before=report_for(before_services),
        after=report_for(after_services),
    )
