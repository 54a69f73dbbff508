"""Unwanted-disclosure risk analysis (paper III.A and case study IV.A).

The analysis pipeline, per user:

1. Classify actors: *allowed* (participate in an agreed service) vs
   *non-allowed* (everyone else); sigma(d, a) is zero for allowed
   actors.
2. Generate the LTS of the agreed services, **including potential
   reads** by non-allowed actors — reads the access policy permits even
   though no agreed flow prescribes them (the Administrator's EHR
   access in IV.A).
3. Give every transition its *impact*: the maximum sigma(d, a) over
   the state variables the transition newly sets, measured against
   the absolute privacy state.
4. For every ``read`` by a non-allowed actor, combine the impact with
   the scenario-based *likelihood* and look the pair up in the risk
   matrix. These become the report's risk events.

Step 3 runs on the packed state masks. The variables a transition
newly sets are ``target & ~source``; a per-user *level table* groups
the registry's bits into one mask per distinct positive sigma(d, a),
highest first, so the impact is the first level whose mask meets that
delta. The LTS is only read: impacts travel in the report, which
renders them as its risk table on demand.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...dfd.model import SystemModel
from ...errors import AnalysisError
from ..actions import ActionType
from ..generation import GenerationOptions, ModelGenerator
from ..lts import LTS
from ..statevars import VariableRegistry
from .likelihood import LikelihoodModel
from .matrix import RiskMatrix
from .report import DisclosureRiskReport, RiskEvent


class DisclosureRiskAnalyzer:
    """Performs section III.A's risk analysis on a system model."""

    def __init__(self, system: SystemModel,
                 likelihood: Optional[LikelihoodModel] = None,
                 matrix: Optional[RiskMatrix] = None):
        self.system = system
        self.likelihood = likelihood if likelihood is not None \
            else LikelihoodModel.example()
        self.matrix = matrix if matrix is not None else RiskMatrix.example()

    # -- public API -------------------------------------------------------

    @staticmethod
    def configuration_key(likelihood: LikelihoodModel,
                          matrix: RiskMatrix) -> tuple:
        """Identity of an analyzer *configuration* (likelihood model
        and risk matrix). Combined with the model and user fingerprints
        it keys memoised disclosure reports — the batch engine's
        contract for "same inputs, reusable result"."""
        return (likelihood.cache_key(), matrix.cache_key())

    def cache_key(self) -> tuple:
        """This analyzer's :meth:`configuration_key`."""
        return self.configuration_key(self.likelihood, self.matrix)

    @staticmethod
    def default_options(system: SystemModel, user) -> GenerationOptions:
        """The generation the paper's method prescribes for ``user``:
        the agreed services, with potential reads for every non-allowed
        actor. Single source of truth for both direct analysis and the
        batch engine."""
        return GenerationOptions(
            services=tuple(user.agreed_services),
            include_potential_reads=True,
            potential_read_actors=frozenset(
                user.non_allowed_actors(system)),
        )

    def analyse(self, user, lts: Optional[LTS] = None,
                options: Optional[GenerationOptions] = None
                ) -> DisclosureRiskReport:
        """Analyse unwanted-disclosure risk for ``user``.

        When no ``lts`` is supplied, one is generated from the user's
        agreed services with potential reads for non-allowed actors
        (the configuration the paper's method prescribes); pass an LTS
        explicitly to analyse a custom generation.
        """
        if not user.agreed_services:
            raise AnalysisError(
                f"user {user.name!r} has not agreed to any service; "
                "disclosure analysis needs at least one agreed service"
            )
        allowed = user.allowed_actors(self.system)
        non_allowed = user.non_allowed_actors(self.system)
        if lts is None:
            lts = self._generate(user, options)

        levels = self._level_table(lts.registry, user, allowed)
        masks = lts.masks
        datastores = self.system.datastores
        # The paper attaches the risk *level* to reads by non-allowed
        # actors (other transitions keep their impact): their label rows.
        reads = {index for index, (label, _) in enumerate(lts.labels)
                 if label.action is ActionType.READ
                 and label.actor in non_allowed}
        impact_of: Dict[int, float] = {}  # few distinct deltas per model
        impacts: List[float] = []
        hits: List[Tuple[int, int, float]] = []  # (tid, label row, impact)
        for tid, (source, target, index) in enumerate(zip(
                lts.sources, lts.targets, lts.label_indices)):
            delta = masks[target] & ~masks[source]
            impact = impact_of.get(delta)
            if impact is None:
                impact = 0.0
                for level, mask in levels:
                    if delta & mask:
                        impact = level
                        break
                impact_of[delta] = impact
            impacts.append(impact)
            if index in reads:
                hits.append((tid, index, impact))
        # (label row, impact) -> (assessment, breakdown): reads of one
        # record by one actor repeat across interleavings.
        scored: Dict[tuple, tuple] = {}
        events = []
        for transition, (_, index, impact) in zip(
                lts.transitions_at([hit[0] for hit in hits]), hits):
            label = transition.label
            store = label.source if label.source in datastores else None
            pair = scored.get((index, impact))
            if pair is None:
                likelihood = self.likelihood.probability(
                    label.actor, store, label.fields)
                pair = scored[(index, impact)] = (
                    self.matrix.assess(impact, likelihood),
                    tuple(self.likelihood.breakdown(
                        label.actor, store, label.fields)))
            events.append(RiskEvent(
                transition=transition,
                actor=label.actor,
                fields=label.fields,
                store=store,
                assessment=pair[0],
                scenario_breakdown=pair[1],
            ))
        return DisclosureRiskReport(
            user_name=user.name,
            allowed_actors=allowed,
            non_allowed_actors=non_allowed,
            events=events,
            impacts=impacts,
        )

    @staticmethod
    def _level_table(registry: VariableRegistry, user, allowed
                     ) -> Tuple[Tuple[float, int], ...]:
        """The user's sigma(d, a) levels as ``(level, mask)`` pairs.

        One mask per distinct positive level, highest first, covering
        the has and could bits of every (actor, field) pair at that
        level. Allowed actors' pairs are at zero and so in no mask.
        """
        by_level: Dict[float, int] = {}
        sigma = user.sensitivity.sigma
        level_of: Dict[str, float] = {}  # sigma(d): per field, not pair
        for actor, field in registry.pairs:
            if actor in allowed:
                continue
            level = level_of.get(field)
            if level is None:
                level = level_of[field] = sigma(field)
            if level > 0.0:
                by_level[level] = by_level.get(level, 0) | \
                    registry.has_mask_of(actor, field) | \
                    registry.could_mask_of(actor, field)
        return tuple(sorted(by_level.items(), reverse=True))

    # -- steps -------------------------------------------------------------------

    def _generate(self, user, options):
        generator = ModelGenerator(self.system)
        if options is None:
            options = self.default_options(self.system, user)
        return generator.generate(options)


def analyse_disclosure(system: SystemModel, user,
                       likelihood: Optional[LikelihoodModel] = None,
                       matrix: Optional[RiskMatrix] = None
                       ) -> DisclosureRiskReport:
    """One-call variant of :class:`DisclosureRiskAnalyzer`."""
    return DisclosureRiskAnalyzer(system, likelihood, matrix).analyse(user)
