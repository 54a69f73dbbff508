"""Population-level disclosure risk analysis.

Section III: "risk analysis ... takes the user privacy control
requirements and annotates the model with their risk; hence there is
an instance for each user. The process can be executed with running
users of the system, or with simulated users in the development
phase." This module runs the per-user analysis across a population
(real profiles or :func:`repro.consent.simulate_users` output) and
aggregates: how many users face unacceptable risk, which actors and
fields drive it, and how the picture shifts between two designs.

Two evaluators produce the same :class:`PopulationReport`:

- :class:`PopulationAnalyzer` — the reference oracle: one
  :class:`~repro.core.risk.disclosure.DisclosureRiskAnalyzer` pass per
  user, full per-user :class:`DisclosureRiskReport`s retained.
- :class:`VectorizedPopulationAnalyzer` — the batch path: population
  size is a vector dimension, not a loop. Users compile to parallel
  integer rows of consent masks over the registry's dense
  (actor, field) pair index space (the same packed-int space
  ``StateCodec`` uses); each consent group's LTS compiles once into
  per-transition *disclosure masks* (the pair bits a READ by a
  non-allowed actor newly sets), and the batch pass ANDs disclosure
  masks against the consent rows, folds the surviving pairs to field
  masks, and scores every user against the handful of distinct
  (field mask, likelihood category) event keys instead of walking
  every transition's variables again. Outcomes, histograms, hot spots
  and fractions are byte-identical to the oracle (pinned by a
  hypothesis property test); per-user report *objects* are the one
  thing the batch path does not materialise.

**Composite privacy score.** On top of either pass the report carries
a decomposable LPS-style score (see :mod:`repro.core.risk.scores`):
every personal field gets three [0, 1] sub-scores —

- ``semantic``: intrinsic sensitivity from the field's
  :class:`~repro.schema.FieldKind` (identifier 1.0 > sensitive 0.9 >
  quasi-identifier 0.7 > regular 0.2; pseudonymised variants halved),
- ``uniqueness``: value rarity — the ``1/k`` k-anonymity proxy
  measured against a configured record population
  (:mod:`repro.anonymize.kanonymity`), kind-based priors without one,
- ``linkability``: the fraction of system actors the access policy
  grants read access to the field on some datastore —

combined as a weight-normalised sum under policy-controlled
:class:`~repro.core.risk.scores.ScoreWeights` (default semantic 0.5,
uniqueness 0.3, linkability 0.2). The report keeps the full per-field
breakdown (``field_scores``) next to the scalar ``composite_score``,
so a deployment can audit *why* a model scores what it scores.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..._util import ascii_table
from ...dfd.model import SystemModel
from ..actions import ActionType
from ..ltssource import LocalLtsSource, LtsSource
from .disclosure import DisclosureRiskAnalyzer
from .likelihood import LikelihoodModel
from .matrix import RiskLevel, RiskMatrix
from .report import DisclosureRiskReport
from .scores import (FieldScore, ScoreWeights, composite_score,
                     score_fields)


class UserOutcome(NamedTuple):
    """One user's aggregated verdict. A named tuple: the batch pass
    builds one per user, and a frozen dataclass costs twice as much
    to construct."""

    user_name: str
    max_level: RiskLevel
    unacceptable_events: int
    agreed_services: Tuple[str, ...]


class PopulationReport:
    """Aggregate of per-user disclosure outcomes.

    ``reports`` carries the full per-user
    :class:`DisclosureRiskReport`s when the looped oracle produced
    them; the vectorized path supplies precomputed ``hot_spot_counts``
    instead (same numbers, no per-user objects). ``field_scores`` and
    ``score_weights`` are the decomposable privacy-score breakdown
    (see the module docstring).
    """

    def __init__(self, outcomes: Sequence[UserOutcome],
                 reports: Sequence[DisclosureRiskReport],
                 skipped: Sequence[str],
                 hot_spot_counts: Optional[
                     Dict[Tuple[str, str], int]] = None,
                 field_scores: Sequence[FieldScore] = (),
                 score_weights: Optional[ScoreWeights] = None):
        self.outcomes = tuple(outcomes)
        self.reports = tuple(reports)
        self.skipped = tuple(skipped)
        """Users skipped because they agreed to no service."""
        self._hot_spot_counts = dict(hot_spot_counts) \
            if hot_spot_counts is not None else None
        self.field_scores = tuple(field_scores)
        self.score_weights = score_weights

    @property
    def analysed_count(self) -> int:
        return len(self.outcomes)

    def level_histogram(self) -> Dict[RiskLevel, int]:
        histogram = {level: 0 for level in RiskLevel}
        for outcome in self.outcomes:
            histogram[outcome.max_level] += 1
        return histogram

    def users_at_or_above(self, level) -> Tuple[UserOutcome, ...]:
        threshold = RiskLevel.from_name(level)
        return tuple(o for o in self.outcomes
                     if o.max_level >= threshold)

    @property
    def unacceptable_fraction(self) -> float:
        """Fraction of analysed users with at least one event above
        their personal acceptable risk level."""
        if not self.outcomes:
            return 0.0
        affected = sum(
            1 for o in self.outcomes if o.unacceptable_events > 0)
        return affected / len(self.outcomes)

    def hot_spots(self) -> Dict[Tuple[str, str], int]:
        """(actor, field) -> number of users with a risk event there.

        The designer's to-do list: the grants whose removal helps the
        most users.
        """
        if self._hot_spot_counts is not None:
            return dict(self._hot_spot_counts)
        spots: Dict[Tuple[str, str], int] = {}
        for report in self.reports:
            seen = set()
            for event in report.events:
                for field in event.fields:
                    seen.add((event.actor, field))
            for key in seen:
                spots[key] = spots.get(key, 0) + 1
        return spots

    @property
    def composite_score(self) -> float:
        """Model-level composite privacy score: the mean of the
        per-field composites (0.0 when unscored)."""
        return composite_score(self.field_scores)

    def summary_table(self) -> str:
        histogram = self.level_histogram()
        rows = [
            (level.value.upper(), count,
             f"{count / max(1, self.analysed_count):.0%}")
            for level, count in histogram.items()
        ]
        return ascii_table(("max risk", "users", "share"), rows)

    def score_table(self) -> str:
        """The per-field privacy-score breakdown as an ascii table."""
        headers = ("field", "semantic", "uniqueness", "linkability",
                   "composite")
        rows = [
            (score.field, f"{score.semantic:.3f}",
             f"{score.uniqueness:.3f}", f"{score.linkability:.3f}",
             f"{score.composite:.3f}")
            for score in self.field_scores
        ]
        if not rows:
            rows = [("-", "-", "-", "-", "-")]
        return ascii_table(headers, rows)

    def __repr__(self) -> str:
        return (
            f"PopulationReport(analysed={self.analysed_count}, "
            f"skipped={len(self.skipped)}, "
            f"unacceptable={self.unacceptable_fraction:.0%})"
        )


def _population_scores(system: SystemModel,
                       weights: Optional[ScoreWeights],
                       records) -> Tuple[Tuple[FieldScore, ...],
                                         ScoreWeights]:
    resolved = weights if weights is not None else ScoreWeights()
    return score_fields(system, resolved, records), resolved


class PopulationAnalyzer:
    """Runs the §III.A analysis per user and aggregates the outcomes.

    This is the *reference oracle*: a full
    :class:`DisclosureRiskAnalyzer` pass per user, retaining per-user
    reports. LTSs come from ``source`` (default: a
    :class:`~repro.core.ltssource.LocalLtsSource` of its own), which
    generates each distinct consent combination once, so a
    Westin-style population with a handful of them costs a handful of
    generations, not one per user — but the per-user analysis itself
    still loops. Use :class:`VectorizedPopulationAnalyzer` for large
    populations.
    """

    def __init__(self, system: SystemModel,
                 likelihood: Optional[LikelihoodModel] = None,
                 matrix: Optional[RiskMatrix] = None,
                 weights: Optional[ScoreWeights] = None,
                 records: Optional[Sequence] = None,
                 source: Optional[LtsSource] = None):
        self.system = system
        self._analyzer = DisclosureRiskAnalyzer(system, likelihood,
                                                matrix)
        self._lts_source = source if source is not None \
            else LocalLtsSource()
        self._weights = weights
        self._records = records

    def analyse(self, users: Sequence) -> PopulationReport:
        outcomes: List[UserOutcome] = []
        reports: List[DisclosureRiskReport] = []
        skipped: List[str] = []
        for user in users:
            if not user.agreed_services:
                skipped.append(user.name)
                continue
            report = self._analyzer.analyse(
                user, lts=self._lts_source.lts_for(
                    self.system, DisclosureRiskAnalyzer.default_options(
                        self.system, user)))
            reports.append(report)
            outcomes.append(UserOutcome(
                user_name=user.name,
                max_level=report.max_level,
                unacceptable_events=len(report.unacceptable_for(user)),
                agreed_services=tuple(user.agreed_services),
            ))
        field_scores, weights = _population_scores(
            self.system, self._weights, self._records)
        return PopulationReport(outcomes, reports, skipped,
                                field_scores=field_scores,
                                score_weights=weights)


class _GroupPlan:
    """The compiled batch-evaluation plan of one consent group.

    Everything user-independent is precomputed here once per distinct
    agreed-service set: the transition disclosure masks (already ANDed
    with the group's consent mask and folded to field-bit masks), the
    deduplicated (field mask, likelihood category) event keys with
    multiplicities, and the hot-spot (actor, field) pairs every group
    member contributes to.
    """

    __slots__ = ("event_counts", "hot_pairs", "fields_by_bit")

    def __init__(self, event_counts: Dict[Tuple[int, RiskLevel], int],
                 hot_pairs: frozenset,
                 fields_by_bit: Tuple[str, ...]):
        self.event_counts = event_counts
        self.hot_pairs = hot_pairs
        self.fields_by_bit = fields_by_bit


class VectorizedPopulationAnalyzer:
    """The batch population evaluator (see the module docstring).

    Produces outcomes byte-identical to :class:`PopulationAnalyzer`:
    same :class:`UserOutcome` rows in the same order, same histogram,
    hot spots, unacceptable fraction and skipped list. Per-user
    :class:`DisclosureRiskReport` objects are not materialised — the
    report's ``hot_spots()`` comes precomputed instead.

    Why identical: within one consent group the LTS, the non-allowed
    actor set and every event's likelihood are user-independent; the
    only per-user quantities are sigma(d) lookups, the acceptable-risk
    threshold, and the float ``max`` over each event's surviving
    sensitivities — the exact computation the per-user analyzer does,
    over the exact same value sets.

    Each group's LTS comes from ``source`` (default: a
    :class:`~repro.core.ltssource.LocalLtsSource` of its own; the
    batch engine passes its memo).
    """

    def __init__(self, system: SystemModel,
                 likelihood: Optional[LikelihoodModel] = None,
                 matrix: Optional[RiskMatrix] = None,
                 weights: Optional[ScoreWeights] = None,
                 records: Optional[Sequence] = None,
                 source: Optional[LtsSource] = None):
        self.system = system
        self.likelihood = likelihood if likelihood is not None \
            else LikelihoodModel.example()
        self.matrix = matrix if matrix is not None \
            else RiskMatrix.example()
        self._weights = weights
        self._records = records
        self._lts_source = source if source is not None \
            else LocalLtsSource()
        self._plans: Dict[Tuple[str, ...], _GroupPlan] = {}
        self._compiler = None

    def analyse(self, users: Sequence) -> PopulationReport:
        groups: Dict[Tuple[str, ...], List[Tuple[int, object]]] = {}
        skipped: List[str] = []
        analysed = 0
        for index, user in enumerate(users):
            agreed = tuple(user.agreed_services)
            if not agreed:
                skipped.append(user.name)
                continue
            analysed += 1
            groups.setdefault(agreed, []).append((index, user))

        outcomes_by_index: Dict[int, UserOutcome] = {}
        hot_spot_counts: Dict[Tuple[str, str], int] = {}
        for agreed, members in groups.items():
            plan = self._plan_for(agreed, members[0][1])
            self._evaluate_group(plan, agreed, members, outcomes_by_index)
            for pair in plan.hot_pairs:
                hot_spot_counts[pair] = \
                    hot_spot_counts.get(pair, 0) + len(members)

        outcomes = [outcomes_by_index[index]
                    for index in sorted(outcomes_by_index)]
        assert len(outcomes) == analysed
        field_scores, weights = _population_scores(
            self.system, self._weights, self._records)
        return PopulationReport(outcomes, (), skipped,
                                hot_spot_counts=hot_spot_counts,
                                field_scores=field_scores,
                                score_weights=weights)

    # -- plan compilation ---------------------------------------------------

    def _plan_for(self, agreed: Tuple[str, ...], representative
                  ) -> _GroupPlan:
        plan = self._plans.get(agreed)
        if plan is None:
            plan = self._compile_plan(agreed, representative)
            self._plans[agreed] = plan
        return plan

    def _compile_plan(self, agreed: Tuple[str, ...], representative
                      ) -> _GroupPlan:
        from ...consent.personas import ConsentMaskCompiler

        options = DisclosureRiskAnalyzer.default_options(
            self.system, representative)
        non_allowed = options.potential_read_actors
        lts = self._lts_source.lts_for(self.system, options)
        registry = lts.registry
        if self._compiler is None:
            self._compiler = ConsentMaskCompiler(self.system, registry)
        consent_mask = self._compiler.non_allowed_mask(agreed)

        lik_banding = self.matrix.likelihood_banding
        event_counts: Dict[Tuple[int, RiskLevel], int] = {}
        hot_pairs = set()
        field_mask_by_delta: Dict[int, int] = {}
        state = lts.state
        for transition in lts.transitions:
            label = transition.label
            if label.action is not ActionType.READ or \
                    label.actor not in non_allowed:
                continue
            delta = state(transition.target).vector.mask & \
                ~state(transition.source).vector.mask
            field_mask = field_mask_by_delta.get(delta)
            if field_mask is None:
                field_mask = self._compiler.project_fields(
                    self._pair_mask(delta) & consent_mask)
                field_mask_by_delta[delta] = field_mask
            store = label.source \
                if label.source in self.system.datastores else None
            likelihood = self.likelihood.probability(
                label.actor, store, label.fields)
            key = (field_mask, lik_banding.categorize(likelihood))
            event_counts[key] = event_counts.get(key, 0) + 1
            for field in label.fields:
                hot_pairs.add((label.actor, field))
        return _GroupPlan(event_counts, frozenset(hot_pairs),
                          registry.fields)

    @staticmethod
    def _pair_mask(var_mask: int) -> int:
        """Project a HAS/COULD variable bit mask to its (actor, field)
        pair mask. The registry assigns bits pair-major — HAS at
        ``2 * pair_index``, COULD at ``2 * pair_index + 1`` — so each
        variable bit folds to pair bit ``bit >> 1``."""
        pairs = 0
        while var_mask:
            low = var_mask & -var_mask
            pairs |= 1 << ((low.bit_length() - 1) >> 1)
            var_mask ^= low
        return pairs

    # -- the batch pass -----------------------------------------------------

    def _evaluate_group(self, plan: _GroupPlan, agreed: Tuple[str, ...],
                        members,
                        outcomes_by_index: Dict[int, UserOutcome]
                        ) -> None:
        impact_banding = self.matrix.impact_banding
        matrix_level = self.matrix.level
        fields_by_bit = plan.fields_by_bit
        ranks = {level: level.rank for level in RiskLevel}
        by_rank = {rank: level for level, rank in ranks.items()}
        # Each event key's field names, unpacked from its mask once per
        # group rather than once per user.
        events = tuple(
            (tuple(field for bit, field in enumerate(fields_by_bit)
                   if field_mask >> bit & 1), lik_cat, count)
            for (field_mask, lik_cat), count in plan.event_counts.items())
        for index, user in members:
            sigma = user.sensitivity.sigma
            acceptable = ranks[user.acceptable_risk]
            max_rank = unacceptable = 0
            for fields, lik_cat, count in events:
                rank = ranks[matrix_level(impact_banding.categorize(
                    max((0.0, *map(sigma, fields)))), lik_cat)]
                if rank > max_rank:
                    max_rank = rank
                if rank > acceptable:
                    unacceptable += count
            outcomes_by_index[index] = UserOutcome(
                user_name=user.name,
                max_level=by_rank[max_rank],
                unacceptable_events=unacceptable,
                agreed_services=agreed,
            )


def analyse_population(system: SystemModel, users: Sequence,
                       likelihood: Optional[LikelihoodModel] = None,
                       matrix: Optional[RiskMatrix] = None,
                       weights: Optional[ScoreWeights] = None,
                       records: Optional[Sequence] = None,
                       vectorized: bool = True) -> PopulationReport:
    """One-call population analysis (batch pass by default)."""
    cls = VectorizedPopulationAnalyzer if vectorized \
        else PopulationAnalyzer
    return cls(system, likelihood, matrix, weights=weights,
               records=records).analyse(users)
