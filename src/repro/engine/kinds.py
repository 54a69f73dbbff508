"""The analysis-kind registry: the engine's typed job taxonomy.

The paper's method is more than disclosure detection — it prescribes
pseudonymisation checks (III.B), consent-change what-ifs and
re-identification exposure (V). Each of those is an
:class:`AnalysisKind` here: a stateless strategy object declaring

- its **analyzer-stage cache key** (which parts of the engine
  configuration its outcome depends on),
- its **default generation options** (what LTS it wants, if any),
- how to **analyse** one job into a flat, picklable outcome, reading
  every LTS from the :class:`~repro.core.ltssource.LtsSource` it is
  handed, and
- how to **aggregate** its results at fleet level.

Kinds are module-level singletons registered by name, so they pickle
by reference and cross the process-backend boundary for free. The
shared engine configuration travels as one :class:`AnalyzerConfig`
value object; each kind pulls only the slice it declared in its
``analyzer_key`` — which is precisely why a likelihood-model tweak
re-keys disclosure jobs but leaves cached pseudonymisation results
valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, ClassVar, Dict, Mapping, NamedTuple,
                    Optional, Sequence, Tuple)

from ..consent.personas import simulate_users
from ..core import GenerationOptions, LtsSource
from ..core.lts import LTS
from ..core.risk import (
    DisclosureRiskAnalyzer,
    LikelihoodModel,
    PseudonymisationRiskAnalyzer,
    ReidentificationAnnotator,
    RiskLevel,
    RiskMatrix,
    analyse_consent_change,
)
from ..core.risk.population import (PopulationAnalyzer,
                                    VectorizedPopulationAnalyzer)
from ..core.risk.pseudonym import default_policy_for
from ..core.risk.scores import ScoreWeights
from ..core.risk.valuerisk import ValueRiskPolicy
from ..datastore import Record
from ..errors import AnalysisError
from ..schema import anon_name
from .jobs import AnalysisJob, RiskEventSummary, summarize_events


def dataset_key(records: Optional[Sequence[Record]]
                ) -> Optional[Tuple[tuple, ...]]:
    """A stable, JSON-encodable identity for a released dataset.

    Record values may be rich objects (e.g. generalisation intervals),
    so values key by ``repr``; records sort by their canonical form so
    load order is irrelevant.
    """
    if records is None:
        return None
    return tuple(sorted(
        tuple(sorted((name, repr(record[name])) for name in record))
        for record in records
    ))


@dataclass(frozen=True)
class AnalyzerConfig:
    """The engine-level analyzer configuration shared by every job.

    One picklable value object covering all kinds; each kind's
    ``analyzer_key`` names the slice it actually reads, so unrelated
    settings never invalidate a kind's cached results.

    ``likelihood``/``matrix`` drive disclosure and consent-change
    assessment; ``value_policy`` the pseudonymisation inference check
    (derived per-model when None); ``dataset``/``population``/
    ``record_field_map``/``reid_threshold`` the data-backed scoring of
    the pseudonym and reidentify kinds (both stay useful without data:
    unscored risk transitions, empty findings).
    """

    likelihood: LikelihoodModel
    matrix: RiskMatrix
    value_policy: Optional[ValueRiskPolicy] = None
    dataset: Optional[Tuple[Record, ...]] = None
    population: Optional[Tuple[Record, ...]] = None
    record_field_map: Optional[Tuple[Tuple[str, str], ...]] = None
    reid_threshold: float = 0.5

    @classmethod
    def build(cls, likelihood: Optional[LikelihoodModel] = None,
              matrix: Optional[RiskMatrix] = None,
              value_policy: Optional[ValueRiskPolicy] = None,
              dataset: Optional[Sequence[Record]] = None,
              population: Optional[Sequence[Record]] = None,
              record_field_map: Optional[Mapping[str, str]] = None,
              reid_threshold: float = 0.5) -> "AnalyzerConfig":
        """Normalise user-facing inputs (example defaults, tuples)."""
        return cls(
            likelihood=likelihood if likelihood is not None
            else LikelihoodModel.example(),
            matrix=matrix if matrix is not None else RiskMatrix.example(),
            value_policy=value_policy,
            dataset=tuple(dataset) if dataset is not None else None,
            population=tuple(population)
            if population is not None else None,
            record_field_map=tuple(sorted(record_field_map.items()))
            if record_field_map is not None else None,
            reid_threshold=reid_threshold,
        )

    def field_map(self) -> Optional[Dict[str, str]]:
        return dict(self.record_field_map) \
            if self.record_field_map is not None else None


class KindOutcome(NamedTuple):
    """What one kind's ``analyse`` produces for one job.

    ``lts`` names the LTS whose state and transition counts the job
    reports: the LTS the kind analysed (for the pseudonym kind, its
    fork holding the injected risk transitions). None reports 0 for
    both — the kinds that read several LTSs (consent_change,
    population) or none (taint).
    """

    max_level: str
    events: Tuple[RiskEventSummary, ...]
    non_allowed_actors: Tuple[str, ...]
    details: Tuple[Tuple[str, Any], ...]
    lts: Optional[LTS] = None


class AnalysisKind:
    """One entry of the analysis-kind registry.

    Subclasses are stateless: all configuration arrives through the
    :class:`AnalyzerConfig` and the job's ``params``.
    """

    #: Registry name; the value of :attr:`AnalysisJob.kind`.
    name: ClassVar[str] = ""
    #: Whether a clean taint certificate proves this kind's outcome is
    #: zero-event, letting ``BatchEngine.run(screen=True)`` skip exact
    #: generation. Only sound for kinds whose events are exactly the
    #: READ-by-non-allowed-actor transitions the closure bounds.
    screenable: ClassVar[bool] = False

    def analyzer_key(self, config: AnalyzerConfig) -> tuple:
        """The slice of ``config`` this kind's outcome depends on —
        the kind's contribution to the analyzer-stage fingerprint."""
        raise NotImplementedError

    def default_options(self, job: AnalysisJob
                        ) -> Optional[GenerationOptions]:
        """The generation this kind wants when the job names none
        (None for kinds that read several LTSs, or none)."""
        raise NotImplementedError

    def options_of(self, job: AnalysisJob
                   ) -> Optional[GenerationOptions]:
        """The job's own generation: explicit options win, else the
        kind's default."""
        return job.options if job.options is not None \
            else self.default_options(job)

    def analyse(self, job: AnalysisJob, source: LtsSource,
                config: AnalyzerConfig) -> KindOutcome:
        """Run the analysis, reading each LTS it needs from
        ``source``. Those LTSs are frozen and may be shared with other
        jobs and threads: a kind that adds to one analyses a
        :meth:`~repro.core.lts.LTS.fork`."""
        raise NotImplementedError

    def screen_outcome(self, job: AnalysisJob,
                       config: AnalyzerConfig) -> Optional[KindOutcome]:
        """A statically-provable outcome for ``job``, or None.

        The per-kind clean predicate behind ``BatchEngine.run(
        screen=True)`` for kinds that are not certificate-screenable:
        return the exact :class:`KindOutcome` that ``analyse`` would
        produce when that is decidable *without generating the LTS*
        (e.g. the pseudonym kind's applicability test), else None to
        run exact analysis. Must only return outcomes that are provably
        identical to the exact analyser's — the engine serves them as
        real results (never cached, mirroring certificate screens).
        """
        return None

    def aggregate(self, results: Sequence) -> Dict[str, Any]:
        """Fleet-level rollup of this kind's results (hook for
        :class:`~repro.engine.aggregate.FleetReport`)."""
        worst = max((r.level for r in results), default=RiskLevel.NONE)
        return {"jobs": len(results), "max_level": worst.value}


class DisclosureKind(AnalysisKind):
    """Unwanted-disclosure analysis (paper III.A) — the original job."""

    name = "disclosure"
    screenable = True

    def analyzer_key(self, config: AnalyzerConfig) -> tuple:
        return ("disclosure",
                DisclosureRiskAnalyzer.configuration_key(
                    config.likelihood, config.matrix))

    def default_options(self, job: AnalysisJob) -> GenerationOptions:
        return DisclosureRiskAnalyzer.default_options(job.system,
                                                      job.user)

    def analyse(self, job: AnalysisJob, source: LtsSource,
                config: AnalyzerConfig) -> KindOutcome:
        lts = source.lts_for(job.system, self.options_of(job))
        analyzer = DisclosureRiskAnalyzer(
            job.system, config.likelihood, config.matrix)
        report = analyzer.analyse(job.user, lts=lts)
        return KindOutcome(
            max_level=report.max_level.value,
            events=summarize_events(report),
            non_allowed_actors=report.non_allowed_actors,
            details=(),
            lts=lts,
        )

    def aggregate(self, results: Sequence) -> Dict[str, Any]:
        rollup = super().aggregate(results)
        rollup["events"] = sum(len(r.events) for r in results)
        screened = sum(1 for r in results if r.detail("screened"))
        if screened:
            rollup["screened"] = screened
        return rollup


class TaintKind(AnalysisKind):
    """Static taint pre-screen (ROADMAP item 4) — triage before
    state-space search.

    A sound over-approximation on the DFD graph: no LTS, no state
    explosion, an instant answer to "can field F ever reach actor A".
    ``max_level`` is a triage verdict, not an exact assessment:
    ``none`` when the closure *proves* the disclosure analyzer would
    report zero events for this user, ``low`` when the model is
    flagged for exact analysis. Shares its default generation options
    with the disclosure kind so the certificate it caches is exactly
    the one ``BatchEngine.run(screen=True)`` consults.
    """

    name = "taint"

    #: How many flagged pairs / witness steps the job details carry.
    DETAIL_LIMIT = 8

    def analyzer_key(self, config: AnalyzerConfig) -> tuple:
        from ..taint import CERT_FORMAT
        return ("taint", CERT_FORMAT)

    def default_options(self, job: AnalysisJob) -> GenerationOptions:
        return DisclosureRiskAnalyzer.default_options(job.system,
                                                      job.user)

    def analyse(self, job: AnalysisJob, source: LtsSource,
                config: AnalyzerConfig) -> KindOutcome:
        # Reads no LTS; the engine's source carries the model's hash.
        from ..taint import certificate_from_report, compute_taint
        report = compute_taint(job.system, self.options_of(job))
        certificate = certificate_from_report(
            report, job.system, source.model_fp)
        non_allowed = tuple(sorted(
            job.user.non_allowed_actors(job.system)))
        clean = certificate.clean_for(non_allowed)
        flagged = tuple(
            (actor,
             tuple(sorted(report.potential_read_fields.get(
                 actor, frozenset()) |
                 report.flow_read_fields.get(actor, frozenset()))))
            for actor in report.flagged_actors()
            if actor in non_allowed)[:self.DETAIL_LIMIT]
        witnesses = tuple(
            (field_name, actor,
             report.witness_path(field_name, actor))
            for actor, fields in flagged for field_name in fields[:1]
        )[:self.DETAIL_LIMIT]
        level = RiskLevel.NONE if clean else RiskLevel.LOW
        return KindOutcome(
            max_level=level.value, events=(),
            non_allowed_actors=non_allowed,
            details=(
                ("clean", clean),
                ("tracked_atoms", len(certificate.tracked_atoms)),
                ("blockers", certificate.blockers),
                ("flagged", flagged),
                ("witnesses", witnesses),
                ("certificate", certificate.fingerprint()),
            ))

    def aggregate(self, results: Sequence) -> Dict[str, Any]:
        rollup = super().aggregate(results)
        rollup["clean"] = sum(
            1 for r in results if r.detail("clean"))
        rollup["flagged"] = sum(
            1 for r in results if not r.detail("clean"))
        return rollup


class PseudonymKind(AnalysisKind):
    """Pseudonymisation value-inference risk (paper III.B, Fig. 4).

    Injects the dotted risk transitions into a fork of the job's
    shared LTS and scores them against the configured dataset
    (unscored without one); the job's state and transition counts
    include the injected ones. On models that pseudonymise nothing
    the outcome is a no-op marked ``applicable=False`` rather than an
    error, so mixed fleets roll up cleanly.

    Triage mapping (engine-level, not paper semantics): ``high`` when
    any scored risk violates for at least half its records, ``medium``
    on any violation, ``low`` when risk transitions exist, ``none``
    otherwise.
    """

    name = "pseudonym"

    def analyzer_key(self, config: AnalyzerConfig) -> tuple:
        return ("pseudonym",
                config.value_policy.cache_key()
                if config.value_policy is not None else None,
                dataset_key(config.dataset),
                config.record_field_map)

    def default_options(self, job: AnalysisJob) -> GenerationOptions:
        # All services: the release flows that move pseudonymised data
        # are usually outside the user's agreed set.
        return GenerationOptions()

    def _policy(self, job: AnalysisJob,
                config: AnalyzerConfig) -> Optional[ValueRiskPolicy]:
        if config.value_policy is not None:
            return config.value_policy
        return default_policy_for(job.system)

    def screen_outcome(self, job: AnalysisJob,
                       config: AnalyzerConfig) -> Optional[KindOutcome]:
        """The exact not-applicable outcome, decided without an LTS.

        ``analyse`` tests applicability against ``lts.registry.fields``,
        and the generator seeds that registry verbatim from
        ``system.personal_fields()`` — so the test is a pure function
        of the model and this screen is sound: when the pseudonymised
        sensitive field is not in the field universe, exact analysis
        provably returns the same no-op outcome built here.
        """
        policy = self._policy(job, config)
        if policy is None or \
                anon_name(policy.sensitive_field) not in \
                job.system.personal_fields():
            return KindOutcome(
                max_level=RiskLevel.NONE.value, events=(),
                non_allowed_actors=(),
                details=(("applicable", False),))
        return None

    def analyse(self, job: AnalysisJob, source: LtsSource,
                config: AnalyzerConfig) -> KindOutcome:
        lts = source.lts_for(job.system, self.options_of(job))
        policy = self._policy(job, config)
        applicable = (
            policy is not None
            and anon_name(policy.sensitive_field) in lts.registry.fields
        )
        if not applicable:
            return KindOutcome(
                max_level=RiskLevel.NONE.value, events=(),
                non_allowed_actors=(),
                details=(("applicable", False),), lts=lts)
        analyzer = PseudonymisationRiskAnalyzer(
            job.system, policy, dataset=config.dataset,
            record_field_map=config.field_map())
        fork = lts.fork()
        risks = analyzer.annotate(fork)
        scored = [r for r in risks if r.result is not None]
        violations = sum(r.result.violations for r in scored)
        worst_fraction = max(
            (r.result.violation_fraction for r in scored), default=0.0)
        if not risks:
            level = RiskLevel.NONE
        elif worst_fraction >= 0.5:
            level = RiskLevel.HIGH
        elif violations:
            level = RiskLevel.MEDIUM
        else:
            level = RiskLevel.LOW
        return KindOutcome(
            max_level=level.value, events=(), non_allowed_actors=(),
            details=(
                ("applicable", True),
                ("sensitive_field", policy.sensitive_field),
                ("risks", len(risks)),
                ("scored", len(scored)),
                ("violations", violations),
                ("worst_fraction", round(worst_fraction, 6)),
                ("paths", tuple(r.summary_tuple() for r in risks)),
            ),
            lts=fork)

    def aggregate(self, results: Sequence) -> Dict[str, Any]:
        rollup = super().aggregate(results)
        rollup["applicable"] = sum(
            1 for r in results if r.detail("applicable"))
        rollup["risks"] = sum(r.detail("risks", 0) for r in results)
        rollup["violations"] = sum(
            r.detail("violations", 0) for r in results)
        screened = sum(1 for r in results if r.detail("screened"))
        if screened:
            rollup["screened"] = screened
        return rollup


class ConsentChangeKind(AnalysisKind):
    """Consent-change what-if (the lifetime-monitoring motivation).

    ``params`` carry ``agree``/``withdraw`` service lists; absent
    both, the default what-if withdraws the user's first agreed
    service — the most common real change. The outcome's ``max_level``
    is the *post-change* risk (the answer the what-if asks for);
    before/after levels travel in the details.

    Both sides' LTSs come from the engine's LTS source, so the
    "before" side is the very LTS the user's disclosure job reads. The
    job reports 0 states and transitions: it reads up to two LTSs.
    """

    name = "consent_change"

    def analyzer_key(self, config: AnalyzerConfig) -> tuple:
        return ("consent_change",
                DisclosureRiskAnalyzer.configuration_key(
                    config.likelihood, config.matrix))

    def default_options(self, job: AnalysisJob) -> None:
        return None

    @staticmethod
    def change_of(job: AnalysisJob) -> Tuple[Tuple[str, ...],
                                             Tuple[str, ...]]:
        """The (agree, withdraw) service lists of a job."""
        params = job.params or {}
        agree = tuple(params.get("agree", ()))
        withdraw = tuple(params.get("withdraw", ()))
        if not agree and not withdraw:
            if not job.user.agreed_services:
                raise AnalysisError(
                    f"user {job.user.name!r} has no agreed services "
                    "and the job names no consent change to analyse")
            withdraw = (job.user.agreed_services[0],)
        return agree, withdraw

    def analyse(self, job: AnalysisJob, source: LtsSource,
                config: AnalyzerConfig) -> KindOutcome:
        agree, withdraw = self.change_of(job)
        report = analyse_consent_change(
            job.system, job.user, agree=agree, withdraw=withdraw,
            likelihood=config.likelihood, matrix=config.matrix,
            source=source)
        after_events = summarize_events(report.after) \
            if report.after is not None else ()
        return KindOutcome(
            max_level=report.after_level.value,
            events=after_events,
            non_allowed_actors=report.after.non_allowed_actors
            if report.after is not None else (),
            details=(
                ("agree", agree),
                ("withdraw", withdraw),
                ("before_level", report.before_level.value),
                ("after_level", report.after_level.value),
                ("risk_increases", report.risk_increases),
                ("newly_allowed", report.newly_allowed_actors),
                ("newly_non_allowed",
                 report.newly_non_allowed_actors),
            ))

    def aggregate(self, results: Sequence) -> Dict[str, Any]:
        rollup = super().aggregate(results)
        rollup["risk_increases"] = sum(
            1 for r in results if r.detail("risk_increases"))
        return rollup


class ReidentifyKind(AnalysisKind):
    """Re-identification exposure of pseudonymised reads (paper V).

    Scores every anon-field read in the LTS under the prosecutor /
    journalist / marketer attacker models against the configured
    released dataset. Without a dataset the kind degrades to an empty,
    explicitly-unscored outcome. Triage mapping: worst attacker risk
    at or above the configured threshold is ``high``, at or above half
    of it ``medium``, any finding ``low``.
    """

    name = "reidentify"

    def analyzer_key(self, config: AnalyzerConfig) -> tuple:
        return ("reidentify",
                dataset_key(config.dataset),
                dataset_key(config.population),
                config.record_field_map,
                config.reid_threshold)

    def default_options(self, job: AnalysisJob) -> GenerationOptions:
        return GenerationOptions()

    def analyse(self, job: AnalysisJob, source: LtsSource,
                config: AnalyzerConfig) -> KindOutcome:
        lts = source.lts_for(job.system, self.options_of(job))
        if config.dataset is None:
            return KindOutcome(
                max_level=RiskLevel.NONE.value, events=(),
                non_allowed_actors=(),
                details=(("scored", False), ("findings", 0)), lts=lts)
        annotator = ReidentificationAnnotator(
            config.dataset, population=config.population,
            record_field_map=config.field_map(),
            threshold=config.reid_threshold)
        findings = annotator.annotate(lts)
        worst = max((f.worst_risk for f in findings), default=0.0)
        if not findings:
            level = RiskLevel.NONE
        elif worst >= config.reid_threshold:
            level = RiskLevel.HIGH
        elif worst >= config.reid_threshold / 2:
            level = RiskLevel.MEDIUM
        else:
            level = RiskLevel.LOW
        return KindOutcome(
            max_level=level.value, events=(), non_allowed_actors=(),
            details=(
                ("scored", True),
                ("findings", len(findings)),
                ("worst_risk", round(worst, 6)),
                ("paths", tuple(f.summary_tuple() for f in findings)),
            ),
            lts=lts)

    def aggregate(self, results: Sequence) -> Dict[str, Any]:
        rollup = super().aggregate(results)
        rollup["findings"] = sum(
            r.detail("findings", 0) for r in results)
        rollup["worst_risk"] = max(
            (r.detail("worst_risk", 0.0) for r in results),
            default=0.0)
        return rollup


class PopulationKind(AnalysisKind):
    """Population-level disclosure outcomes (paper III).

    The paper's analysis "can be executed with running users of the
    system, or with simulated users in the development phase"; this
    kind evaluates a seed-deterministic Westin-persona population
    drawn against the model's own schemas and services through
    :class:`~repro.core.risk.population.VectorizedPopulationAnalyzer`
    — the batch mask pass whose outcomes are byte-identical to the
    per-user :class:`~repro.core.risk.population.PopulationAnalyzer`
    loop (the retained reference oracle; flip :attr:`implementation`
    to ``"looped"`` to run it). ``params`` take ``count`` (population
    size, default 24), ``seed`` (persona stream, default 0) and
    ``weights`` (composite privacy-score weight mapping with keys
    among ``semantic``/``uniqueness``/``linkability``); the job's user
    joins the population when it has agreed to at least one service,
    so one request answers both "how exposed am I" and "how exposed is
    everyone like me".

    Each consent group's LTS comes from the engine's LTS source (one
    per distinct agreed-service set), so a group whose LTS a disclosure
    job or an earlier population job already generated costs a memo
    hit; the job reports 0 states and transitions. Outcome
    ``max_level`` is the worst user's maximum risk; the details carry
    the histogram, the unacceptable fraction, the hot-spot grants
    whose removal would help the most users, and the decomposable
    privacy-score breakdown (per-field
    semantic/uniqueness/linkability sub-scores and their weighted
    composite — see :mod:`repro.core.risk.scores`).
    """

    name = "population"

    #: Which evaluator runs the population: ``"vectorized"`` (the
    #: batch mask pass) or ``"looped"`` (the per-user reference
    #: oracle). A class attribute, deliberately *not* a job param:
    #: both paths are pinned byte-identical, so the choice must not
    #: fork cache identities or signatures.
    implementation: ClassVar[str] = "vectorized"

    #: Default simulated population size per job.
    DEFAULT_COUNT = 24
    #: Upper bound on one job's population — params are wire-reachable
    #: through the service, and a single request must not be able to
    #: wedge a server with an arbitrarily large simulation.
    MAX_COUNT = 100_000
    #: Hot-spot grants reported per job.
    HOT_SPOT_LIMIT = 5

    def analyzer_key(self, config: AnalyzerConfig) -> tuple:
        # The trailing 2 versions this kind's result payload: score
        # details were added to population outcomes, so pre-score disk
        # cache entries must not satisfy post-score lookups. The
        # record population feeds the uniqueness sub-score.
        return ("population", 2,
                DisclosureRiskAnalyzer.configuration_key(
                    config.likelihood, config.matrix),
                dataset_key(config.population))

    def default_options(self, job: AnalysisJob) -> None:
        return None

    @classmethod
    def population_of(cls, job: AnalysisJob) -> list:
        """The job's user population: params-drawn simulated users,
        led by the requesting profile when it holds any consent."""
        params = job.params or {}
        count = params.get("count", cls.DEFAULT_COUNT)
        seed = params.get("seed", 0)
        if not isinstance(count, int) or isinstance(count, bool) \
                or count < 0 or count > cls.MAX_COUNT:
            raise AnalysisError(
                f"population count must be an integer in "
                f"[0, {cls.MAX_COUNT}], got {count!r}")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise AnalysisError(
                f"population seed must be an integer, got {seed!r}")
        fields = [field
                  for _, schema in sorted(job.system.schemas.items())
                  for field in schema]
        services = sorted(job.system.services)
        users = simulate_users(count, fields, services, seed=seed)
        if job.user.agreed_services:
            users.insert(0, job.user)
        return users

    @staticmethod
    def weights_of(job: AnalysisJob) -> ScoreWeights:
        """The job's composite-score weight policy (validated; the
        default policy when the params name none)."""
        params = job.params or {}
        return ScoreWeights.from_params(params.get("weights"))

    def analyse(self, job: AnalysisJob, source: LtsSource,
                config: AnalyzerConfig) -> KindOutcome:
        weights = self.weights_of(job)
        if self.implementation == "vectorized":
            analyzer_cls = VectorizedPopulationAnalyzer
        elif self.implementation == "looped":
            analyzer_cls = PopulationAnalyzer
        else:
            raise AnalysisError(
                f"unknown population implementation "
                f"{self.implementation!r}")
        analyzer = analyzer_cls(
            job.system, config.likelihood, config.matrix,
            weights=weights, records=config.population, source=source)
        report = analyzer.analyse(self.population_of(job))
        worst = max((o.max_level for o in report.outcomes),
                    default=RiskLevel.NONE)
        histogram = tuple(
            (level.value, count)
            for level, count in report.level_histogram().items())
        hot_spots = tuple(sorted(
            report.hot_spots().items(),
            key=lambda item: (-item[1], item[0]),
        ))[:self.HOT_SPOT_LIMIT]
        return KindOutcome(
            max_level=worst.value, events=(), non_allowed_actors=(),
            details=(
                ("analysed", report.analysed_count),
                ("skipped", len(report.skipped)),
                ("unacceptable_fraction",
                 round(report.unacceptable_fraction, 6)),
                ("histogram", histogram),
                ("hot_spots", tuple(
                    (actor, field, count)
                    for (actor, field), count in hot_spots)),
                ("privacy_score", round(report.composite_score, 6)),
                ("score_weights", weights.items()),
                ("field_scores", tuple(
                    score.summary_tuple()
                    for score in report.field_scores)),
            ))

    def aggregate(self, results: Sequence) -> Dict[str, Any]:
        rollup = super().aggregate(results)
        rollup["users"] = sum(
            r.detail("analysed", 0) for r in results)
        rollup["skipped"] = sum(
            r.detail("skipped", 0) for r in results)
        rollup["worst_unacceptable_fraction"] = max(
            (r.detail("unacceptable_fraction", 0.0) for r in results),
            default=0.0)
        scores = [r.detail("privacy_score") for r in results
                  if r.detail("privacy_score") is not None]
        rollup["mean_privacy_score"] = round(
            sum(scores) / len(scores), 6) if scores else 0.0
        return rollup


# -- the registry -------------------------------------------------------------

_REGISTRY: Dict[str, AnalysisKind] = {}


def register_kind(kind: AnalysisKind) -> AnalysisKind:
    """Add a kind to the registry (last registration wins)."""
    if not kind.name:
        raise ValueError("analysis kinds must declare a name")
    _REGISTRY[kind.name] = kind
    return kind


def get_kind(name: str) -> AnalysisKind:
    """The registered kind called ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown analysis kind {name!r}; registered kinds: "
            f"{sorted(_REGISTRY)}") from None


def kind_names() -> Tuple[str, ...]:
    """The registered kind names, sorted."""
    return tuple(sorted(_REGISTRY))


DISCLOSURE = register_kind(DisclosureKind())
PSEUDONYM = register_kind(PseudonymKind())
CONSENT_CHANGE = register_kind(ConsentChangeKind())
REIDENTIFY = register_kind(ReidentifyKind())
POPULATION = register_kind(PopulationKind())
TAINT = register_kind(TaintKind())

#: The shipped first-class kinds, in registration order.
KINDS: Tuple[str, ...] = (DISCLOSURE.name, PSEUDONYM.name,
                          CONSENT_CHANGE.name, REIDENTIFY.name,
                          POPULATION.name, TAINT.name)
