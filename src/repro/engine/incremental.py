"""Diff-driven incremental re-analysis of model fleets.

MDE lives on iteration: analyse, change the model, re-analyse. A cold
re-run recomputes everything; this module recomputes only what a
change actually invalidates, by mapping a structural
:class:`~repro.dfd.diff.ModelDiff` onto the engine's staged
fingerprints:

- **nothing** — the canonical fingerprints agree (e.g. only
  descriptions changed): every job short-circuits at the result cache.
- **analyzers** — the LTS stage provably survives: grant-only changes
  that touch no permission the generator consumes. The generator reads
  the access policy in exactly two places — read grants (the derived
  ``could`` variables and potential-read transitions) and delete
  grants (policy-delete transitions, only when generation enables
  them). A change confined to other permissions (create/update) can
  therefore re-seed every cached LTS under its new stage-2 key and
  re-run only the cheap analyzer stage.
- **everything** — structural changes (nodes, flows, schemas, roles)
  or grant changes the generator can see: the model's jobs re-run from
  LTS generation.

The classification is deliberately *sound over eager*: anything the
diff cannot prove unchanged (schema edits and role reassignments are
invisible to :func:`~repro.dfd.diff.diff_models`) falls back to
``everything``. Unchanged sibling models in the fleet always
short-circuit at the result cache, so a one-model edit re-runs
strictly fewer jobs than a cold sweep either way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence

from ..dfd import SystemModel, canonical_system_dict
from ..dfd.diff import ModelDiff, diff_models
from ..taint import TaintCertificate
from .fingerprint import (lts_stage_key, model_fingerprint, stable_hash,
                          taint_stage_key)
from .jobs import AnalysisJob
from .kinds import get_kind
from .runner import BatchEngine, BatchResult

#: Stage-invalidation verdicts, least to most expensive.
INVALIDATES_NOTHING = "nothing"
INVALIDATES_ANALYZERS = "analyzers"
INVALIDATES_EVERYTHING = "everything"

#: ACL permissions the LTS generator consumes unconditionally (the
#: ``could`` mask and potential reads) or conditionally (policy
#: deletes, when the generation options enable them).
_GENERATOR_PERMISSIONS = ("read",)
_GENERATOR_DELETE_PERMISSIONS = ("delete",)


@dataclass(frozen=True)
class InvalidationPlan:
    """Which fingerprint stages a model change invalidates."""

    before_fp: str
    after_fp: str
    diff: ModelDiff
    level: str
    reason: str
    #: False when the change moves delete grants, which invalidate the
    #: LTS only for generations with ``include_deletes`` enabled.
    delete_safe: bool = True
    #: True when the change is confined to ACL grants (no structural
    #: or non-ACL content movement) — the precondition for the
    #: taint-certificate survival check, which can then decide from
    #: the grant diff alone.
    acl_only: bool = False

    @property
    def reuses_lts(self) -> bool:
        return self.level == INVALIDATES_ANALYZERS

    def level_for(self, options) -> str:
        """The verdict under concrete generation options (delete-grant
        changes only bite generations that enable policy deletes)."""
        if self.level == INVALIDATES_ANALYZERS and not self.delete_safe \
                and options is not None and options.include_deletes:
            return INVALIDATES_EVERYTHING
        return self.level

    def describe(self) -> str:
        lines = [f"change invalidates: {self.level} ({self.reason})"]
        if self.diff.is_empty:
            lines.append("  structural diff: none")
        else:
            lines.extend("  " + line
                         for line in self.diff.describe().splitlines())
        return "\n".join(lines)


def _non_acl_parts(system: SystemModel) -> str:
    """Fingerprint of everything the ACL-blind diff cannot see."""
    data = canonical_system_dict(system)
    data.pop("acl", None)
    return stable_hash(data)


def _fingerprint_of(system: SystemModel,
                    model_fps: Optional[Mapping[int, str]]) -> str:
    known = model_fps.get(id(system)) if model_fps else None
    return known if known is not None else model_fingerprint(system)


def classify_invalidation(before: SystemModel,
                          after: SystemModel,
                          model_fps: Optional[Mapping[int, str]] = None
                          ) -> InvalidationPlan:
    """Map the before -> after change onto the staged fingerprints.

    ``model_fps`` optionally supplies already-known model hashes keyed
    by ``id(system)``, the seed
    :meth:`~repro.engine.runner.BatchEngine.run` takes: a model found
    there is not re-hashed. Without it, both models are hashed.
    """
    before_fp = _fingerprint_of(before, model_fps)
    after_fp = _fingerprint_of(after, model_fps)
    diff = diff_models(before, after)
    if before_fp == after_fp:
        return InvalidationPlan(
            before_fp, after_fp, diff, INVALIDATES_NOTHING,
            "model fingerprints are identical; cached results serve")
    if diff.structural_change:
        return InvalidationPlan(
            before_fp, after_fp, diff, INVALIDATES_EVERYTHING,
            "nodes or flows changed; generated LTSs are stale")
    if _non_acl_parts(before) != _non_acl_parts(after):
        # Schema, role or assignment changes are invisible to the
        # structural diff but move the fingerprint: be conservative.
        return InvalidationPlan(
            before_fp, after_fp, diff, INVALIDATES_EVERYTHING,
            "non-ACL model content changed outside the diff's view")
    if diff.touches_permission(*_GENERATOR_PERMISSIONS):
        return InvalidationPlan(
            before_fp, after_fp, diff, INVALIDATES_EVERYTHING,
            "read grants changed; the generator's could/potential-read "
            "view of the policy moved",
            acl_only=True)
    return InvalidationPlan(
        before_fp, after_fp, diff, INVALIDATES_ANALYZERS,
        "grant-only change outside the generator's policy view; "
        "LTSs re-seed, analyzers re-run",
        delete_safe=not diff.touches_permission(
            *_GENERATOR_DELETE_PERMISSIONS),
        acl_only=True)


def certificate_survives(plan: InvalidationPlan,
                         certificate: TaintCertificate) -> bool:
    """Does a cached taint certificate survive the planned change?

    The taint stage invalidates on *reachability*, not on the LTS's
    could-read display vectors — so it is strictly more precise than
    the LTS stage for ACL edits: a read-grant addition confined to
    (store, field) atoms the certificate never tracks provably cannot
    create a new READ event, and the certificate survives even though
    the plan says ``everything`` for the LTS. Grant removals and
    create/update/delete-grant changes never feed the closure, so they
    always survive an ACL-only plan.
    """
    if plan.level == INVALIDATES_NOTHING:
        return True
    if not plan.acl_only:
        return False
    return certificate.survives_acl_change(plan.diff)


class LtsReseed:
    """An edit's plan, applied by the engine run's LTS sources.

    The first read of a key on the edited model whose LTS the edit
    leaves intact puts the pre-edit entry under the new key; the read
    then hits it. Sources call :meth:`seed` under the key's lock, so
    each key is tried once even across thread workers.
    """

    __slots__ = ("plan", "tried")

    def __init__(self, plan: InvalidationPlan):
        self.plan = plan
        #: New stage-2 key -> whether its pre-edit LTS was in the memo.
        self.tried: Dict[str, bool] = {}

    @property
    def seeded(self) -> int:
        """The number of keys seeded so far."""
        return sum(self.tried.values())

    def seed(self, cache, model_fp: str, key: str, options) -> None:
        """Seed ``key`` (``model_fp`` under ``options``) in ``cache``
        if this is its first read and the edit leaves it intact."""
        plan = self.plan
        if model_fp != plan.after_fp or key in self.tried or \
                plan.level_for(options) != INVALIDATES_ANALYZERS:
            return
        lts = cache.get(lts_stage_key(plan.before_fp, options))
        if lts is not None:
            cache.put(key, lts)
        self.tried[key] = lts is not None


def reanalysis_summary(plan_description: str, jobs: int,
                       retargeted: int, lts_seeded: int,
                       stats_description: str) -> str:
    """The incremental run's three-line summary.

    The single source of the wording: both
    :meth:`ReanalysisOutcome.describe` and the service layer's
    :meth:`~repro.service.messages.ReanalyzeResponse.describe` render
    through it, keeping engine and wire output byte-identical.
    """
    return "\n".join([
        plan_description,
        f"{jobs} jobs: {retargeted} retargeted to the edited model, "
        f"{lts_seeded} LTS cache entries re-seeded",
        stats_description,
    ])


@dataclass
class ReanalysisOutcome:
    """One incremental re-analysis: its batch, plan and accounting."""

    batch: BatchResult
    plan: InvalidationPlan
    jobs: int
    retargeted: int
    lts_seeded: int
    taint_seeded: int = 0

    def describe(self) -> str:
        text = reanalysis_summary(self.plan.describe(), self.jobs,
                                  self.retargeted, self.lts_seeded,
                                  self.batch.stats.describe())
        if self.taint_seeded:
            text += (f"\n{self.taint_seeded} taint certificates "
                     "survived the edit and were re-seeded")
        return text


def reanalyze(engine: BatchEngine, before: SystemModel,
              after: SystemModel,
              jobs: Sequence[AnalysisJob],
              screen: bool = False,
              lint=False,
              model_fps: Optional[Mapping[int, str]] = None
              ) -> ReanalysisOutcome:
    """Re-run a fleet after editing ``before`` into ``after``.

    ``jobs`` is the fleet's job list as originally analysed (its jobs
    referencing ``before`` — by content, not object identity — are
    retargeted to ``after``; jobs over other models pass through and
    short-circuit at the warm result cache). When the change provably
    leaves generated LTSs intact, the re-run skips LTS generation as
    well as every unchanged job.

    The engine should be the one that ran the original batch (or share
    its ``cache_dir``); with a cold engine this degrades gracefully to
    a plain run. Each LTS an executed job on the edited model reads is
    re-seeded at its first read, from the pre-edit entry in the
    engine's memo (:class:`LtsReseed`).
    Results carry the *new* model's fingerprints — they
    are byte-identical to what a cold run over the edited fleet
    produces. ``screen``/``lint`` pass through to
    :meth:`~repro.engine.runner.BatchEngine.run` — strict lint refuses
    an edit that introduced ERROR-level diagnostics before any cache
    write.

    ``model_fps`` is the optional ``id(system) -> hash`` seed of
    :func:`classify_invalidation` and
    :meth:`~repro.engine.runner.BatchEngine.run`; it is not modified.
    The plan, the job loop and the engine run all share one table, so
    each model is hashed at most once per call, and not at all when
    the seed knows it (the service facade passes its model store's
    hashes).
    """
    model_fps = dict(model_fps) if model_fps else {}
    plan = classify_invalidation(before, after, model_fps)
    model_fps[id(before)] = plan.before_fp
    model_fps[id(after)] = plan.after_fp
    taint_keys = set()
    new_jobs: List[AnalysisJob] = []
    retargeted = 0
    taint_seeded = 0
    for job in jobs:
        fp = model_fps.get(id(job.system))
        if fp is None:
            fp = model_fingerprint(job.system)
            model_fps[id(job.system)] = fp
        if fp != plan.before_fp:
            new_jobs.append(job)
            continue
        retargeted += 1
        # Labels (and params) survive; only the model moves.
        new_job = replace(job, system=after)
        new_jobs.append(new_job)
        kind = get_kind(new_job.kind)
        options = kind.options_of(new_job)
        if (kind.screenable or new_job.kind == "taint") and \
                plan.level != INVALIDATES_NOTHING:
            # The taint stage is more precise than the LTS stage: an
            # ACL edit on untracked atoms re-seeds the certificate
            # even when the plan invalidates everything else.
            new_taint_key = taint_stage_key(plan.after_fp, options)
            if new_taint_key not in taint_keys:
                taint_keys.add(new_taint_key)
                certificate = engine.taint_cache.get(
                    taint_stage_key(plan.before_fp, options))
                if isinstance(certificate, TaintCertificate) and \
                        certificate_survives(plan, certificate):
                    engine.taint_cache.put(
                        new_taint_key,
                        certificate.rebind(plan.after_fp))
                    taint_seeded += 1
    reseed = LtsReseed(plan) if plan.reuses_lts else None
    batch = engine.run(new_jobs, screen=screen, lint=lint,
                       model_fps=model_fps, reseed=reseed)
    return ReanalysisOutcome(
        batch=batch, plan=plan, jobs=len(new_jobs),
        retargeted=retargeted,
        lts_seeded=reseed.seeded if reseed is not None else 0,
        taint_seeded=taint_seeded)
