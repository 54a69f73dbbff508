"""The :class:`AnalysisService` facade: one object, the whole method.

Engine, caches, kind registry, scenario generation and incremental
re-analysis used to be wired by hand at every entrypoint; the facade
owns them behind a typed request/response API (see
:mod:`~repro.service.messages`). The CLI's ``repro engine *``
subcommands and the HTTP front-end (:mod:`~repro.service.http`) are
both thin clients of this one object, so a request produces the same
result signatures no matter which surface submitted it.

Models are content-addressed: :meth:`AnalysisService.upload_model`
parses DSL text, validates it structurally and registers it under its
:func:`~repro.engine.fingerprint.model_fingerprint`; requests then
reference models by hash (or inline text / CLI file path). Async
submissions reuse the same identity discipline — a job id is the
stable hash of the operation and its canonical request payload, so
resubmitting identical work returns the existing job instead of
queueing a duplicate.
"""

from __future__ import annotations

import json
import threading
from concurrent import futures
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..dfd import SystemModel, parse_dsl
from ..dfd.validation import Severity, validate_system
from ..engine import (
    AnalysisJob,
    BatchEngine,
    BatchResult,
    FleetReport,
    ScenarioGenerator,
    kind_names,
    model_fingerprint,
    prune_stores,
    reanalyze,
    scenario_jobs,
    stable_hash,
    store_report,
)
from ..errors import LintError, ParseError, ReproError
from ..lint import render_sarif, run_lint
from .messages import (
    AnalysisRequest,
    AnalysisResponse,
    CachePruneResponse,
    CacheStatsResponse,
    InvalidModelError,
    JobStatus,
    LintRequest,
    LintResponse,
    ModelRef,
    NotFoundError,
    ReanalyzeRequest,
    ReanalyzeResponse,
    RequestError,
    ServiceError,
    SweepRequest,
    cache_stats_to_dict,
    error_reply,
)

#: Operations an async submission may name. Lint is deliberately
#: absent: it is synchronous-cheap (milliseconds per model) and its
#: response carries no fleet-sized payload worth queueing for.
OPS = ("analyze", "sweep", "reanalyze")


def _lint_mode(strict_lint: bool):
    """Map a request's ``strict_lint`` flag onto
    :meth:`~repro.engine.runner.BatchEngine.run`'s ``lint`` mode."""
    return "strict" if strict_lint else False


def _merge_stats(merged, stats):
    """Accumulate per-job :class:`EngineStats` for a streamed sweep.

    The streaming path runs one engine batch per job; the summary
    line must still report fleet-level accounting, so counters sum
    and the per-kind breakdowns merge key-wise.
    """
    if merged is None:
        from dataclasses import replace as dc_replace
        return dc_replace(stats, by_kind=dict(stats.by_kind),
                          screened_by_kind=dict(
                              stats.screened_by_kind))
    merged.jobs += stats.jobs
    merged.result_hits += stats.result_hits
    merged.executed += stats.executed
    merged.deduplicated += stats.deduplicated
    merged.lts_generations += stats.lts_generations
    merged.lts_reuses += stats.lts_reuses
    merged.wall_time += stats.wall_time
    merged.screened += stats.screened
    merged.screen_flagged += stats.screen_flagged
    merged.linted += stats.linted
    merged.lint_reuses += stats.lint_reuses
    for kind, count in stats.by_kind.items():
        merged.by_kind[kind] = merged.by_kind.get(kind, 0) + count
    for kind, count in stats.screened_by_kind.items():
        merged.screened_by_kind[kind] = \
            merged.screened_by_kind.get(kind, 0) + count
    return merged


class _JobRecord:
    """Mutable backing state of one async submission."""

    __slots__ = ("job_id", "op", "status", "response", "payload",
                 "error")

    def __init__(self, job_id: str, op: str):
        self.job_id = job_id
        self.op = op
        self.status = "queued"
        self.response = None
        #: The response serialized once at completion — polling a
        #: finished job must not re-flatten a fleet-sized result.
        self.payload: Optional[dict] = None
        self.error: Optional[dict] = None

    def snapshot(self) -> JobStatus:
        return JobStatus(job_id=self.job_id, op=self.op,
                         status=self.status, error=self.error,
                         result=self.payload
                         if self.status == "done" else None)


class AnalysisService:
    """The unified programmatic API over the batch engine.

    Parameters mirror :class:`~repro.engine.runner.BatchEngine` (which
    is built lazily — constructing a service for ``cache_stats`` never
    touches the disk); ``job_workers`` sizes the async submission
    pool and ``max_jobs`` caps the async job table (LRU over finished
    records — a long-lived server must not grow per submission
    forever).

    Thread safety: the underlying caches are lock-protected and the
    engine keeps no per-run state, so one service instance serves
    concurrent callers — which is exactly how the HTTP front-end's
    executor threads use it.
    """

    def __init__(self, backend: str = "thread",
                 workers: Optional[int] = None,
                 cache_dir: Optional[str] = None,
                 memory_entries: int = 512,
                 likelihood=None, matrix=None, value_policy=None,
                 dataset=None, population=None, record_field_map=None,
                 reid_threshold: float = 0.5,
                 job_workers: int = 2,
                 max_jobs: int = 256):
        if job_workers < 1:
            raise ValueError(
                f"job_workers must be >= 1, got {job_workers}")
        if max_jobs < 1:
            raise ValueError(
                f"max_jobs must be >= 1, got {max_jobs}")
        self.cache_dir = cache_dir
        self._engine_config = dict(
            backend=backend, workers=workers, cache_dir=cache_dir,
            memory_entries=memory_entries, likelihood=likelihood,
            matrix=matrix, value_policy=value_policy, dataset=dataset,
            population=population, record_field_map=record_field_map,
            reid_threshold=reid_threshold)
        self._engine: Optional[BatchEngine] = None
        self._lock = threading.Lock()
        self._models: Dict[str, SystemModel] = {}
        #: ``id(system) -> model hash`` for every *stored* system —
        #: the store's key already is the stage-1 fingerprint, so
        #: analysis and re-analysis requests seed the engine (and
        #: ``reanalyze``'s invalidation plan) with it instead of
        #: re-canonicalising the model on every call. Sound because
        #: the store is append-only and holds its objects for the
        #: facade's lifetime (ids can never be reused), and stored
        #: models are never mutated.
        self._model_fps: Dict[int, str] = {}
        self._job_workers = job_workers
        self._max_jobs = max_jobs
        self._jobs: Dict[str, _JobRecord] = {}
        self._executor: Optional[futures.ThreadPoolExecutor] = None
        self._closed = False
        #: Front-end load hook: the HTTP front-end registers a
        #: callable returning its queue/shed/limit counters, merged
        #: into the health body's ``load`` block by :meth:`describe`.
        self._load_provider = None

    # -- engine ------------------------------------------------------------

    @property
    def engine(self) -> BatchEngine:
        """The owned batch engine (created on first use)."""
        with self._lock:
            if self._engine is None:
                self._engine = BatchEngine(**self._engine_config)
            return self._engine

    def close(self) -> None:
        """Stop accepting async work and release the worker pool and
        the engine's process pool (:meth:`BatchEngine.close`).

        Synchronous operations keep working; further :meth:`submit`
        calls raise. Idempotent."""
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
            engine = self._engine
        if executor is not None:
            executor.shutdown(wait=True)
        if engine is not None:
            engine.close()

    # -- the model store ---------------------------------------------------

    def register_model(self, system: SystemModel) -> str:
        """Register a parsed model; returns its content hash.

        Re-registering an equivalent model keeps the first-stored
        object: in-flight requests may hold it, and the fingerprint
        seed map is id-keyed — replacing the object would let the old
        one be collected and its id be reused by an unrelated model.
        """
        model_hash = model_fingerprint(system)
        with self._lock:
            if model_hash not in self._models:
                self._models[model_hash] = system
                self._model_fps[id(system)] = model_hash
        return model_hash

    def upload_model(self, text: str) -> str:
        """Parse, validate and register DSL text; returns the hash.

        Uploading the same text (or any text canonicalising to the
        same model) is idempotent: the hash is the model fingerprint.
        """
        return self.register_model(self._parse(text, "uploaded model"))

    def model_hashes(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._models))

    def _parse(self, text: str, where: str) -> SystemModel:
        try:
            system = parse_dsl(text, validate=False)
        except ParseError as error:
            raise InvalidModelError(
                f"{where} does not parse: {error}") from error
        errors = [issue for issue in validate_system(system,
                                                     strict=False)
                  if issue.severity is Severity.ERROR]
        if errors:
            raise InvalidModelError(
                f"{where} is structurally invalid "
                f"({len(errors)} error(s))", issues=errors)
        return system

    def resolve_model(self, ref: ModelRef,
                      where: str = "model"
                      ) -> Tuple[SystemModel, str]:
        """A reference's live model and display label.

        Text and path references register the model as a side effect,
        so a follow-up request can use the returned label-independent
        hash; unknown hashes are a :class:`NotFoundError`.
        """
        if ref.hash is not None:
            with self._lock:
                system = self._models.get(ref.hash)
            if system is None:
                raise NotFoundError(
                    f"{where}: unknown model hash {ref.hash!r}; "
                    "upload the model first")
            return system, ref.label or ref.hash[:12]
        if ref.text is not None:
            system = self._parse(ref.text, where)
            stored = self._store_and_fetch(system)
            return stored, ref.label or system.name
        try:
            with open(ref.path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as error:
            raise RequestError(f"{where}: {error}") from error
        system = self._parse(text, f"{where} {ref.path!r}")
        return self._store_and_fetch(system), ref.label or ref.path

    def _store_and_fetch(self, system: SystemModel) -> SystemModel:
        """Register ``system`` and return the *stored* equivalent —
        the object whose fingerprint the engine seed map knows."""
        model_hash = self.register_model(system)
        with self._lock:
            return self._models[model_hash]

    def _resolve_for_lint(self, ref: ModelRef,
                          where: str = "model"
                          ) -> Tuple[SystemModel, str]:
        """Resolve a model reference *without* strict validation.

        Lint exists to report structurally invalid models, so this
        path must not refuse them the way :meth:`resolve_model` does.
        Unparseable text is still an :class:`InvalidModelError` (the
        wire equivalent of the CLI's exit 2); invalid-but-parseable
        models come back whole for the rules to describe. They are
        deliberately *not* registered — the model store only holds
        models the analysis operations would accept.
        """
        if ref.hash is not None:
            with self._lock:
                system = self._models.get(ref.hash)
            if system is None:
                raise NotFoundError(
                    f"{where}: unknown model hash {ref.hash!r}; "
                    "upload the model first")
            return system, ref.label or ref.hash[:12]
        if ref.text is not None:
            text, label = ref.text, ref.label or ""
        else:
            try:
                with open(ref.path, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as error:
                raise RequestError(f"{where}: {error}") from error
            label = ref.label or ref.path
        try:
            system = parse_dsl(text, validate=False)
        except ParseError as error:
            raise InvalidModelError(
                f"{where} does not parse: {error}") from error
        return system, label or system.name

    # -- operations --------------------------------------------------------

    def _check_kind(self, kind: str) -> None:
        if kind not in kind_names():
            raise RequestError(
                f"unknown analysis kind {kind!r}; registered kinds: "
                f"{sorted(kind_names())}")

    def _response(self, batch: BatchResult,
                  report: Optional[dict] = None) -> AnalysisResponse:
        return AnalysisResponse(
            results=batch.results,
            stats=batch.stats,
            # Snapshot: the live stats object keeps counting (later
            # requests, the incremental leg of a reanalyze), and a
            # response must report the accounting at *its* moment.
            result_cache=replace(self.engine.result_cache.stats),
            max_level=FleetReport(batch.results).max_level().value,
            report=report)

    def lint(self, request: LintRequest) -> LintResponse:
        """Lint one model; diagnostics, tallies and SARIF in one hop.

        Unlike the analysis operations, structurally invalid models
        are the *point*: they resolve, lint and come back as ERROR
        diagnostics rather than a 422. Only unparseable text refuses.
        """
        system, label = self._resolve_for_lint(request.model)
        report = self._guard(run_lint, system, request.select,
                             request.ignore, label)
        return LintResponse(
            model=report.model,
            model_hash=model_fingerprint(system),
            diagnostics=report.diagnostics,
            errors=report.errors,
            warnings=report.warnings,
            clean=report.clean,
            exit_code=report.exit_code(strict=request.strict),
            sarif=json.loads(render_sarif(report)))

    def analyze(self, request: AnalysisRequest) -> AnalysisResponse:
        """Run one user x kind across the request's models."""
        self._check_kind(request.kind)
        user = request.user.to_profile()
        jobs = []
        for index, ref in enumerate(request.models):
            system, label = self.resolve_model(
                ref, where=f"models[{index}]")
            jobs.append(AnalysisJob(
                system=system, user=user, kind=request.kind,
                params=request.params, scenario=label,
                family="service", variant="analyze"))
        return self._response(self._run(
            jobs, lint=_lint_mode(request.strict_lint)))

    def _sweep_jobs(self, request: SweepRequest):
        """The request's job list as ``(global_index, job)`` pairs.

        The fleet is a pure function of the request's seed, so every
        caller — buffered sweep, streaming sweep, a fleet worker
        handed an ``indices`` slice — derives the identical list and
        the identical global job ids. Jobs are labelled by global
        index *before* any slicing, so a worker running jobs
        ``[3, 7]`` answers ``job-0003``/``job-0007``, byte-identical
        to the same positions of a whole-fleet run.
        """
        for kind in request.kinds:
            self._check_kind(kind)
        generator = ScenarioGenerator(
            seed=request.seed,
            personas_per_scenario=request.personas)
        jobs = scenario_jobs(generator.generate(request.count),
                             kinds=request.kinds)
        for index, job in enumerate(jobs):
            if not job.job_id:
                job.job_id = f"job-{index:04d}"
        if request.indices is None:
            return list(enumerate(jobs))
        out_of_range = [i for i in request.indices if i >= len(jobs)]
        if out_of_range:
            raise RequestError(
                f"sweep indices {out_of_range} out of range for a "
                f"{len(jobs)}-job fleet")
        return [(index, jobs[index]) for index in request.indices]

    def sweep(self, request: SweepRequest,
              include_report: bool = True) -> AnalysisResponse:
        """Generate a scenario fleet, analyse it, aggregate it.

        ``include_report`` skips materialising the aggregate dict for
        callers that will build their own :class:`FleetReport` from
        the results (the CLI's human rendering) — aggregation is
        linear in fleet size and should not run twice.
        """
        jobs = [job for _, job in self._sweep_jobs(request)]
        batch = self._run(jobs, screen=request.screen,
                          lint=_lint_mode(request.strict_lint))
        report = FleetReport(batch.results, batch.stats).to_dict() \
            if include_report else None
        return self._response(batch, report=report)

    def sweep_stream(self, request: SweepRequest,
                     should_stop=None):
        """The sweep as an ndjson-shaped line iterator.

        Yields one ``{"index", "fingerprint", "result"}`` dict per
        job *as it completes* — jobs run one at a time, so the first
        line is on the wire before the second job has started — then
        a final ``{"summary": ...}`` line carrying the merged
        :class:`FleetReport`, engine stats and cache accounting the
        buffered response would have. Result payloads decode through
        :func:`~repro.service.messages.result_from_dict` with
        signatures byte-identical to the buffered sweep's (job
        fingerprints are per-job; batch size never enters them).

        ``should_stop`` is the cancellation hook: a zero-argument
        callable polled between jobs (front-ends wire it to client
        disconnect), truthy means stop cleanly without a summary.
        Request validation (kinds, bounds, indices) happens *before*
        the first yield so front-ends can still answer a typed error
        status; mid-stream failures surface as the generator's
        exception, which front-ends turn into a final error line.

        The stream's one-job runs share one ``id(system) -> hash``
        table, seeded from the model store, so each of the sweep's
        models is hashed once per stream, not once per job.
        """
        indexed_jobs = self._sweep_jobs(request)

        def generate():
            from .messages import result_to_dict, stats_to_dict
            results = []
            merged = None
            model_fps = self._known_fingerprints()
            for index, job in indexed_jobs:
                if should_stop is not None and should_stop():
                    return
                if id(job.system) not in model_fps:
                    model_fps[id(job.system)] = \
                        model_fingerprint(job.system)
                batch = self._run(
                    [job], screen=request.screen,
                    lint=_lint_mode(request.strict_lint),
                    model_fps=model_fps)
                result = batch.results[0]
                results.append(result)
                merged = _merge_stats(merged, batch.stats)
                yield {"index": index,
                       "fingerprint": result.fingerprint,
                       "result": result_to_dict(result)}
            report = FleetReport(results, merged)
            yield {"summary": {
                "jobs": len(results),
                "max_level": report.max_level().value,
                "stats": stats_to_dict(merged) if merged else None,
                "result_cache": {
                    "hits": self.engine.result_cache.stats.hits,
                    "misses": self.engine.result_cache.stats.misses,
                    "puts": self.engine.result_cache.stats.puts,
                    "evictions":
                        self.engine.result_cache.stats.evictions,
                },
                "report": report.to_dict(),
            }}

        return generate()

    def reanalyze(self, request: ReanalyzeRequest
                  ) -> ReanalyzeResponse:
        """Baseline the old model, classify the edit, re-run only
        what it invalidated."""
        self._check_kind(request.kind)
        before, before_label = self.resolve_model(request.before,
                                                  where="before")
        after, _ = self.resolve_model(request.after, where="after")
        user = request.user.to_profile()
        jobs = [AnalysisJob(system=before, user=user,
                            kind=request.kind, params=request.params,
                            scenario=before_label, family="service",
                            variant="reanalyze")]
        # Snapshot the baseline response *before* the incremental leg
        # runs, so its cache accounting reflects the baseline moment.
        # Strict lint gates only the *edited* model: the baseline was
        # already accepted, the edit is what may have broken it.
        baseline = self._response(self._run(jobs))
        outcome = self._guard(reanalyze, self.engine, before, after,
                              jobs, False,
                              _lint_mode(request.strict_lint),
                              self._known_fingerprints())
        return ReanalyzeResponse(
            baseline=baseline,
            outcome=self._response(outcome.batch),
            plan_level=outcome.plan.level,
            plan_reason=outcome.plan.reason,
            plan_description=outcome.plan.describe(),
            jobs=outcome.jobs,
            retargeted=outcome.retargeted,
            lts_seeded=outcome.lts_seeded)

    def _known_fingerprints(self) -> Dict[int, str]:
        """A snapshot of the store's ``id(system) -> hash`` seed."""
        with self._lock:
            return dict(self._model_fps)

    def _run(self, jobs: List[AnalysisJob], screen: bool = False,
             lint=False,
             model_fps: Optional[Dict[int, str]] = None) -> BatchResult:
        """Run ``jobs`` on the engine, seeded with ``model_fps`` (by
        default, a snapshot of the store's hashes)."""
        if model_fps is None:
            model_fps = self._known_fingerprints()
        return self._guard(self.engine.run, jobs, screen, lint,
                           model_fps)

    @staticmethod
    def _guard(operation, *args):
        """Run an engine operation, typing its failures.

        A strict-lint refusal (the pre-flight rejected an ERROR-level
        model before any cache write) becomes the same typed wire
        error an invalid upload gets, diagnostics as issues. Other
        engine-level :class:`ReproError` subclasses (unknown agreed
        services, impossible consent changes, ...) pass through as the
        structured errors they already are; anything else would
        surface as a traceback, so it becomes a :class:`ServiceError`
        preserving the original message.
        """
        try:
            return operation(*args)
        except LintError as error:
            raise InvalidModelError(
                str(error),
                issues=[d.describe()
                        for d in error.diagnostics]) from error
        except (ServiceError, ReproError):
            raise
        except ValueError as error:
            raise RequestError(str(error)) from error

    # -- cache lifecycle ---------------------------------------------------

    def cache_stats(self) -> CacheStatsResponse:
        """On-disk store report plus live cache accounting.

        Reads the disk directly (no engine construction), so pointing
        a fresh service at a cache directory never creates stores as
        a side effect of *inspecting* them.
        """
        stores: Tuple[Tuple[str, dict], ...] = ()
        if self.cache_dir is not None:
            stores = tuple(store_report(self.cache_dir).items())
        live = None
        with self._lock:
            engine = self._engine
        if engine is not None:
            live = {
                "results": cache_stats_to_dict(
                    engine.result_cache.stats),
                "lts": cache_stats_to_dict(engine.lts_cache.stats),
                "taint": cache_stats_to_dict(
                    engine.taint_cache.stats),
                "lint": cache_stats_to_dict(
                    engine.lint_cache.stats),
            }
        return CacheStatsResponse(cache_dir=self.cache_dir,
                                  stores=stores, live=live)

    def prune_cache(self, max_age: Optional[float] = None,
                    max_bytes: Optional[int] = None
                    ) -> CachePruneResponse:
        """Age/size-prune every on-disk store of the cache dir."""
        if self.cache_dir is None:
            raise RequestError(
                "cache prune needs a service with a cache_dir")
        reports = prune_stores(self.cache_dir, max_age=max_age,
                               max_bytes=max_bytes)
        return CachePruneResponse(cache_dir=self.cache_dir,
                                  stores=tuple(reports.items()))

    # -- async submissions -------------------------------------------------

    def _as_hash_ref(self, ref: ModelRef, where: str) -> ModelRef:
        """A content-addressed equivalent of any model reference."""
        if ref.hash is not None:
            return ref
        system, label = self.resolve_model(ref, where)
        return ModelRef(hash=self.register_model(system), label=label)

    def _materialize(self, request):
        """Pin a request's model references to content hashes.

        Job identity must be content-addressed: a path-based reference
        resubmitted after the file changed names different work and
        must get a different job id, not a stale coalesced record.
        Resolution errors (missing file, invalid model) therefore
        surface synchronously at submit time.
        """
        if isinstance(request, AnalysisRequest):
            return replace(request, models=tuple(
                self._as_hash_ref(ref, f"models[{index}]")
                for index, ref in enumerate(request.models)))
        if isinstance(request, ReanalyzeRequest):
            return replace(
                request,
                before=self._as_hash_ref(request.before, "before"),
                after=self._as_hash_ref(request.after, "after"))
        return request

    def submit(self, op: str, request) -> str:
        """Queue an operation; returns its job id immediately.

        The id is the stable hash of ``(op, canonical request)`` with
        model references pinned to content hashes — the same identity
        discipline the result cache uses — so identical submissions
        coalesce onto one record, re-polling a finished job is free,
        and an edited model file is new work, never a stale hit.
        """
        if op not in OPS:
            raise RequestError(
                f"unknown operation {op!r}; one of {OPS}")
        request = self._materialize(request)
        job_id = stable_hash(["service-job", op, request.to_dict()])
        with self._lock:
            if self._closed:
                raise ServiceError(
                    "service is closed; no further submissions "
                    "accepted")
            record = self._jobs.get(job_id)
            # Coalesce onto live or successful work; a *failed* record
            # must not poison the identity forever (the failure may
            # have been transient, e.g. a hash uploaded since).
            if record is not None and record.status != "error":
                return job_id
            record = _JobRecord(job_id, op)
            self._jobs[job_id] = record
            self._evict_jobs_locked()
            if self._executor is None:
                self._executor = futures.ThreadPoolExecutor(
                    self._job_workers,
                    thread_name_prefix="repro-service-job")
            try:
                # Submit under the lock so a concurrent close() cannot
                # shut the pool down between the check and the call.
                self._executor.submit(self._run_job, record, request)
            except RuntimeError as error:
                del self._jobs[job_id]
                raise ServiceError(
                    "service is shutting down; submission "
                    "refused") from error
        return job_id

    def _evict_jobs_locked(self) -> None:
        """Cap the job table by evicting the oldest *finished* records
        (the dict is insertion-ordered, so iteration order is age).

        Queued/running records are never evicted — the table may
        transiently exceed ``max_jobs`` while that many submissions
        are genuinely in flight. Polling an evicted id is a
        :class:`NotFoundError`; resubmitting the identical request is
        cheap because its results stay in the result cache.
        """
        if len(self._jobs) <= self._max_jobs:
            return
        finished = [job_id for job_id, record in self._jobs.items()
                    if record.status in ("done", "error")]
        for job_id in finished:
            if len(self._jobs) <= self._max_jobs:
                break
            del self._jobs[job_id]

    def _run_job(self, record: _JobRecord, request) -> None:
        record.status = "running"
        try:
            record.response = getattr(self, record.op)(request)
            # Serialize before flipping the status: a poll observing
            # "done" must always see the payload.
            record.payload = record.response.to_dict()
            record.status = "done"
        except Exception as error:  # noqa: BLE001 — job boundary
            record.error = error_reply(error)[1]["error"]
            record.status = "error"

    def job_status(self, job_id: str) -> JobStatus:
        """The submission's current state (result included once done)."""
        with self._lock:
            record = self._jobs.get(job_id)
        if record is None:
            raise NotFoundError(f"unknown job id {job_id!r}")
        return record.snapshot()

    def job_ids(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._jobs)

    # -- introspection -----------------------------------------------------

    def set_load_provider(self, provider) -> None:
        """Register the serving front-end's load hook.

        ``provider`` is a zero-argument callable returning a dict of
        front-end counters (``queue_depth``, ``shed_total``,
        ``inflight_limit``) merged into :meth:`describe`'s ``load``
        block — the facade itself has no work queue, the front-end
        does. ``None`` detaches (the fields fall back to zero).
        """
        self._load_provider = provider

    def describe(self) -> dict:
        """Service health/topology snapshot (the HTTP health body).

        The ``load`` block is the worker-side half of fleet placement:
        a dispatcher (:mod:`repro.fleet`) reads in-flight job counts,
        bounded job-table occupancy and cache hit totals to pick and
        monitor workers. Every pre-fleet field keeps its exact shape.
        """
        with self._lock:
            engine = self._engine
            models = len(self._models)
            jobs = len(self._jobs)
            in_flight = sum(
                1 for record in self._jobs.values()
                if record.status in ("queued", "running"))
        payload = {
            "status": "ok",
            "backend": self._engine_config["backend"],
            "cache_dir": self.cache_dir,
            "kinds": list(kind_names()),
            "models": models,
            "jobs": jobs,
            "max_jobs": self._max_jobs,
            "engine": None,
            "load": {
                "in_flight": in_flight,
                "job_table": jobs,
                "max_jobs": self._max_jobs,
                "occupancy": round(jobs / self._max_jobs, 4),
                "result_cache_hits":
                    engine.result_cache.stats.hits if engine else 0,
                "lts_cache_hits":
                    engine.lts_cache.stats.hits if engine else 0,
                # Front-end half of the load picture; zeros unless a
                # serving front-end registered its provider.
                "queue_depth": 0,
                "shed_total": 0,
                "inflight_limit": 0,
            },
        }
        provider = self._load_provider
        if provider is not None:
            try:
                payload["load"].update(provider())
            except Exception:  # noqa: BLE001 — health must answer
                pass
        if engine is not None:
            payload["engine"] = {
                "workers": engine.workers,
                "result_cache": engine.result_cache.stats.describe(),
            }
        return payload
