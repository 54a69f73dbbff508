"""The batch engine: cache-aware parallel execution of analysis jobs.

Execution pipeline, per :meth:`BatchEngine.run` call:

1. **Fingerprint** every job through the staged key recipe
   (model stage -> LTS stage -> analyzer stage; see
   :mod:`repro.engine.fingerprint`).
2. **Result cache** — hits are returned without any work; duplicate
   fingerprints inside one batch are computed once and fanned out.
3. **Dispatch** the misses to the selected backend: ``serial`` (in
   line), ``thread`` (:class:`~concurrent.futures.ThreadPoolExecutor`)
   or ``process`` (:class:`~concurrent.futures.ProcessPoolExecutor`).
4. Inside each worker, the job's :class:`~repro.engine.kinds
   .AnalysisKind` runs on an :class:`~repro.core.ltssource.LtsSource`
   backed by the **LTS memo**: an in-memory LRU holding one frozen LTS
   per (model, options) pair, generated once and shared as is by every
   job and thread worker whose stage-2 key agrees, whatever its kind —
   a consent change's two sides and a population's consent groups
   included. Process workers each keep their own memo, for as long as
   the engine keeps its pool (until :meth:`BatchEngine.close`).
5. Results return **in submission order**, regardless of backend or
   completion order, and are written back to the result cache.

A warm result cache therefore re-runs *zero* LTS generations: every
job short-circuits at step 2.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field, replace
from concurrent import futures
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core import GenerationOptions, LtsSource, ModelGenerator
from ..core.risk import LikelihoodModel, RiskLevel, RiskMatrix
from ..dfd.validation import Severity
from ..errors import LintError
from ..lint import Diagnostic, run_lint
from ..taint import TaintCertificate, build_certificate
from .cache import LRUCache, build_cache
from .fingerprint import (job_fingerprint, lint_stage_key,
                          lts_stage_key, model_fingerprint,
                          taint_stage_key)
from .jobs import AnalysisJob, JobResult
from .kinds import AnalyzerConfig, KindOutcome, get_kind

#: One fingerprinted cache miss awaiting execution:
#: ``(fingerprint, job, options, model_fp)``.
PreparedJob = Tuple[str, AnalysisJob, Optional[GenerationOptions], str]


@dataclass
class EngineStats:
    """Execution accounting for one :meth:`BatchEngine.run` call."""

    backend: str = "serial"
    jobs: int = 0
    result_hits: int = 0
    executed: int = 0
    deduplicated: int = 0
    #: Executed jobs whose LTS source generated at least one LTS /
    #: served every LTS the job read from the memo. A job counts once
    #: however many LTSs it reads; jobs that read none (taint) count
    #: in neither.
    lts_generations: int = 0
    lts_reuses: int = 0
    wall_time: float = 0.0
    by_kind: Dict[str, int] = field(default_factory=dict)
    #: Jobs answered by a clean taint certificate or a per-kind static
    #: screen (exact generation skipped) / jobs the screen flagged for
    #: exact analysis. Both stay zero unless ``run(screen=True)``.
    screened: int = 0
    screen_flagged: int = 0
    #: Screened jobs broken down by analysis kind.
    screened_by_kind: Dict[str, int] = field(default_factory=dict)
    #: Distinct models freshly linted by the pre-flight / answered
    #: from the lint-stage cache. Both stay zero unless ``run(lint=)``.
    linted: int = 0
    lint_reuses: int = 0

    def describe(self) -> str:
        text = (
            f"{self.jobs} jobs on {self.backend} backend in "
            f"{self.wall_time:.2f}s: {self.result_hits} result-cache "
            f"hits, {self.deduplicated} deduplicated, "
            f"{self.executed} executed ({self.lts_generations} LTS "
            f"generations, {self.lts_reuses} memo reuses)"
        )
        if self.screened or self.screen_flagged:
            text += (f"; taint screen: {self.screened} skipped, "
                     f"{self.screen_flagged} flagged")
        if self.linted or self.lint_reuses:
            text += (f"; lint: {self.linted} models linted, "
                     f"{self.lint_reuses} cache reuses")
        if len(self.by_kind) > 1:
            text += " [" + ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(self.by_kind.items())) + "]"
        return text


class BatchResult:
    """Ordered results of one batch plus its execution stats."""

    def __init__(self, results: Sequence[JobResult], stats: EngineStats):
        self.results: Tuple[JobResult, ...] = tuple(results)
        self.stats = stats

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index):
        return self.results[index]


class _MemoLtsSource(LtsSource):
    """One job's view of an LTS memo, counting what it served.

    The memo holds live, frozen LTSs under their stage-2 keys: every
    job on a key (and every thread worker) analyses the same object.
    ``locks`` (striped by key) make a miss generate once even when
    thread workers race for the same key; a process worker runs one
    job at a time and passes none. ``reseed`` is the re-analysis run's
    :class:`~repro.engine.incremental.LtsReseed`, applied before each
    read.
    """

    __slots__ = ("_cache", "_locks", "_system", "_model_fp", "_reseed",
                 "_generator", "generated", "reused")

    def __init__(self, cache, system, model_fp: str,
                 locks: Optional[Sequence[threading.Lock]] = None,
                 reseed=None):
        self._cache = cache
        self._locks = locks
        self._system = system
        self._model_fp = model_fp
        self._reseed = reseed
        self._generator: Optional[ModelGenerator] = None
        self.generated = 0
        self.reused = 0

    @property
    def model_fp(self) -> str:
        """The stage-1 fingerprint of the job's model."""
        return self._model_fp

    def lts_for(self, system, options):
        if system is not self._system:
            raise ValueError(
                "an engine LTS source serves its job's model only")
        key = lts_stage_key(self._model_fp, options)
        if self._locks is None:
            return self._recall(key, options)
        with self._locks[hash(key) % len(self._locks)]:
            return self._recall(key, options)

    def _recall(self, key: str, options):
        if self._reseed is not None:
            self._reseed.seed(self._cache, self._model_fp, key, options)
        lts = self._cache.get(key)
        if lts is not None:
            self.reused += 1
            return lts
        if self._generator is None:
            self._generator = ModelGenerator(self._system)
        lts = self._generator.generate(options).freeze()
        self._cache.put(key, lts)
        self.generated += 1
        return lts


def _run_analysis(job: AnalysisJob, fingerprint: str,
                  options: Optional[GenerationOptions],
                  config: AnalyzerConfig, lts_cache, model_fp: str,
                  locks: Optional[Sequence[threading.Lock]] = None,
                  reseed=None) -> JobResult:
    """Run the job's kind on a memo-backed LTS source, flatten."""
    start = time.perf_counter()
    if job.options is None and options is not None:
        # The kind reads its resolved generation from the job instead
        # of deriving the default again.
        job = replace(job, options=options)
    source = _MemoLtsSource(lts_cache, job.system, model_fp, locks,
                            reseed)
    outcome = get_kind(job.kind).analyse(job, source, config)
    lts = outcome.lts
    return JobResult(
        job_id=job.job_id,
        scenario=job.scenario,
        family=job.family,
        variant=job.variant,
        fingerprint=fingerprint,
        user=job.user.name,
        states=len(lts) if lts is not None else 0,
        transitions=lts.transition_count if lts is not None else 0,
        max_level=outcome.max_level,
        events=outcome.events,
        non_allowed_actors=outcome.non_allowed_actors,
        kind=job.kind,
        details=outcome.details,
        lts_generated=source.generated > 0,
        lts_reused=source.generated == 0 and source.reused > 0,
        duration=time.perf_counter() - start,
    )


# -- execution backends ------------------------------------------------------
#
# A backend is *how* prepared cache misses turn into results: in line,
# on a pool, or (see repro.fleet) on remote worker nodes. The protocol
# is transport-agnostic — ``execute`` receives the engine itself for
# its configuration and caches and yields ``(fingerprint, JobResult)``
# pairs in submission order, which is all ``BatchEngine.run`` relies
# on. Implementations register under a name; ``BACKENDS`` derives from
# the registry, so a new backend (in-tree or external) plugs in with
# one ``register_backend`` call.


class Backend:
    """Protocol of an execution backend (structural; subclassing is
    optional). ``name`` labels :attr:`EngineStats.backend`.

    ``inline_single`` lets the engine run a zero/one-miss batch on the
    calling thread instead of spinning the backend up; backends whose
    placement matters (remote dispatch) set it False."""

    name = "backend"
    inline_single = True

    def execute(self, prepared: Sequence[PreparedJob],
                engine: "BatchEngine"
                ) -> Iterator[Tuple[str, JobResult]]:
        """Yield ``(fingerprint, result)`` per prepared job, in
        submission order."""
        raise NotImplementedError


_BACKEND_REGISTRY: Dict[str, Callable[[], "Backend"]] = {}


def register_backend(name: str,
                     factory: Callable[[], "Backend"]) -> None:
    """Register (or replace) the backend constructed for ``name``."""
    _BACKEND_REGISTRY[name] = factory


def backend_names() -> Tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_BACKEND_REGISTRY)


def get_backend(name: str) -> "Backend":
    """Construct the backend registered under ``name``."""
    factory = _BACKEND_REGISTRY.get(name)
    if factory is None:
        raise ValueError(
            f"backend must be one of {backend_names()}, got {name!r}")
    return factory()


def __getattr__(name: str):
    # BACKENDS predates the registry; keep it importable (and live).
    if name == "BACKENDS":
        return backend_names()
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")


class SerialBackend(Backend):
    """In-line execution on the calling thread."""

    name = "serial"

    def execute(self, prepared, engine, reseed=None):
        for fingerprint, job, options, model_fp in prepared:
            yield fingerprint, _run_analysis(
                job, fingerprint, options, engine.config,
                engine.lts_cache, model_fp, engine._lts_locks, reseed)


class ThreadBackend(Backend):
    """A :class:`~concurrent.futures.ThreadPoolExecutor` pool sharing
    the engine's live caches."""

    name = "thread"

    def execute(self, prepared, engine, reseed=None):
        with futures.ThreadPoolExecutor(engine.workers) as pool:
            tasks = [
                pool.submit(_run_analysis, job, fingerprint, options,
                            engine.config, engine.lts_cache, model_fp,
                            engine._lts_locks, reseed)
                for fingerprint, job, options, model_fp in prepared
            ]
            for (fingerprint, *_), task in zip(prepared, tasks):
                yield fingerprint, task.result()


# -- process backend plumbing ------------------------------------------------
#
# Each worker keeps its own LTS memo (live cache objects carry locks and
# cannot be sent to another process). The engine keeps one pool across
# runs, so a worker generates a key at most once per engine.

_WORKER_LTS_CACHE = None


def _process_initializer(memory_entries: int) -> None:
    global _WORKER_LTS_CACHE
    _WORKER_LTS_CACHE = LRUCache(memory_entries)


def _process_worker(payload) -> JobResult:
    job, fingerprint, options, config, model_fp = payload
    return _run_analysis(job, fingerprint, options, config,
                         _WORKER_LTS_CACHE, model_fp)


class ProcessBackend(Backend):
    """The engine's :class:`~concurrent.futures.ProcessPoolExecutor`
    pool, started on its first process run and kept until
    :meth:`BatchEngine.close`; each worker process keeps its own
    in-memory LTS memo across runs, and finished results return to the
    engine's result cache."""

    name = "process"

    def execute(self, prepared, engine):
        pool = engine._process_pool()
        tasks = []
        try:
            tasks = [
                pool.submit(_process_worker,
                            (job, fingerprint, options, engine.config,
                             model_fp))
                for fingerprint, job, options, model_fp in prepared
            ]
            for (fingerprint, *_), task in zip(prepared, tasks):
                yield fingerprint, task.result()
        except futures.BrokenExecutor:
            # A dead worker breaks the pool for good: let the next
            # run start a fresh one.
            engine._discard_pool(pool)
            raise
        finally:
            for task in tasks:
                task.cancel()


register_backend("serial", SerialBackend)
register_backend("thread", ThreadBackend)
register_backend("process", ProcessBackend)


class BatchEngine:
    """Runs fleets of analysis jobs with caching and a worker pool.

    Parameters
    ----------
    backend:
        A registered backend name (``'serial'``, ``'thread'``,
        ``'process'``, plus anything added via
        :func:`register_backend`) or a live :class:`Backend` instance.
        The process backend keeps one worker pool for the engine's
        lifetime; :meth:`close` shuts it down.
    workers:
        Pool width for the parallel backends (default: CPU count,
        capped at 8).
    cache_dir:
        Root of the on-disk store. When given, the result, taint and
        lint caches gain a disk tier (``results/``, ``taint/`` and
        ``lint/`` subdirectories), so later runs — and sibling
        processes — reuse everything already computed. The LTS memo
        stays in memory: loading a stored LTS is no cheaper than
        generating it.
    memory_entries:
        Capacity of each in-memory LRU tier.
    likelihood / matrix:
        Analyzer configuration for the disclosure-shaped kinds
        (defaults: the paper's example models).
    value_policy / dataset / population / record_field_map /
    reid_threshold:
        Configuration for the pseudonym and reidentify kinds; see
        :class:`~repro.engine.kinds.AnalyzerConfig`. Every setting
        enters only the analyzer-stage keys of the kinds that read it.
    result_cache / lts_cache:
        Override the shipped cache stack with any object exposing
        ``get``/``put``/``stats`` (pass a custom store, or ``None``
        to use the defaults).
    """

    def __init__(self, backend: Union[str, Backend] = "serial",
                 workers: Optional[int] = None,
                 cache_dir: Optional[str] = None,
                 memory_entries: int = 512,
                 likelihood: Optional[LikelihoodModel] = None,
                 matrix: Optional[RiskMatrix] = None,
                 value_policy=None, dataset=None, population=None,
                 record_field_map=None, reid_threshold: float = 0.5,
                 result_cache=None, lts_cache=None):
        if isinstance(backend, str):
            self._backend_impl = get_backend(backend)
            self.backend = backend
        else:
            # A live Backend instance (e.g. a remote-queue backend
            # carrying its own transport) plugs in directly.
            self._backend_impl = backend
            self.backend = backend.name
        self.workers = workers if workers is not None \
            else min(8, os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        self.cache_dir = cache_dir
        self._memory_entries = memory_entries
        self.result_cache = result_cache if result_cache is not None \
            else build_cache(
                memory_entries,
                os.path.join(cache_dir, "results")
                if cache_dir is not None else None)
        self.lts_cache = lts_cache if lts_cache is not None \
            else LRUCache(memory_entries)
        #: Striped locks single-flighting LTS generation per memo key
        #: across thread workers.
        self._lts_locks = tuple(threading.Lock() for _ in range(16))
        self.taint_cache = build_cache(
            memory_entries,
            os.path.join(cache_dir, "taint")
            if cache_dir is not None else None)
        self.lint_cache = build_cache(
            memory_entries,
            os.path.join(cache_dir, "lint")
            if cache_dir is not None else None)
        self.config = AnalyzerConfig.build(
            likelihood=likelihood, matrix=matrix,
            value_policy=value_policy, dataset=dataset,
            population=population, record_field_map=record_field_map,
            reid_threshold=reid_threshold)
        self.likelihood = self.config.likelihood
        self.matrix = self.config.matrix
        self._kind_keys: Dict[str, tuple] = {}
        self._pool: Optional[futures.ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut down the process pool, if a process run started one,
        and wait for its workers to exit. Idempotent; a later process
        run starts a new pool."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def _process_pool(self) -> futures.ProcessPoolExecutor:
        """The engine's process pool, started on first use. Workers
        start from the process state of that moment."""
        with self._pool_lock:
            if self._pool is None:
                self._pool = futures.ProcessPoolExecutor(
                    self.workers,
                    initializer=_process_initializer,
                    initargs=(self._memory_entries,))
            return self._pool

    def _discard_pool(self, pool: futures.ProcessPoolExecutor) -> None:
        with self._pool_lock:
            if self._pool is pool:
                self._pool = None
        pool.shutdown(wait=False, cancel_futures=True)

    # -- identity ----------------------------------------------------------

    def analyzer_key(self, kind: str) -> tuple:
        """The analyzer-stage configuration key of ``kind`` under this
        engine's configuration (computed once per kind)."""
        key = self._kind_keys.get(kind)
        if key is None:
            key = get_kind(kind).analyzer_key(self.config)
            self._kind_keys[kind] = key
        return key

    def fingerprint(self, job: AnalysisJob,
                    model_fp: Optional[str] = None,
                    options: Optional[GenerationOptions] = None) -> str:
        """The result-cache key of ``job`` under this engine's
        analyzer configuration."""
        if options is None:
            options = get_kind(job.kind).options_of(job)
        fingerprint = self._fingerprint(job, model_fp, options)
        if __debug__:
            # The labels contract: scenario/family/variant/job_id are
            # display-only and must never influence cache identity —
            # otherwise renaming a scenario would silently fork the
            # cache and relabelled cache hits would be wrong.
            scrubbed = replace(job, scenario="", family="",
                               variant="", job_id="")
            assert self._fingerprint(scrubbed, model_fp, options) == \
                fingerprint, (
                    "job labels leaked into the cache identity of "
                    f"kind {job.kind!r}")
        return fingerprint

    def _fingerprint(self, job: AnalysisJob,
                     model_fp: Optional[str],
                     options: Optional[GenerationOptions]) -> str:
        return job_fingerprint(
            job.system, options, job.user, self.analyzer_key(job.kind),
            model_fp=model_fp, kind=job.kind, params=job.params)

    # -- the taint screen --------------------------------------------------------

    def screen_certificate(self, job: AnalysisJob,
                           model_fp: Optional[str] = None,
                           options: Optional[GenerationOptions] = None
                           ) -> TaintCertificate:
        """The taint certificate of ``job``'s (model, options) pair,
        cached in the engine's taint-stage store."""
        if model_fp is None:
            model_fp = model_fingerprint(job.system)
        if options is None:
            options = get_kind(job.kind).options_of(job)
        key = taint_stage_key(model_fp, options)
        certificate = self.taint_cache.get(key)
        if not isinstance(certificate, TaintCertificate):
            certificate = build_certificate(job.system, options,
                                            model_fp=model_fp)
            self.taint_cache.put(key, certificate)
        return certificate

    def _screened_result(self, job: AnalysisJob, fingerprint: str,
                         certificate: TaintCertificate,
                         non_allowed: Tuple[str, ...]) -> JobResult:
        """A zero-event result asserted by a clean certificate.

        ``signature()``-identical to what exact analysis would produce
        except for ``states``/``transitions`` (no state space was
        built) and the ``screened`` detail marking the provenance.
        Never written to the result cache: an unscreened run must not
        be served a screened stand-in.
        """
        return JobResult(
            job_id=job.job_id,
            scenario=job.scenario,
            family=job.family,
            variant=job.variant,
            fingerprint=fingerprint,
            user=job.user.name,
            states=0,
            transitions=0,
            max_level=RiskLevel.NONE.value,
            events=(),
            non_allowed_actors=non_allowed,
            kind=job.kind,
            details=(("screened", True),
                     ("certificate", certificate.fingerprint())),
            lts_generated=False,
            duration=0.0,
        )

    # -- the lint pre-flight -----------------------------------------------------

    def lint_diagnostics(self, system,
                         model_fp: Optional[str] = None,
                         stats: Optional[EngineStats] = None
                         ) -> Tuple[Diagnostic, ...]:
        """The lint diagnostics of ``system``, via the lint-stage
        cache — repeated sweeps never re-lint an unchanged model."""
        if model_fp is None:
            model_fp = model_fingerprint(system)
        key = lint_stage_key(model_fp)
        cached = self.lint_cache.get(key)
        if cached is not None:
            try:
                diagnostics = tuple(
                    Diagnostic.from_dict(d) for d in cached)
            except Exception:   # noqa: BLE001 — cache boundary
                diagnostics = None  # foreign/corrupt entry: re-lint
            if diagnostics is not None:
                if stats is not None:
                    stats.lint_reuses += 1
                return diagnostics
        diagnostics = run_lint(system).diagnostics
        self.lint_cache.put(
            key, tuple(d.to_dict() for d in diagnostics))
        if stats is not None:
            stats.linted += 1
        return diagnostics

    def _lint_preflight(self, jobs: Sequence[AnalysisJob],
                        stats: EngineStats,
                        strict: bool,
                        model_fps: Optional[Dict[int, str]] = None
                        ) -> Dict[int, str]:
        """Lint every distinct model in ``jobs`` before any
        fingerprinting or cache write; raise :class:`LintError` on
        ERROR-level diagnostics when ``strict``. Returns the computed
        model fingerprints so the main loop reuses them (seeded
        entries in ``model_fps`` are trusted, but still linted)."""
        model_fps = model_fps if model_fps is not None else {}
        linted: set = set()
        for job in jobs:
            if id(job.system) in linted:
                continue
            linted.add(id(job.system))
            model_fp = model_fps.get(id(job.system))
            if model_fp is None:
                model_fp = model_fingerprint(job.system)
                model_fps[id(job.system)] = model_fp
            diagnostics = self.lint_diagnostics(
                job.system, model_fp=model_fp, stats=stats)
            errors = [d for d in diagnostics
                      if d.severity is Severity.ERROR]
            if strict and errors:
                summary = "; ".join(
                    d.describe() for d in errors[:5])
                more = f" (+{len(errors) - 5} more)" \
                    if len(errors) > 5 else ""
                raise LintError(
                    f"model {job.system.name!r} refused by strict "
                    f"lint: {summary}{more}", diagnostics=diagnostics)
        return model_fps

    def _static_result(self, job: AnalysisJob, fingerprint: str,
                       outcome: KindOutcome) -> JobResult:
        """A result asserted by a kind's static screen predicate.

        Provably identical to exact analysis except for
        ``states``/``transitions`` (no state space was built) and the
        ``screened`` provenance detail. Never written to the result
        cache: an unscreened run must not be served a screened
        stand-in.
        """
        return JobResult(
            job_id=job.job_id,
            scenario=job.scenario,
            family=job.family,
            variant=job.variant,
            fingerprint=fingerprint,
            user=job.user.name,
            states=0,
            transitions=0,
            max_level=outcome.max_level,
            events=outcome.events,
            non_allowed_actors=outcome.non_allowed_actors,
            kind=job.kind,
            details=outcome.details + (("screened", True),),
            lts_generated=False,
            duration=0.0,
        )

    # -- execution -------------------------------------------------------------

    def run(self, jobs: Sequence[AnalysisJob],
            screen: bool = False,
            lint: Union[bool, str] = False,
            model_fps: Optional[Mapping[int, str]] = None,
            *, reseed=None) -> BatchResult:
        """Execute ``jobs``; results come back in submission order.

        With ``screen=True``, screenable kinds (disclosure) first
        consult the model's taint certificate: a clean one *proves*
        the exact analyzer reports zero events, so the job is answered
        without generating its LTS (``stats.screened``); flagged
        models run exactly as usual (``stats.screen_flagged``). Warm
        result-cache hits still win over the screen — they are exact.
        The only observable divergence of a screened answer is
        resource limits: a clean model never hits ``max_states``.
        Other kinds consult their
        :meth:`~repro.engine.kinds.AnalysisKind.screen_outcome`
        predicate — the pseudonym kind statically answers
        not-applicable jobs without generating their LTS.

        ``lint`` runs the lint pre-flight over every distinct model
        before fingerprinting, through the fingerprinted lint-stage
        cache: ``True`` or ``"strict"`` raises :class:`LintError` on
        any ERROR-level diagnostic *before any cache write*;
        ``"warn"`` lints and counts without refusing.

        ``model_fps`` optionally seeds the per-model fingerprint table
        with already-known hashes, keyed by ``id(system)``. Callers
        that hold models in a content-addressed store (the service
        facade: its model hash *is* the stage-1 fingerprint) skip the
        canonical re-serialization entirely — the dominant cost of a
        warm single-job request. Seeded entries must describe systems
        that have not been mutated since hashing; unknown ids are
        simply hashed as usual.

        ``reseed`` is internal: :func:`~repro.engine.incremental
        .reanalyze` passes its edit's
        :class:`~repro.engine.incremental.LtsReseed` here, and the
        backends that share :attr:`lts_cache` hand it to each job's
        LTS source.
        """
        jobs = list(jobs)
        started = time.perf_counter()
        stats = EngineStats(backend=self.backend, jobs=len(jobs))
        results: List[Optional[JobResult]] = [None] * len(jobs)

        # Fingerprint each job, hashing every distinct model once.
        model_fps = dict(model_fps) if model_fps else {}
        if lint:
            if lint not in (True, "strict", "warn"):
                raise ValueError(
                    f"lint must be False, True, 'strict' or 'warn', "
                    f"got {lint!r}")
            model_fps = self._lint_preflight(
                jobs, stats, strict=lint in (True, "strict"),
                model_fps=model_fps)
        pending: Dict[str, List[int]] = {}
        prepared: List[Tuple[str, AnalysisJob,
                             Optional[GenerationOptions], str]] = []
        for index, job in enumerate(jobs):
            if not job.job_id:
                job.job_id = f"job-{index:04d}"
            stats.by_kind[job.kind] = stats.by_kind.get(job.kind, 0) + 1
            model_fp = model_fps.get(id(job.system))
            if model_fp is None:
                model_fp = model_fingerprint(job.system)
                model_fps[id(job.system)] = model_fp
            options = get_kind(job.kind).options_of(job)
            fingerprint = self.fingerprint(job, model_fp=model_fp,
                                           options=options)
            cached = self.result_cache.get(fingerprint)
            if cached is not None:
                results[index] = cached.relabel(job)
                stats.result_hits += 1
                continue
            if screen and get_kind(job.kind).screenable:
                if not job.user.agreed_services:
                    # Exact analysis raises for such users; the screen
                    # must preserve that, so never skip them.
                    stats.screen_flagged += 1
                else:
                    certificate = self.screen_certificate(
                        job, model_fp=model_fp, options=options)
                    non_allowed = tuple(sorted(
                        job.user.non_allowed_actors(job.system)))
                    if certificate.clean_for(non_allowed):
                        results[index] = self._screened_result(
                            job, fingerprint, certificate, non_allowed)
                        stats.screened += 1
                        stats.screened_by_kind[job.kind] = \
                            stats.screened_by_kind.get(job.kind, 0) + 1
                        continue
                    stats.screen_flagged += 1
            elif screen:
                outcome = get_kind(job.kind).screen_outcome(
                    job, self.config)
                if outcome is not None:
                    results[index] = self._static_result(
                        job, fingerprint, outcome)
                    stats.screened += 1
                    stats.screened_by_kind[job.kind] = \
                        stats.screened_by_kind.get(job.kind, 0) + 1
                    continue
            if fingerprint in pending:
                # Same content already queued in this batch: compute
                # once, fan out below.
                pending[fingerprint].append(index)
                stats.deduplicated += 1
                continue
            pending[fingerprint] = [index]
            prepared.append((fingerprint, job, options, model_fp))

        for fingerprint, result in self._execute(prepared, reseed):
            self.result_cache.put(fingerprint, result)
            stats.executed += 1
            if result.lts_generated:
                stats.lts_generations += 1
            elif result.lts_reused:
                stats.lts_reuses += 1
            first, *rest = pending[fingerprint]
            results[first] = result
            for index in rest:
                results[index] = result.relabel(jobs[index])

        stats.wall_time = time.perf_counter() - started
        return BatchResult([r for r in results if r is not None], stats)

    def _execute(self, prepared, reseed):
        """(fingerprint, JobResult) for each prepared miss, in order."""
        backend = self._backend_impl
        if len(prepared) <= 1 and backend.inline_single \
                and not isinstance(backend, SerialBackend):
            # Zero or one miss: pool setup would cost more than it
            # buys — run in line.
            backend = SerialBackend()
        if reseed is not None and \
                isinstance(backend, (SerialBackend, ThreadBackend)):
            # Only these read engine.lts_cache, which holds the
            # pre-edit LTSs; process and fleet workers keep their own.
            return backend.execute(prepared, self, reseed)
        return backend.execute(prepared, self)
