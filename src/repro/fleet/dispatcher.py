"""The fleet coordinator: shard, dispatch, retry, rebalance, merge.

:class:`FleetDispatcher` turns a batch of analysis jobs (or a whole
:class:`~repro.service.messages.SweepRequest`) into wire traffic
against a set of worker ``repro serve`` instances and merges the
per-worker answers back into one ordered result list plus a
:class:`~repro.engine.aggregate.FleetReport`.

Placement is consistent hashing over worker ids keyed by **model
fingerprint** (:class:`HashRing`): every job on the same model lands
on the same worker, so per-node LTS/result caches see maximal reuse,
and losing a worker only moves that worker's shards.

Dispatch has one path. Each worker's group of shards runs as one
*exchange* on a reader thread, which relays answers to the
coordinator as they arrive. A sweep streams one ``SweepRequest``
slice (``POST /v1/sweep?stream=1``); an arbitrary job batch uploads
its models and sends one synchronous ``POST /v1/analyze`` per shard.

Retry policy, per exchange: a transport failure makes the coordinator
re-probe the worker's health. If the probe answers (a transient drop),
the exchange's **unanswered** shards retry on the same worker after a
capped exponential backoff. If it does not, the worker is **lost**: it
leaves the ring and only its unanswered shards **rebalance** onto the
survivors. Answers already received are kept — signatures are
deterministic, so a re-placed shard answers identically. A shard
failing ``max_attempts`` times, or the ring emptying, raises
:class:`FleetError`. Structured worker errors (invalid request,
analysis error) fail fast — re-sending a bad request elsewhere cannot
fix it.
"""

from __future__ import annotations

import queue as queue_module
import threading
import time
from bisect import bisect_right
from contextlib import closing
from dataclasses import dataclass, field, replace
from functools import partial
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from ..dfd import to_dsl
from ..dfd.validation import Severity
from ..engine import (
    AnalysisJob,
    AnalyzerConfig,
    EngineStats,
    FleetReport,
    JobResult,
    ScenarioGenerator,
    get_kind,
    job_fingerprint,
    kind_names,
    model_fingerprint,
    scenario_jobs,
    stable_hash,
)
from ..errors import LintError, ReproError
from ..lint import run_lint
from ..taint import build_certificate
from ..service.messages import (
    AnalysisRequest,
    AnalysisResponse,
    ModelRef,
    SweepRequest,
    UserSpec,
    WorkerLoad,
    result_from_dict,
    stats_from_dict,
)
from .transport import Transport, TransportError, WireError


class FleetError(ReproError):
    """A fleet run could not complete (workers lost, shard failed)."""


# -- placement ----------------------------------------------------------------

class HashRing:
    """Consistent hashing of shard keys onto worker ids.

    Each worker owns ``replicas`` pseudo-random points on a ring;
    a key maps to the worker owning the next point clockwise. Removing
    a worker moves only the keys that worker owned — every other
    assignment is untouched, which is what makes mid-sweep rebalancing
    cheap and deterministic.
    """

    def __init__(self, workers: Sequence[str], replicas: int = 64):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self._workers = tuple(sorted(set(workers)))
        self._points: List[Tuple[int, str]] = sorted(
            (self._point(f"{worker}#{index}"), worker)
            for worker in self._workers
            for index in range(replicas))
        self._keys = [point for point, _ in self._points]

    @staticmethod
    def _point(label: str) -> int:
        return int(stable_hash(label)[:16], 16)

    @property
    def workers(self) -> Tuple[str, ...]:
        return self._workers

    def __len__(self) -> int:
        return len(self._workers)

    def assign(self, key: str) -> str:
        """The worker owning ``key``."""
        if not self._workers:
            raise FleetError("no live workers to assign shards to")
        index = bisect_right(self._keys, self._point(key))
        if index == len(self._keys):
            index = 0
        return self._points[index][1]

    def without(self, worker: str) -> "HashRing":
        """The ring with ``worker`` removed."""
        return HashRing(
            [name for name in self._workers if name != worker],
            replicas=self.replicas)


# -- accounting ---------------------------------------------------------------

@dataclass
class WorkerReport:
    """One worker's dispatch accounting over a fleet run."""

    worker: str
    dispatched: int = 0
    completed: int = 0
    failures: int = 0
    lost: bool = False
    load: Optional[WorkerLoad] = None

    def to_dict(self) -> dict:
        payload = {"worker": self.worker,
                   "dispatched": self.dispatched,
                   "completed": self.completed,
                   "failures": self.failures,
                   "lost": self.lost}
        if self.load is not None:
            payload["load"] = self.load.to_dict()
        return payload


@dataclass
class FleetStats:
    """Coordinator-level accounting of one fleet run."""

    jobs: int = 0
    shards: int = 0
    deduplicated: int = 0
    retries: int = 0
    rebalances: int = 0
    lost_workers: Tuple[str, ...] = ()
    wall_time: float = 0.0
    engine: EngineStats = field(default_factory=EngineStats)
    workers: Tuple[WorkerReport, ...] = ()

    def describe(self) -> str:
        live = sum(1 for report in self.workers if not report.lost)
        text = (f"{self.jobs} jobs as {self.shards} shards over "
                f"{live}/{len(self.workers)} workers in "
                f"{self.wall_time:.2f}s: {self.retries} retries, "
                f"{self.rebalances} rebalanced")
        if self.lost_workers:
            text += f", lost {', '.join(self.lost_workers)}"
        return text + f" [{self.engine.describe()}]"

    def to_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "shards": self.shards,
            "deduplicated": self.deduplicated,
            "retries": self.retries,
            "rebalances": self.rebalances,
            "lost_workers": list(self.lost_workers),
            "wall_time": self.wall_time,
            "workers": [report.to_dict() for report in self.workers],
        }


@dataclass
class FleetOutcome:
    """Ordered merged results of one fleet run plus its accounting."""

    results: Tuple[JobResult, ...]
    stats: FleetStats

    def report(self) -> FleetReport:
        """The merged fleet aggregation (same class, same rollups as
        a single-node :meth:`BatchEngine.run`)."""
        return FleetReport(self.results, self.stats.engine)

    def signatures(self) -> Tuple[tuple, ...]:
        return tuple(result.signature() for result in self.results)

    @property
    def max_level(self) -> str:
        return self.report().max_level().value

    def to_dict(self) -> dict:
        return {"fleet": self.stats.to_dict(),
                "report": self.report().to_dict()}


# -- the coordinator ----------------------------------------------------------

class _Shard:
    """One unique dispatchable request and the job indices it serves."""

    __slots__ = ("key", "request_payload", "model_fp", "system",
                 "indices", "worker", "attempts", "result")

    def __init__(self, key: str, request_payload: dict, model_fp: str,
                 system, index: int):
        self.key = key
        self.request_payload = request_payload
        self.model_fp = model_fp
        self.system = system
        self.indices: List[int] = [index]
        self.worker: Optional[str] = None
        self.attempts = 0
        self.result: Optional[JobResult] = None


class _Exchange:
    """One worker's group of shards, in flight on a reader thread."""

    __slots__ = ("worker", "shards", "closed")

    def __init__(self, worker: str, shards: List[_Shard]):
        self.worker = worker
        self.shards = shards
        self.closed = threading.Event()


#: An exchange body: given a worker and its shards, yields
#: ``(shard, JobResult)`` answers and ``(None, EngineStats)`` worker
#: accounting, raising on failure.
ExchangeBody = Callable[[str, List[_Shard]],
                        Iterator[Tuple[Optional[_Shard], object]]]


def _by_worker(shards: Sequence[_Shard]) -> Dict[str, List[_Shard]]:
    groups: Dict[str, List[_Shard]] = {}
    for shard in shards:
        groups.setdefault(shard.worker, []).append(shard)
    return groups


def _hash_once(model_fps: Dict[int, str], system) -> str:
    """``system``'s model hash, computed on its first lookup in the
    dispatch's ``id(system) -> hash`` table."""
    model_fp = model_fps.get(id(system))
    if model_fp is None:
        model_fp = model_fps[id(system)] = model_fingerprint(system)
    return model_fp


def _drain(events: Iterator[Tuple]) -> FleetOutcome:
    """Run a dispatch event iterator to its summary."""
    for kind, *body in events:
        if kind == "summary":
            return body[0]


class FleetDispatcher:
    """Runs analysis batches across worker nodes over a transport.

    Parameters
    ----------
    workers:
        Worker ids the transport understands (``host:port`` for
        :class:`~repro.fleet.transport.HttpTransport`).
    transport:
        The :class:`~repro.fleet.transport.Transport` to speak over.
    timeout:
        Bound on every worker read (one upload, one analysis, one
        streamed line); exceeding it fails the exchange into the
        retry/rebalance path.
    probe_timeout:
        Budget for the health probes that decide retry vs. rebalance.
    max_attempts:
        Dispatch attempts per shard before the run fails.
    backoff_base / backoff_cap:
        Capped exponential backoff before a shard's retry
        (``min(cap, base * 2**(attempt-1))`` seconds).
    replicas:
        Virtual nodes per worker on the placement ring.
    """

    def __init__(self, workers: Sequence[str], transport: Transport,
                 timeout: float = 60.0,
                 probe_timeout: float = 5.0,
                 max_attempts: int = 4,
                 backoff_base: float = 0.05,
                 backoff_cap: float = 2.0,
                 replicas: int = 64,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep):
        workers = tuple(dict.fromkeys(workers))
        if not workers:
            raise FleetError("a fleet needs at least one worker")
        if max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {max_attempts}")
        self.workers = workers
        self.transport = transport
        self.timeout = timeout
        self.probe_timeout = probe_timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.replicas = replicas
        self._clock = clock
        self._sleep = sleep

    # -- entry points ------------------------------------------------------

    def sweep(self, request: SweepRequest) -> FleetOutcome:
        """Shard one sweep request across the fleet: the summary of
        :meth:`sweep_stream`."""
        return _drain(self.sweep_stream(request))

    def sweep_stream(self, request: SweepRequest
                     ) -> Iterator[Tuple]:
        """Stream one sweep across the fleet, result by result.

        Yields ``("result", index, JobResult)`` events in completion
        order — screened results first, before any worker answers —
        then one final ``("summary", FleetOutcome)`` whose results are
        in job order. Every selected index is yielded exactly once.

        The scenario fleet is a pure function of the request's seed.
        The coordinator generates it to lint, screen and place it,
        building and hashing each distinct model content once (the
        fleet's scenarios share one model object per template). Each
        worker then receives one ``SweepRequest`` naming a
        representative index per shard, regenerates the same fleet
        and streams back its slice — no model upload. A worker lost
        or dropped mid-stream is handled per exchange, exactly as in
        :meth:`run`.

        Validation, lint, screening and the health probe run before
        this returns; the exchanges start on the first ``next()``.
        Closing the iterator early closes every open exchange.
        """
        unknown = [kind for kind in request.kinds
                   if kind not in kind_names()]
        if unknown:
            raise FleetError(
                f"unknown analysis kind(s) {unknown}; registered: "
                f"{sorted(kind_names())}")
        generator = ScenarioGenerator(
            seed=request.seed,
            personas_per_scenario=request.personas)
        jobs = scenario_jobs(generator.generate(request.count),
                             kinds=request.kinds)
        for index, job in enumerate(jobs):
            job.job_id = f"job-{index:04d}"
        selected = range(len(jobs)) if request.indices is None \
            else request.indices
        out_of_range = [index for index in selected
                        if index >= len(jobs)]
        if out_of_range:
            raise FleetError(
                f"sweep indices {out_of_range} out of range for a "
                f"{len(jobs)}-job fleet")
        return self._stream(
            [(index, jobs[index]) for index in selected],
            screen=request.screen,
            lint="strict" if request.strict_lint else False,
            exchange=partial(self._sweep_exchange, request))

    def run(self, jobs: Sequence[AnalysisJob], screen: bool = False,
            lint=False) -> FleetOutcome:
        """Dispatch ``jobs``; results merge back in submission order
        with worker-computed signatures intact.

        With ``screen=True`` the coordinator runs the taint pre-screen
        locally — a pure function of each (model, user) pair, no
        engine or transport — and dispatches only the flagged jobs;
        clean models never cross the wire at all. Screen accounting
        lands on ``stats.engine`` so :class:`FleetReport` rollups see
        it exactly as in a single-node screened run.

        ``lint`` mirrors :meth:`BatchEngine.run`: ``True``/"strict"
        lints every distinct model coordinator-side and raises
        :class:`~repro.errors.LintError` on ERROR-level diagnostics
        *before any worker sees a byte*; ``"warn"`` lints and counts
        but never refuses.
        """
        return _drain(self._stream(list(enumerate(jobs)), screen, lint,
                                   exchange=self._analyze_exchange))

    # -- the one dispatch path ---------------------------------------------

    def _stream(self, indexed: List[Tuple[int, AnalysisJob]],
                screen: bool, lint, exchange: ExchangeBody
                ) -> Iterator[Tuple]:
        """Lint, screen, probe and place ``(index, job)`` pairs now;
        the returned iterator runs the exchanges and merges."""
        if lint not in (False, True, "strict", "warn"):
            raise ValueError(
                f"lint must be False, True, 'strict' or 'warn', "
                f"got {lint!r}")
        started = self._clock()
        stats = FleetStats(jobs=len(indexed))
        reports = {worker: WorkerReport(worker)
                   for worker in self.workers}
        for index, job in indexed:
            if not job.job_id:
                job.job_id = f"job-{index:04d}"

        if lint:
            self._lint([job for _, job in indexed], stats,
                       strict=lint in (True, "strict"))
        # ``id(system) -> model hash``, shared by screen and placement
        # so each model object is hashed once per dispatch.
        model_fps: Dict[int, str] = {}
        screened: Dict[int, JobResult] = \
            self._screen(indexed, stats, model_fps) if screen else {}

        ring = self._probe_workers(reports, stats)
        shards = self._prepare(indexed, stats, model_fps,
                               skip=screened.keys())
        for shard in shards:
            shard.worker = ring.assign(shard.model_fp)
        stats.shards = len(shards)
        return self._events(indexed, screened, shards, ring, reports,
                            stats, exchange, started)

    def _events(self, indexed: List[Tuple[int, AnalysisJob]],
                screened: Dict[int, JobResult], shards: List[_Shard],
                ring: HashRing, reports: Dict[str, WorkerReport],
                stats: FleetStats, exchange: ExchangeBody,
                started: float) -> Iterator[Tuple]:
        """The dispatch loop: screened results, then every worker's
        shards as one exchange each, answers fanned out to the indices
        they serve as they arrive, then the summary.

        Every reader thread ends with a ``done`` or ``error`` event and
        the transport bounds each read by ``timeout``, so no wait here
        is unbounded. However the loop ends — completion, a raised
        :class:`FleetError`, the consumer closing the iterator — every
        open exchange is closed and its reader stops at its next read.
        """
        jobs = dict(indexed)
        results: Dict[int, JobResult] = {}
        for index in sorted(screened):
            results[index] = screened[index]
            yield ("result", index, screened[index])

        events: "queue_module.Queue" = queue_module.Queue()
        live: set = set()

        def launch(worker: str, group: List[_Shard],
                   delay: float = 0.0) -> None:
            current = _Exchange(worker, group)
            reports[worker].dispatched += len(group)
            live.add(current)
            threading.Thread(
                target=self._read,
                args=(current, exchange, events, delay),
                name=f"fleet-stream-{worker}", daemon=True).start()

        try:
            for worker, group in _by_worker(shards).items():
                launch(worker, group)
            while live:
                kind, current, body = events.get()
                if kind != "answer":
                    live.discard(current)
                    if kind == "error":
                        ring = self._recover(current, body, ring,
                                             reports, stats, launch)
                    continue
                shard, answer = body
                if shard is None:
                    self._absorb_engine(stats.engine, answer)
                    continue
                if shard.result is not None:
                    continue
                shard.result = answer
                reports[current.worker].completed += 1
                # Relabel with the coordinator's display labels;
                # signatures are untouched.
                first, *rest = shard.indices
                job = jobs[first]
                results[first] = replace(
                    answer, job_id=job.job_id, scenario=job.scenario,
                    family=job.family, variant=job.variant)
                for index in rest:
                    results[index] = answer.relabel(jobs[index])
                for index in shard.indices:
                    yield ("result", index, results[index])
        finally:
            for current in live:
                current.closed.set()
        yield ("summary", self._outcome(indexed, results, reports,
                                        stats, started))

    def _read(self, current: _Exchange, exchange: ExchangeBody,
              events: "queue_module.Queue", delay: float) -> None:
        """Reader thread: relay one exchange's answers, then a final
        ``done`` or ``error`` event."""
        try:
            if delay:
                self._sleep(delay)
            if not current.closed.is_set():
                with closing(exchange(current.worker,
                                      current.shards)) as answers:
                    for answer in answers:
                        if current.closed.is_set():
                            break
                        events.put(("answer", current, answer))
            events.put(("done", current, None))
        except Exception as error:  # noqa: BLE001 — relayed
            events.put(("error", current, error))

    def _recover(self, current: _Exchange, error: Exception,
                 ring: HashRing, reports: Dict[str, WorkerReport],
                 stats: FleetStats, launch) -> HashRing:
        """Retry or rebalance a failed exchange's unanswered shards."""
        worker = current.worker
        if isinstance(error, FleetError):
            raise error
        if not isinstance(error, TransportError):
            raise FleetError(
                f"shards failed on worker {worker}: {error}") from error
        reports[worker].failures += 1
        unanswered = [shard for shard in current.shards
                      if shard.result is None]
        if not unanswered:
            return ring
        for shard in unanswered:
            shard.attempts += 1
            if shard.attempts >= self.max_attempts:
                raise FleetError(
                    f"shard {shard.key[:12]} failed {shard.attempts} "
                    f"dispatch attempts (last worker: {worker})")
        if not reports[worker].lost and self._alive(worker):
            # Transient: the worker answers health probes, so keep the
            # placement (its caches already hold these models) and
            # retry after the backoff.
            attempts = max(shard.attempts for shard in unanswered)
            stats.retries += len(unanswered)
            launch(worker, unanswered, delay=min(
                self.backoff_cap,
                self.backoff_base * 2 ** (attempts - 1)))
            return ring
        reports[worker].lost = True
        ring = ring.without(worker)
        if not len(ring):
            raise FleetError(
                f"worker {worker} lost and no live workers remain")
        for shard in unanswered:
            shard.worker = ring.assign(shard.model_fp)
        stats.rebalances += len(unanswered)
        for survivor, group in _by_worker(unanswered).items():
            launch(survivor, group)
        return ring

    # -- exchanges ---------------------------------------------------------

    def _sweep_exchange(self, request: SweepRequest, worker: str,
                        shards: List[_Shard]
                        ) -> Iterator[Tuple[Optional[_Shard], object]]:
        """One streamed ``SweepRequest`` naming a representative index
        per shard; coordinator-side lint and screen already ran."""
        by_index = {shard.indices[0]: shard for shard in shards}
        payload = replace(request, indices=tuple(by_index),
                          screen=False, strict_lint=False).to_dict()
        with closing(self.transport.stream(
                worker, "/v1/sweep", payload,
                timeout=self.timeout)) as lines:
            for line in lines:
                if "summary" not in line:
                    yield (by_index[line["index"]],
                           result_from_dict(line["result"]))
                elif line["summary"].get("stats"):
                    yield None, stats_from_dict(line["summary"]["stats"])

    def _analyze_exchange(self, worker: str, shards: List[_Shard]
                          ) -> Iterator[Tuple[Optional[_Shard], object]]:
        """Upload each of the shards' models once, then one
        synchronous ``POST /v1/analyze`` per shard."""
        models = {shard.model_fp: shard.system for shard in shards}
        for model_fp, system in models.items():
            reply = self.transport.request(
                worker, "POST", "/v1/models", {"text": to_dsl(system)},
                timeout=self.timeout)
            if reply.get("model_hash") != model_fp:
                raise FleetError(
                    f"worker {worker} hashed the model to "
                    f"{reply.get('model_hash')!r}, expected "
                    f"{model_fp!r} — version skew between "
                    "coordinator and worker")
        for shard in shards:
            response = AnalysisResponse.from_dict(self.transport.request(
                worker, "POST", "/v1/analyze", shard.request_payload,
                timeout=self.timeout))
            if len(response.results) != 1:
                raise FleetError(
                    f"worker {worker} answered {len(response.results)} "
                    "results for a single-job shard")
            result = response.results[0]
            if response.stats.lts_reuses:
                # ``lts_reused`` is not on the wire; the worker's stats
                # for this one-job request say it.
                result = replace(result, lts_reused=True)
            yield shard, result
            yield None, response.stats

    # -- phases ------------------------------------------------------------

    def _probe_workers(self, reports: Dict[str, WorkerReport],
                       stats: FleetStats) -> HashRing:
        """Health-probe every worker; the ring holds the live ones."""
        live = []
        for worker in self.workers:
            try:
                health = self.transport.request(
                    worker, "GET", "/v1/health",
                    timeout=self.probe_timeout)
            except (TransportError, WireError):
                reports[worker].lost = True
                continue
            reports[worker].load = WorkerLoad.from_health(health)
            live.append(worker)
        if not live:
            raise FleetError(
                f"no live workers among {list(self.workers)}")
        return HashRing(live, replicas=self.replicas)

    @staticmethod
    def _lint(jobs: Sequence[AnalysisJob], stats: FleetStats,
              strict: bool) -> None:
        """Lint every distinct model before anything crosses the wire.

        The coordinator has no engine (and so no lint cache); linting
        is milliseconds per model and runs once per distinct system
        object. Strict mode refuses exactly like the single-node
        pre-flight — same error type, same message shape — so callers
        switch between local and fleet execution without changing
        their error handling.
        """
        seen: set = set()
        for job in jobs:
            if id(job.system) in seen:
                continue
            seen.add(id(job.system))
            diagnostics = run_lint(job.system).diagnostics
            stats.engine.linted += 1
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

    def _screen(self, indexed: Sequence[Tuple[int, AnalysisJob]],
                stats: FleetStats, model_fps: Dict[int, str]
                ) -> Dict[int, JobResult]:
        """Taint pre-screen every screenable job coordinator-side.

        Returns synthesized zero-event results by job index for the
        jobs a clean certificate clears. Fingerprints are computed
        under the default :class:`AnalyzerConfig` — the configuration
        default workers run — so a clean job's synthesized fingerprint
        matches what the worker would have answered.
        """
        screened: Dict[int, JobResult] = {}
        config = AnalyzerConfig.build()
        analyzer_keys: Dict[str, tuple] = {}
        certificates: Dict[tuple, object] = {}
        for index, job in indexed:
            if not get_kind(job.kind).screenable or \
                    job.options is not None:
                continue
            if not job.user.agreed_services:
                # Workers raise for such users, exactly like a local
                # exact run; never screen them out.
                stats.engine.screen_flagged += 1
                continue
            model_fp = _hash_once(model_fps, job.system)
            options = get_kind(job.kind).options_of(job)
            cert_key = (model_fp, options.cache_key()
                        if options is not None else None)
            certificate = certificates.get(cert_key)
            if certificate is None:
                certificate = build_certificate(job.system, options,
                                                model_fp=model_fp)
                certificates[cert_key] = certificate
            non_allowed = tuple(sorted(
                job.user.non_allowed_actors(job.system)))
            if not certificate.clean_for(non_allowed):
                stats.engine.screen_flagged += 1
                continue
            analyzer_key = analyzer_keys.get(job.kind)
            if analyzer_key is None:
                analyzer_key = get_kind(job.kind).analyzer_key(config)
                analyzer_keys[job.kind] = analyzer_key
            screened[index] = JobResult(
                job_id=job.job_id,
                scenario=job.scenario,
                family=job.family,
                variant=job.variant,
                fingerprint=job_fingerprint(
                    job.system, options, job.user, analyzer_key,
                    model_fp=model_fp, kind=job.kind,
                    params=job.params),
                user=job.user.name,
                states=0,
                transitions=0,
                max_level="none",
                events=(),
                non_allowed_actors=non_allowed,
                kind=job.kind,
                details=(("screened", True),
                         ("certificate", certificate.fingerprint())),
                lts_generated=False,
                duration=0.0,
            )
            stats.engine.screened += 1
        return screened

    def _prepare(self, indexed: Sequence[Tuple[int, AnalysisJob]],
                 stats: FleetStats, model_fps: Dict[int, str],
                 skip=()) -> List[_Shard]:
        """Jobs to deduplicated, content-addressed shards.

        The shard key is the stable hash of the canonical wire
        request, so two jobs asking the same question share one shard
        and one worker answer.
        """
        shards: Dict[str, _Shard] = {}
        skip = frozenset(skip)
        for index, job in indexed:
            if index in skip:
                continue
            if job.options is not None:
                raise FleetError(
                    f"job {job.job_id!r} carries explicit generation "
                    "options, which the wire contract does not ship; "
                    "dispatch it locally or drop the override")
            model_fp = _hash_once(model_fps, job.system)
            request = AnalysisRequest(
                models=(ModelRef(hash=model_fp),),
                user=UserSpec.from_profile(job.user),
                kind=job.kind, params=job.params)
            payload = request.to_dict()
            key = stable_hash(["fleet-shard", payload])
            shard = shards.get(key)
            if shard is not None:
                shard.indices.append(index)
                stats.deduplicated += 1
                continue
            shards[key] = _Shard(key, payload, model_fp, job.system,
                                 index)
        return list(shards.values())

    @staticmethod
    def _absorb_engine(merged: EngineStats,
                       worker_stats: EngineStats) -> None:
        """Fold one worker's engine stats into the fleet's."""
        merged.result_hits += worker_stats.result_hits
        merged.executed += worker_stats.executed
        merged.lts_generations += worker_stats.lts_generations
        merged.lts_reuses += worker_stats.lts_reuses
        merged.screened += worker_stats.screened
        merged.screen_flagged += worker_stats.screen_flagged
        merged.linted += worker_stats.linted
        merged.lint_reuses += worker_stats.lint_reuses
        for kind, count in worker_stats.screened_by_kind.items():
            merged.screened_by_kind[kind] = \
                merged.screened_by_kind.get(kind, 0) + count

    def _alive(self, worker: str) -> bool:
        try:
            self.transport.request(worker, "GET", "/v1/health",
                                   timeout=self.probe_timeout)
        except (TransportError, WireError):
            return False
        return True

    def _outcome(self, indexed: List[Tuple[int, AnalysisJob]],
                 results: Dict[int, JobResult],
                 reports: Dict[str, WorkerReport], stats: FleetStats,
                 started: float) -> FleetOutcome:
        """Job-ordered results plus the merged accounting; an
        unanswered index fails the run."""
        missing = [index for index, _ in indexed
                   if index not in results]
        if missing:
            raise FleetError(
                f"fleet run finished with {len(missing)} unanswered "
                f"job(s), first {missing[:5]}")
        stats.wall_time = self._clock() - started
        merged = stats.engine
        merged.backend = "fleet"
        merged.jobs = len(indexed)
        merged.deduplicated = stats.deduplicated
        merged.wall_time = stats.wall_time
        for _, job in indexed:
            merged.by_kind[job.kind] = \
                merged.by_kind.get(job.kind, 0) + 1
        stats.workers = tuple(reports[worker]
                              for worker in self.workers)
        stats.lost_workers = tuple(
            report.worker for report in stats.workers if report.lost)
        return FleetOutcome(
            results=tuple(results[index] for index, _ in indexed),
            stats=stats)
