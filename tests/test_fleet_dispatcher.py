"""Fleet dispatcher: placement, retry, rebalance, merge equivalence.

The acceptance bar throughout: a sweep dispatched across workers —
including under injected worker loss — produces results whose
``signature()`` sequence is byte-identical to the same sweep run on a
single-node :class:`BatchEngine`.
"""

import json
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.core import GenerationOptions
from repro.engine import (
    AnalysisJob,
    BatchEngine,
    ScenarioGenerator,
    kind_names,
    model_fingerprint,
    scenario_jobs,
)
from repro.fleet import (
    FleetDispatcher,
    FleetError,
    HashRing,
    LoopbackTransport,
    RemoteQueueBackend,
    TransportError,
    WireError,
)
from repro.service import AnalysisService, RequestError, SweepRequest


def make_jobs(count=6, personas=2, seed=7, kinds=("disclosure",)):
    scenarios = ScenarioGenerator(
        seed=seed, personas_per_scenario=personas).generate(count)
    return scenario_jobs(scenarios, kinds=kinds)


def single_node_signatures(tmp_path, **kwargs):
    engine = BatchEngine(cache_dir=str(tmp_path / "single-node"))
    batch = engine.run(make_jobs(**kwargs))
    return [result.signature() for result in batch.results]


@pytest.fixture
def fleet(tmp_path):
    services = {
        name: AnalysisService(backend="serial",
                              cache_dir=str(tmp_path / name))
        for name in ("alpha", "beta", "gamma")
    }
    transport = LoopbackTransport(services)
    yield services, transport
    for service in services.values():
        service.close()


def job_owners(jobs, workers=("alpha", "beta", "gamma")):
    """Jobs per worker under the dispatcher's deterministic ring."""
    ring = HashRing(list(workers))
    owners = {}
    for job in jobs:
        owner = ring.assign(model_fingerprint(job.system))
        owners[owner] = owners.get(owner, 0) + 1
    return owners


def stream_readers():
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("fleet-stream-")]


def wait_for_readers(seconds):
    deadline = time.monotonic() + seconds
    while stream_readers() and time.monotonic() < deadline:
        time.sleep(0.02)
    return stream_readers()


def make_dispatcher(transport, workers=("alpha", "beta", "gamma"),
                    **kwargs):
    kwargs.setdefault("backoff_base", 0.0)
    kwargs.setdefault("timeout", 30.0)
    return FleetDispatcher(list(workers), transport, **kwargs)


class TestHashRing:
    def test_assignment_is_deterministic(self):
        one = HashRing(["a", "b", "c"])
        two = HashRing(["c", "b", "a"])
        keys = [f"key-{i}" for i in range(40)]
        assert [one.assign(k) for k in keys] == \
            [two.assign(k) for k in keys]

    def test_every_worker_owns_some_keys(self):
        ring = HashRing(["a", "b", "c"])
        owners = {ring.assign(f"key-{i}") for i in range(200)}
        assert owners == {"a", "b", "c"}

    def test_removal_moves_only_the_lost_workers_keys(self):
        ring = HashRing(["a", "b", "c"])
        keys = [f"key-{i}" for i in range(200)]
        before = {k: ring.assign(k) for k in keys}
        smaller = ring.without("b")
        assert smaller.workers == ("a", "c")
        for key in keys:
            if before[key] != "b":
                assert smaller.assign(key) == before[key]
            else:
                assert smaller.assign(key) in ("a", "c")

    def test_empty_ring_refuses_assignment(self):
        with pytest.raises(FleetError, match="no live workers"):
            HashRing([]).assign("key")

    def test_replicas_validated(self):
        with pytest.raises(ValueError, match="replicas"):
            HashRing(["a"], replicas=0)


class TestDispatchEquivalence:
    def test_fleet_signatures_match_single_node(self, fleet, tmp_path):
        services, transport = fleet
        outcome = make_dispatcher(transport).run(make_jobs())
        assert list(outcome.signatures()) == \
            single_node_signatures(tmp_path)

    def test_sweep_entry_point_matches_run(self, fleet, tmp_path):
        from repro.service.messages import SweepRequest
        _, transport = fleet
        request = SweepRequest(count=6, seed=7, personas=2,
                               kinds=("disclosure",))
        outcome = make_dispatcher(transport).sweep(request)
        assert list(outcome.signatures()) == \
            single_node_signatures(tmp_path)

    def test_mixed_kinds_match_single_node(self, fleet, tmp_path):
        _, transport = fleet
        kinds = ("disclosure", "pseudonym")
        outcome = make_dispatcher(transport).run(
            make_jobs(kinds=kinds))
        assert list(outcome.signatures()) == \
            single_node_signatures(tmp_path, kinds=kinds)
        assert set(outcome.stats.engine.by_kind) == set(kinds)

    def test_labels_and_order_mirror_the_jobs(self, fleet):
        _, transport = fleet
        jobs = make_jobs()
        outcome = make_dispatcher(transport).run(jobs)
        assert len(outcome.results) == len(jobs)
        for job, result in zip(jobs, outcome.results):
            assert result.job_id == job.job_id
            assert result.scenario == job.scenario
            assert result.family == job.family
            assert result.variant == job.variant

    def test_work_spreads_across_workers(self, fleet):
        _, transport = fleet
        outcome = make_dispatcher(transport).run(
            make_jobs(count=24, personas=1))
        dispatched = {report.worker: report.dispatched
                      for report in outcome.stats.workers}
        assert sum(dispatched.values()) == 24
        assert sum(1 for n in dispatched.values() if n) >= 2

    def test_duplicate_jobs_dedupe_into_one_shard(self, fleet):
        _, transport = fleet
        jobs = make_jobs(count=2, personas=1)
        clones = list(jobs) + [
            AnalysisJob(system=job.system, user=job.user,
                        kind=job.kind, params=job.params,
                        scenario="clone", family="clone",
                        variant="clone")
            for job in jobs
        ]
        outcome = make_dispatcher(transport).run(clones)
        assert outcome.stats.shards == len(jobs)
        assert outcome.stats.deduplicated == len(jobs)
        assert outcome.stats.engine.deduplicated == len(jobs)
        originals = outcome.results[:len(jobs)]
        duplicates = outcome.results[len(jobs):]
        for original, duplicate in zip(originals, duplicates):
            assert duplicate.signature() == original.signature()
            assert duplicate.from_cache
            assert duplicate.scenario == "clone"

    def test_outcome_serializes_to_json(self, fleet):
        _, transport = fleet
        outcome = make_dispatcher(transport).run(
            make_jobs(count=2, personas=1))
        payload = json.loads(json.dumps(outcome.to_dict()))
        assert payload["fleet"]["jobs"] == 2
        assert {entry["worker"] for entry in
                payload["fleet"]["workers"]} == \
            {"alpha", "beta", "gamma"}
        assert "describe" not in payload["report"]
        assert "jobs" in outcome.stats.describe()

    def test_probe_snapshots_worker_load(self, fleet):
        _, transport = fleet
        outcome = make_dispatcher(transport).run(
            make_jobs(count=2, personas=1))
        for report in outcome.stats.workers:
            assert report.load is not None
            assert report.load.max_jobs > 0
            assert report.load.in_flight == 0


class TestFleetLint:
    """Coordinator-side strict lint: nothing crosses the wire for a
    refused fleet, accounting matches single-node pre-flight."""

    def test_clean_fleet_lints_and_proceeds(self, fleet, tmp_path):
        _, transport = fleet
        jobs = make_jobs()
        outcome = make_dispatcher(transport).run(jobs, lint="strict")
        assert list(outcome.signatures()) == \
            single_node_signatures(tmp_path)
        distinct = len({id(job.system) for job in jobs})
        assert outcome.stats.engine.linted == distinct

    def test_strict_refusal_before_any_dispatch(self, fleet):
        from repro.dfd import SystemBuilder
        from repro.engine import AnalysisJob
        from repro.consent import UserProfile
        from repro.errors import LintError
        services, transport = fleet
        bad = (SystemBuilder("bad").schema("S", ["a"]).actor("A")
               .datastore("D", "S").service("svc")
               .flow(1, "User", "Ghost", ["a"])
               .build(validate=False))
        jobs = [AnalysisJob(
            system=bad,
            user=UserProfile("u", agreed_services=["svc"]))]
        with pytest.raises(LintError) as excinfo:
            make_dispatcher(transport).run(jobs, lint="strict")
        assert excinfo.value.diagnostics
        # Refusal happened before the probe/dispatch phases: no
        # worker's engine saw a job.
        for service in services.values():
            assert service.engine.result_cache.stats.puts == 0

    def test_warn_mode_never_refuses(self, fleet):
        from repro.dfd import SystemBuilder
        from repro.engine import AnalysisJob
        from repro.consent import UserProfile
        _, transport = fleet
        good_jobs = make_jobs(count=2, personas=1)
        outcome = make_dispatcher(transport).run(good_jobs,
                                                 lint="warn")
        assert len(outcome.results) == len(good_jobs)
        assert outcome.stats.engine.linted > 0

    def test_invalid_lint_value_raises(self, fleet):
        _, transport = fleet
        with pytest.raises(ValueError, match="lint"):
            make_dispatcher(transport).run([], lint="loud")

    def test_sweep_strict_lint_flag_is_wired(self, fleet, tmp_path):
        from repro.service.messages import SweepRequest
        _, transport = fleet
        request = SweepRequest(count=4, seed=7, personas=1,
                               kinds=("disclosure",),
                               strict_lint=True)
        outcome = make_dispatcher(transport).sweep(request)
        assert len(outcome.results) == 4
        assert outcome.stats.engine.linted > 0


class TestFailureHandling:
    def test_transient_drop_retries_same_worker(self, fleet,
                                                tmp_path):
        _, transport = fleet
        # Fail exactly one analysis call, leaving health probes (and
        # every later exchange) intact — the shards must retry on the
        # same worker, not rebalance.
        original = transport.request
        dropped = []

        def flaky(worker, method, path, payload=None, timeout=30.0):
            if path == "/v1/analyze" and method == "POST" \
                    and not dropped:
                dropped.append(worker)
                raise TransportError(worker, "transient drop")
            return original(worker, method, path, payload, timeout)

        transport.request = flaky
        outcome = make_dispatcher(transport).run(make_jobs())
        assert dropped
        assert outcome.stats.retries >= 1
        assert outcome.stats.rebalances == 0
        assert outcome.stats.lost_workers == ()
        assert list(outcome.signatures()) == \
            single_node_signatures(tmp_path)

    def test_worker_lost_mid_sweep_rebalances(self, fleet, tmp_path):
        _, transport = fleet
        # Pick a worker that will certainly own shards (the ring is
        # deterministic), keep it healthy through its probe plus a
        # few exchanges, then kill it for good: the dispatcher must
        # declare it lost, rebalance its shards onto the survivors
        # and still merge a full report.
        jobs = make_jobs()
        ring = HashRing(["alpha", "beta", "gamma"])
        owners = {ring.assign(model_fingerprint(job.system))
                  for job in jobs}
        victim = sorted(owners)[0]
        transport.fail_after(victim, 5)
        outcome = make_dispatcher(transport, max_attempts=6).run(jobs)
        assert victim in outcome.stats.lost_workers
        lost = next(report for report in outcome.stats.workers
                    if report.worker == victim)
        assert lost.lost
        assert outcome.stats.rebalances >= 1
        assert list(outcome.signatures()) == \
            single_node_signatures(tmp_path)

    def test_worker_dead_at_probe_is_excluded(self, fleet, tmp_path):
        _, transport = fleet
        transport.kill("gamma")
        outcome = make_dispatcher(transport).run(make_jobs())
        assert "gamma" in outcome.stats.lost_workers
        gamma = next(report for report in outcome.stats.workers
                     if report.worker == "gamma")
        assert gamma.dispatched == 0
        assert list(outcome.signatures()) == \
            single_node_signatures(tmp_path)

    def test_all_workers_dead_raises(self, fleet):
        _, transport = fleet
        for worker in ("alpha", "beta", "gamma"):
            transport.kill(worker)
        with pytest.raises(FleetError, match="no live workers"):
            make_dispatcher(transport).run(make_jobs(count=1,
                                                     personas=1))

    def test_every_worker_lost_mid_sweep_raises(self, fleet):
        _, transport = fleet
        transport.fail_after("alpha", 2)
        transport.fail_after("beta", 2)
        transport.fail_after("gamma", 2)
        with pytest.raises(FleetError):
            make_dispatcher(transport, max_attempts=10).run(
                make_jobs())

    def test_shard_attempts_are_capped(self, fleet):
        _, transport = fleet
        dispatcher = make_dispatcher(
            transport, workers=("alpha",), max_attempts=2)
        # Probe passes, every dispatch fails, health re-probes pass:
        # the shard burns its attempts on one live-but-flaky worker.
        jobs = make_jobs(count=1, personas=1)
        original = transport.request

        def flaky(worker, method, path, payload=None, timeout=30.0):
            if path in ("/v1/models", "/v1/analyze"):
                raise TransportError(worker, "flaky dispatch")
            return original(worker, method, path, payload, timeout)

        transport.request = flaky
        with pytest.raises(FleetError, match="dispatch attempts"):
            dispatcher.run(jobs)

    def test_analysis_error_fails_fast(self, fleet):
        _, transport = fleet
        jobs = make_jobs(count=1, personas=1)
        bad = AnalysisJob(system=jobs[0].system, user=jobs[0].user,
                          kind="consent_change",
                          params={"withdraw": ["NoSuchService"]})
        with pytest.raises(FleetError, match="failed on worker"):
            make_dispatcher(transport).run([bad])

    def test_explicit_generation_options_are_refused(self, fleet):
        _, transport = fleet
        job = make_jobs(count=1, personas=1)[0]
        wired = AnalysisJob(system=job.system, user=job.user,
                            options=GenerationOptions(),
                            kind=job.kind)
        with pytest.raises(FleetError, match="generation options"):
            make_dispatcher(transport).run([wired])

    def test_loopback_errors_match_the_http_transport(self, fleet,
                                                      monkeypatch):
        """Refusals keep their status; a mid-stream error is a 500,
        as HttpTransport reports any ndjson error line."""
        services, transport = fleet
        with pytest.raises(WireError) as refused:
            transport.stream("alpha", "/v1/sweep", {"count": -4})
        assert (refused.value.status, refused.value.code) == \
            (400, "bad_request")

        def failing(request, should_stop=None):
            yield {"index": 0}
            raise RequestError("gone mid-stream")

        monkeypatch.setattr(services["alpha"], "sweep_stream", failing)
        lines = transport.stream("alpha", "/v1/sweep", {"count": 1})
        assert next(lines) == {"index": 0}
        with pytest.raises(WireError) as mid:
            next(lines)
        assert (mid.value.status, mid.value.code) == \
            (500, "bad_request")
        with pytest.raises(TransportError, match="unsupported method"):
            transport.request("alpha", "PUT", "/v1/models")


class TestSweepStream:
    """The one dispatch path under worker faults: every streamed sweep
    equals the single-node run or raises a typed error, and no reader
    thread outlives it."""

    REQUEST = SweepRequest(count=6, seed=7, personas=2,
                           kinds=("disclosure",))

    def test_stream_matches_single_node(self, fleet, tmp_path):
        _, transport = fleet
        *results, (kind, outcome) = \
            make_dispatcher(transport).sweep_stream(self.REQUEST)
        assert kind == "summary"
        assert sorted(index for _, index, _ in results) == \
            list(range(12))
        assert list(outcome.signatures()) == \
            single_node_signatures(tmp_path)
        assert not any(path == "/v1/models"
                       for _, _, path in transport.calls)

    def test_worker_lost_mid_stream_rebalances(self, fleet, tmp_path):
        _, transport = fleet
        owners = job_owners(make_jobs())
        victim = max(sorted(owners), key=owners.get)
        assert owners[victim] >= 2
        # The probe, the stream connect and one result line pass;
        # the next line finds the worker dead for good.
        transport.fail_after(victim, 3)
        *results, (_, outcome) = \
            make_dispatcher(transport).sweep_stream(self.REQUEST)
        indices = [index for _, index, _ in results]
        assert sorted(indices) == list(range(12))
        assert victim in outcome.stats.lost_workers
        assert outcome.stats.rebalances >= 1
        lost = next(report for report in outcome.stats.workers
                    if report.worker == victim)
        assert lost.completed >= 1
        assert list(outcome.signatures()) == \
            single_node_signatures(tmp_path)

    def test_worker_lost_at_stream_connect_recovers(self, fleet,
                                                    tmp_path):
        _, transport = fleet
        owners = job_owners(make_jobs())
        victim = sorted(owners)[0]
        transport.fail_after(victim, 1)
        *_, (_, outcome) = \
            make_dispatcher(transport).sweep_stream(self.REQUEST)
        assert victim in outcome.stats.lost_workers
        assert outcome.stats.rebalances == owners[victim]
        assert list(outcome.signatures()) == \
            single_node_signatures(tmp_path)

    def test_transient_stream_drop_retries_same_worker(self, fleet,
                                                       tmp_path):
        _, transport = fleet
        original = transport.stream
        dropped = []

        def flaky(worker, path, payload=None, timeout=30.0):
            if not dropped:
                dropped.append(worker)
                raise TransportError(worker, "transient drop")
            return original(worker, path, payload, timeout)

        transport.stream = flaky
        outcome = make_dispatcher(transport).sweep(self.REQUEST)
        assert dropped
        assert outcome.stats.retries >= 1
        assert outcome.stats.rebalances == 0
        assert outcome.stats.lost_workers == ()
        assert list(outcome.signatures()) == \
            single_node_signatures(tmp_path)

    def test_many_readers_yield_each_index_once(self, tmp_path):
        # More reader threads than cores, a tiny switch interval and a
        # worker lost mid-stream: the answers still merge exactly once.
        workers = tuple(f"w{number}" for number in range(6))
        services = {name: AnalysisService(
            backend="serial", cache_dir=str(tmp_path / name))
            for name in workers}
        transport = LoopbackTransport(services)
        owners = job_owners(make_jobs(), workers)
        transport.fail_after(max(sorted(owners), key=owners.get), 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            *results, (_, outcome) = make_dispatcher(
                transport, workers=workers).sweep_stream(self.REQUEST)
        finally:
            sys.setswitchinterval(interval)
            for service in services.values():
                service.close()
        assert sorted(index for _, index, _ in results) == \
            list(range(12))
        assert sum(report.completed for report
                   in outcome.stats.workers) == outcome.stats.shards
        assert list(outcome.signatures()) == \
            single_node_signatures(tmp_path)

    def test_indices_screen_only_the_selection(self, fleet):
        _, transport = fleet
        request = SweepRequest(count=10, personas=2,
                               kinds=tuple(kind_names()), screen=True,
                               seed=3, indices=(0, 1, 2))
        *_, (_, outcome) = \
            make_dispatcher(transport).sweep_stream(request)
        engine = outcome.stats.engine
        assert outcome.stats.jobs == 3
        assert [result.job_id for result in outcome.results] == \
            ["job-0000", "job-0001", "job-0002"]
        assert engine.screened + engine.screen_flagged <= 3

    @staticmethod
    def slow_streams(transport, refuse, seconds_per_line):
        """Streams that refuse on ``refuse`` and crawl elsewhere."""
        original = transport.stream

        def stream(worker, path, payload=None, timeout=30.0):
            if worker == refuse:
                raise WireError(worker, 400, {
                    "code": "invalid_request", "message": "refused"})

            def lines():
                for line in original(worker, path, payload, timeout):
                    time.sleep(seconds_per_line)
                    yield line

            return lines()

        transport.stream = stream

    def test_no_reader_outlives_a_failed_sweep(self, fleet):
        _, transport = fleet
        refuse = sorted(job_owners(make_jobs()))[0]
        self.slow_streams(transport, refuse, seconds_per_line=0.3)
        dispatcher = make_dispatcher(transport, timeout=0.5)
        with pytest.raises(FleetError, match="failed on worker"):
            list(dispatcher.sweep_stream(self.REQUEST))
        assert wait_for_readers(dispatcher.timeout) == []

    def test_closing_the_stream_closes_every_exchange(self, fleet):
        _, transport = fleet
        self.slow_streams(transport, None, seconds_per_line=0.3)
        dispatcher = make_dispatcher(transport, timeout=0.5)
        events = dispatcher.sweep_stream(self.REQUEST)
        assert next(events)[0] == "result"
        events.close()
        assert wait_for_readers(dispatcher.timeout) == []


class TestHashOnce:
    """A screened sweep hashes each distinct model content once on the
    coordinator and once across the workers, because a fleet's
    scenarios share one model object per template."""

    REQUEST = SweepRequest(count=30, seed=11, personas=2, screen=True,
                           kinds=tuple(kind_names()))

    @staticmethod
    def _count(monkeypatch, module, counts, side):
        original = module.model_fingerprint
        lock = threading.Lock()

        def counting(system):
            with lock:
                counts[side] += 1
            return original(system)

        monkeypatch.setattr(module, "model_fingerprint", counting)

    def test_each_content_is_hashed_once_per_side(self, monkeypatch):
        from repro.engine import runner
        from repro.fleet import dispatcher
        from repro.service import facade
        distinct = len({model_fingerprint(job.system) for job in
                        make_jobs(count=30, seed=11)})
        services = {name: AnalysisService(backend="serial")
                    for name in ("alpha", "beta")}
        counts = {"coordinator": 0, "workers": 0}
        self._count(monkeypatch, dispatcher, counts, "coordinator")
        self._count(monkeypatch, facade, counts, "workers")
        self._count(monkeypatch, runner, counts, "workers")
        try:
            outcome = make_dispatcher(
                LoopbackTransport(services),
                workers=("alpha", "beta")).sweep(self.REQUEST)
        finally:
            for service in services.values():
                service.close()
        assert len(outcome.results) == 60
        assert outcome.stats.engine.screened > 0
        assert 0 < counts["coordinator"] <= distinct
        assert 0 < counts["workers"] <= distinct

    def test_shared_models_race_free_on_threads(self, monkeypatch):
        # Eight thread workers on ~10 shared models: concurrent first
        # reads of the lazy ACL index and role closures. Building a
        # model validates it, which compiles its ACL index on the
        # calling thread, so drop both memos to make the workers race
        # for them (unscreened: no certificate builds them first).
        request = replace(self.REQUEST, screen=False)
        serial = AnalysisService(backend="serial").sweep(request)
        original = ScenarioGenerator.generate

        def cold(generator, count):
            scenarios = original(generator, count)
            for scenario in scenarios:
                scenario.system.policy.acl._index = None
                scenario.system.policy.rbac._held = {}
            return scenarios

        monkeypatch.setattr(ScenarioGenerator, "generate", cold)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threaded = AnalysisService(backend="thread", workers=8)
        try:
            response = threaded.sweep(request)
        finally:
            sys.setswitchinterval(interval)
            threaded.close()
        assert [r.signature() for r in response.results] == \
            [r.signature() for r in serial.results]


class TestRemoteQueueBackend:
    def test_engine_runs_misses_on_the_fleet(self, fleet, tmp_path):
        _, transport = fleet
        backend = RemoteQueueBackend(make_dispatcher(transport))
        engine = BatchEngine(backend=backend,
                             cache_dir=str(tmp_path / "coord"))
        batch = engine.run(make_jobs())
        assert batch.stats.backend == "fleet"
        assert batch.stats.executed == len(batch.results)
        assert [r.signature() for r in batch.results] == \
            single_node_signatures(tmp_path)
        assert backend.last_outcome is not None

    def test_lts_counts_match_a_single_node(self, fleet, tmp_path):
        """Each worker's per-job memo reuse reaches the coordinator's
        stats, so a fleet-backed engine counts what one node counts."""
        _, transport = fleet
        kinds = ("disclosure", "consent_change", "population")
        backend = RemoteQueueBackend(make_dispatcher(transport))
        engine = BatchEngine(backend=backend,
                             cache_dir=str(tmp_path / "coord"))
        stats = engine.run(make_jobs(kinds=kinds)).stats
        single = BatchEngine().run(make_jobs(kinds=kinds)).stats
        assert (stats.lts_generations, stats.lts_reuses) == \
            (single.lts_generations, single.lts_reuses) == (8, 4)
        assert stats.lts_reuses == \
            backend.last_outcome.stats.engine.lts_reuses

    def test_second_run_is_all_coordinator_cache_hits(self, fleet,
                                                      tmp_path):
        _, transport = fleet
        backend = RemoteQueueBackend(make_dispatcher(transport))
        engine = BatchEngine(backend=backend,
                             cache_dir=str(tmp_path / "coord"))
        engine.run(make_jobs())
        calls_after_first = len(transport.calls)
        again = engine.run(make_jobs())
        assert again.stats.result_hits == len(again.results)
        assert again.stats.executed == 0
        assert len(transport.calls) == calls_after_first

    def test_single_miss_still_dispatches_remotely(self, fleet,
                                                   tmp_path):
        _, transport = fleet
        backend = RemoteQueueBackend(make_dispatcher(transport))
        engine = BatchEngine(backend=backend,
                             cache_dir=str(tmp_path / "coord"))
        batch = engine.run(make_jobs(count=1, personas=1))
        assert batch.stats.executed == 1
        assert any(path == "/v1/analyze" for _, _, path
                   in transport.calls)

    def test_fingerprint_skew_is_detected(self, fleet, tmp_path):
        from dataclasses import replace

        _, transport = fleet

        class SkewedDispatcher(FleetDispatcher):
            def run(self, jobs):
                outcome = super().run(jobs)
                poisoned = tuple(
                    replace(result, fingerprint="f" * 64)
                    for result in outcome.results)
                return replace(outcome, results=poisoned)

        backend = RemoteQueueBackend(SkewedDispatcher(
            ["alpha"], transport))
        engine = BatchEngine(backend=backend,
                             cache_dir=str(tmp_path / "coord"))
        with pytest.raises(FleetError, match="version skew"):
            engine.run(make_jobs(count=1, personas=1))
