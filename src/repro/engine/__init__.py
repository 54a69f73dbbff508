"""Batch risk-assessment engine: fleets of models, analysed at scale.

The paper's method is one model, one user, one report. This package is
the production layer over it:

- a typed **analysis-kind registry** (:mod:`~repro.engine.kinds`)
  makes every lens of the method a first-class engine job —
  ``disclosure`` (III.A), ``pseudonym`` (III.B), ``consent_change``
  what-ifs and ``reidentify`` exposure (V) — each declaring its own
  analyzer cache key, result flattening and fleet aggregation;
- **staged content fingerprints**
  (:mod:`~repro.engine.fingerprint`) layer the cache identity
  (model stage -> LTS stage -> analyzer stage), so each cache
  invalidates at exactly the layer a change touches;
- **pluggable caches** (:mod:`~repro.engine.cache`) memoise generated
  LTSs (one frozen, shared instance per key, in memory) and finished
  reports (in-memory LRU tiered over an on-disk store with an
  age/size-budget eviction lifecycle);
- the :class:`~repro.engine.runner.BatchEngine` executes mixed-kind
  job fleets through serial, thread or process backends with
  deterministic result ordering and per-batch deduplication;
- :mod:`~repro.engine.incremental` turns a
  :class:`~repro.dfd.diff.ModelDiff` into a stage-invalidation plan
  and re-runs only what a model edit actually invalidated;
- the :class:`~repro.engine.scenarios.ScenarioGenerator` manufactures
  seed-deterministic workloads across healthcare, loyalty and scaled
  synthetic templates with Westin-persona user populations;
- the :class:`~repro.engine.aggregate.FleetReport` rolls per-job
  reports into fleet-level summaries: worst-case disclosure paths,
  risk-matrix histograms, per-variant deltas, per-kind rollups.

Quickstart::

    from repro.engine import (BatchEngine, FleetReport,
                              ScenarioGenerator, scenario_jobs)

    scenarios = ScenarioGenerator(seed=7).generate(50)
    engine = BatchEngine(backend="process", cache_dir=".repro-cache")
    batch = engine.run(scenario_jobs(
        scenarios, kinds=("disclosure", "pseudonym")))
    print(FleetReport(batch.results, batch.stats).describe())
"""

from .aggregate import FleetReport
from .cache import (
    CacheEntry,
    CacheStats,
    DiskCache,
    LRUCache,
    PruneReport,
    TieredCache,
    build_cache,
    prune_stores,
    store_report,
)
from .fingerprint import (
    analyzer_stage_key,
    canonical_params,
    job_fingerprint,
    lint_stage_key,
    lts_cache_key,
    lts_stage_key,
    model_fingerprint,
    model_stage_key,
    options_fingerprint,
    stable_hash,
    taint_stage_key,
    user_fingerprint,
)
from .incremental import (
    INVALIDATES_ANALYZERS,
    INVALIDATES_EVERYTHING,
    INVALIDATES_NOTHING,
    InvalidationPlan,
    ReanalysisOutcome,
    certificate_survives,
    classify_invalidation,
    reanalyze,
)
from .jobs import AnalysisJob, JobResult, RiskEventSummary
from .kinds import (
    KINDS,
    AnalysisKind,
    AnalyzerConfig,
    KindOutcome,
    get_kind,
    kind_names,
    register_kind,
)
from .runner import (
    Backend,
    BatchEngine,
    BatchResult,
    EngineStats,
    PreparedJob,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    backend_names,
    get_backend,
    register_backend,
)


def __getattr__(name: str):
    # BACKENDS derives from the live backend registry; resolving it
    # lazily keeps later register_backend() calls visible here too.
    if name == "BACKENDS":
        return backend_names()
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")
from .scenarios import ModelScenario, ScenarioGenerator, scenario_jobs

__all__ = [
    "FleetReport",
    "CacheEntry",
    "CacheStats",
    "DiskCache",
    "LRUCache",
    "PruneReport",
    "TieredCache",
    "build_cache",
    "prune_stores",
    "store_report",
    "analyzer_stage_key",
    "canonical_params",
    "job_fingerprint",
    "lint_stage_key",
    "lts_cache_key",
    "lts_stage_key",
    "model_fingerprint",
    "model_stage_key",
    "options_fingerprint",
    "stable_hash",
    "taint_stage_key",
    "user_fingerprint",
    "INVALIDATES_ANALYZERS",
    "INVALIDATES_EVERYTHING",
    "INVALIDATES_NOTHING",
    "InvalidationPlan",
    "ReanalysisOutcome",
    "certificate_survives",
    "classify_invalidation",
    "reanalyze",
    "AnalysisJob",
    "JobResult",
    "RiskEventSummary",
    "KINDS",
    "AnalysisKind",
    "AnalyzerConfig",
    "KindOutcome",
    "get_kind",
    "kind_names",
    "register_kind",
    "BACKENDS",
    "Backend",
    "BatchEngine",
    "BatchResult",
    "PreparedJob",
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "backend_names",
    "get_backend",
    "register_backend",
    "EngineStats",
    "ModelScenario",
    "ScenarioGenerator",
    "scenario_jobs",
]
