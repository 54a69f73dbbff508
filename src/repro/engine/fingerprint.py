"""Staged content fingerprints for models, LTSs and analysis jobs.

The batch engine is content-addressed: a job's cache identity is a
stable hash over everything that determines its outcome. The identity
is built in **stages**, each extending the previous one, so caches can
invalidate at exactly the layer a change touches:

1. **model stage** — the canonical model serialization
   (:func:`model_stage_key`); shared by every job over one model.
2. **LTS stage** — model stage + generation options
   (:func:`lts_stage_key`); the memoisation key of a generated LTS.
3. **analyzer stage** — LTS stage + analysis kind + user + analyzer
   configuration + per-kind parameters (:func:`analyzer_stage_key`);
   the result-cache key of one job.

A change to the analyzer configuration therefore moves only stage-3
keys (the LTS memo stays valid); a change to the model moves all
three. :mod:`repro.engine.incremental` exploits the layering in the
other direction: when a model diff provably leaves the generated LTS
unchanged, the old LTS-stage entry is re-seeded under the new key.

Hashes are sha256 over a canonical JSON encoding (sorted keys, no
whitespace), making them insensitive to dict/set iteration order and
stable across processes and runs — unlike :func:`hash`, which Python
salts per process.
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping, Optional

from ..consent import UserProfile
from ..core import GenerationOptions
from ..dfd import SystemModel, canonical_system_dict


#: Version of the cache payload contract. Part of every stage-2/3 key,
#: so engines with incompatible entry formats (e.g. live objects vs.
#: pickled blobs, result dataclass layouts) sharing one on-disk store
#: can never read each other's entries. Bump on any payload change.
CACHE_FORMAT = 2


def stable_hash(data) -> str:
    """sha256 hex digest of a canonical JSON encoding of ``data``.

    ``data`` must be JSON-encodable (tuples encode as arrays; None,
    numbers, strings, bools nest freely).
    """
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def canonical_params(params: Optional[Mapping]) -> Optional[tuple]:
    """Per-kind job parameters as a canonical, hashable value.

    Mapping iteration order must not influence cache identity, so the
    mapping becomes sorted ``(key, value)`` pairs; list/tuple values
    canonicalise to tuples. Numeric values with no fractional part
    canonicalise to ints: params cross JSON boundaries where ``1`` and
    ``1.0`` are one writer's choice, not two analysis inputs (e.g. a
    score-weight mapping must key the same cache entry either way).
    """
    if params is None:
        return None

    def canon(value):
        if isinstance(value, Mapping):
            return tuple(sorted(
                (str(k), canon(v)) for k, v in value.items()))
        if isinstance(value, (list, tuple, set, frozenset)):
            items = [canon(v) for v in value]
            if isinstance(value, (set, frozenset)):
                items.sort()
            return tuple(items)
        if isinstance(value, float) and value.is_integer():
            return int(value)
        return value

    return canon(params)


# -- stage 1: the model -------------------------------------------------------

def model_fingerprint(system: SystemModel) -> str:
    """The content hash of a system model (stage-1 key).

    Invariant under construction order and description strings (see
    :func:`repro.dfd.canonical_system_dict`); any semantic change —
    a field, a flow, a grant — changes the fingerprint.
    """
    return stable_hash(canonical_system_dict(system))


#: Stage-1 alias — the model fingerprint *is* the model-stage key.
model_stage_key = model_fingerprint


def options_fingerprint(options: Optional[GenerationOptions]) -> str:
    """The content hash of generation options (None hashes too)."""
    if options is None:
        return stable_hash(None)
    return stable_hash(options.cache_key())


def user_fingerprint(user: UserProfile) -> str:
    """The content hash of a user profile's analysis-relevant state."""
    return stable_hash(user.cache_key())


# -- stage 2: the generated LTS -----------------------------------------------

def lts_stage_key(model_fp: str,
                  options: Optional[GenerationOptions]) -> str:
    """The stage-2 key: model stage x generation options.

    This is the memoisation key of a generated LTS; jobs that share it
    share the one frozen LTS the memo holds, regardless of kind, user
    or analyzer configuration.
    """
    return stable_hash(["lts", CACHE_FORMAT, model_fp,
                        options.cache_key() if options else None])


def lts_cache_key(system: SystemModel,
                  options: Optional[GenerationOptions],
                  model_fp: Optional[str] = None) -> str:
    """:func:`lts_stage_key` computed from a model (convenience)."""
    if model_fp is None:
        model_fp = model_fingerprint(system)
    return lts_stage_key(model_fp, options)


def taint_stage_key(model_fp: str,
                    options: Optional[GenerationOptions]) -> str:
    """The taint-screen stage key: model stage x generation options.

    The cache key of a :class:`repro.taint.TaintCertificate` — the
    sibling of :func:`lts_stage_key` at the same layer (both depend on
    exactly model + options), but keyed separately because the two
    stages invalidate differently: a read-grant edit on atoms the
    certificate never tracks moves the LTS key's *contents* (could-read
    display vectors) yet provably leaves the certificate intact, and
    :func:`repro.engine.incremental.reanalyze` re-seeds it.
    """
    from ..taint import CERT_FORMAT
    return stable_hash(["taint", CERT_FORMAT, CACHE_FORMAT, model_fp,
                        options.cache_key() if options else None])


def lint_stage_key(model_fp: str) -> str:
    """The lint pre-flight stage key: model stage x lint rule set.

    The cache key of one model's diagnostic list. Depends on nothing
    but the model and the rule-set version — lint reads no generation
    options, user or analyzer config — so every job over a model
    shares one entry and repeated sweeps never re-lint unchanged
    models. ``LINT_FORMAT`` (imported lazily, mirroring
    :func:`taint_stage_key`) bumps on any rule or diagnostic-schema
    change, invalidating stale cached reports.
    """
    from ..lint import LINT_FORMAT
    return stable_hash(["lint", LINT_FORMAT, CACHE_FORMAT, model_fp])


# -- stage 3: the analysis ----------------------------------------------------

def analyzer_stage_key(lts_key: str, kind: str, user: UserProfile,
                       analyzer_key,
                       params: Optional[Mapping] = None) -> str:
    """The stage-3 key: LTS stage x kind x user x analyzer config.

    ``analyzer_key`` is the kind's own configuration identity (see
    :meth:`repro.engine.kinds.AnalysisKind.analyzer_key`); ``params``
    are per-job kind parameters (e.g. a consent change's agree /
    withdraw lists), canonicalised so mapping order is irrelevant.
    """
    return stable_hash([
        "analysis",
        CACHE_FORMAT,
        kind,
        lts_key,
        user.cache_key(),
        analyzer_key,
        canonical_params(params),
    ])


def job_fingerprint(system: SystemModel,
                    options: Optional[GenerationOptions],
                    user: UserProfile,
                    analyzer_key,
                    model_fp: Optional[str] = None,
                    kind: str = "disclosure",
                    params: Optional[Mapping] = None) -> str:
    """The result-cache key of one analysis job.

    The single definition of the key recipe — the engine and any
    external cache tooling must agree on it. ``model_fp`` lets callers
    reuse an already-computed model fingerprint. Composed strictly from
    the staged keys, so the identity layering documented above is real
    rather than aspirational.
    """
    lts_key = lts_cache_key(system, options, model_fp=model_fp)
    return analyzer_stage_key(lts_key, kind, user, analyzer_key, params)
