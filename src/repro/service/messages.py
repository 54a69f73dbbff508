"""The service wire contract: typed requests, responses and errors.

Every operation of the :class:`~repro.service.facade.AnalysisService`
speaks these value objects. Each one round-trips through plain JSON —
``to_dict()`` emits only JSON-encodable values, ``from_dict()``
validates the payload against the message's declared field schema and
rebuilds the object — so the HTTP front-end, the CLI's ``--json``
output and any future remote-queue backend share one serialization.

Validation is declarative: every message declares its fields as
``(types, required, default)`` specs checked by :func:`check_payload`;
violations raise :class:`RequestError` with a message naming the
offending field, never a traceback.

The response side formalises the engine's ``(fingerprint, JobResult)``
seam as a wire format: :func:`result_to_dict` / :func:`result_from_dict`
translate a :class:`~repro.engine.jobs.JobResult` losslessly — a
decoded result reproduces ``signature()`` byte-identically, which is
the contract that lets clients compare service output against local
runs.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field as dc_field
from typing import Any, Dict, Optional, Sequence, Tuple

from ..consent import UserProfile
from ..engine.cache import CacheStats, PruneReport
from ..engine.incremental import reanalysis_summary
from ..engine.jobs import JobResult, RiskEventSummary
from ..engine.runner import EngineStats
from ..errors import ReproError


# -- errors -------------------------------------------------------------------

class ServiceError(ReproError):
    """A service operation failed in a way the caller can act on.

    ``code`` is the machine-readable discriminator of the wire format;
    ``http_status`` maps the error onto the HTTP front-end; the CLI
    exits with ``exit_code``.
    """

    code = "service_error"
    http_status = 500
    exit_code = 2

    def to_dict(self) -> dict:
        return {"error": {"code": self.code, "message": str(self)}}


class RequestError(ServiceError):
    """The request payload is malformed or names unknown entities."""

    code = "bad_request"
    http_status = 400


class InvalidModelError(ServiceError):
    """A referenced model failed parsing or structural validation."""

    code = "invalid_model"
    http_status = 422

    def __init__(self, message: str, issues: Sequence = ()):
        super().__init__(message)
        self.issues = tuple(str(issue) for issue in issues)

    def to_dict(self) -> dict:
        payload = super().to_dict()
        if self.issues:
            payload["error"]["issues"] = list(self.issues)
        return payload


class NotFoundError(ServiceError):
    """A referenced resource (model hash, job id) does not exist."""

    code = "not_found"
    http_status = 404


class UnauthorizedError(ServiceError):
    """The request failed the front-end's auth hook."""

    code = "unauthorized"
    http_status = 401


class DeadlineError(ServiceError):
    """The request exceeded the front-end's time budget."""

    code = "deadline_exceeded"
    http_status = 408


class RateLimitedError(ServiceError):
    """The front-end's token bucket refused the request.

    Retryable by the caller after a pause — the request itself is
    fine, the *rate* is not.
    """

    code = "rate_limited"
    http_status = 429


class OverloadedError(ServiceError):
    """The front-end shed the request: its work queue is full.

    Distinct from :class:`RateLimitedError` so clients can tell
    policy (slow down) from capacity (back off or go elsewhere).
    """

    code = "overloaded"
    http_status = 429


def error_reply(error: BaseException) -> Tuple[int, dict]:
    """The wire answer to a failed operation: ``(status, body)``.

    A :class:`ServiceError` answers its declared status and payload.
    Any other :class:`ReproError` is an engine-level input problem
    (bad kind params, unknown agreed services, ...), so the caller's
    to fix: 400 ``analysis_error``. Anything else is a server fault:
    500 ``internal``.
    """
    if isinstance(error, ServiceError):
        return error.http_status, error.to_dict()
    if isinstance(error, ReproError):
        return 400, {"error": {"code": "analysis_error",
                               "message": str(error)}}
    return 500, {"error": {"code": "internal", "message": str(error)}}


# -- declarative payload validation ------------------------------------------

#: One field spec: (accepted types, required, default).
FieldSpec = Tuple[tuple, bool, Any]


def check_payload(payload, fields: Mapping[str, FieldSpec],
                  where: str) -> Dict[str, Any]:
    """Validate ``payload`` against a field-spec mapping.

    Rejects non-mapping payloads, unknown fields, missing required
    fields and type mismatches; fills defaults for absent optionals.
    ``bool`` is never accepted where a number is expected (Python's
    bool/int subclassing would silently let ``true`` through).
    """
    if not isinstance(payload, Mapping):
        raise RequestError(
            f"{where}: expected a JSON object, got "
            f"{type(payload).__name__}")
    unknown = sorted(set(payload) - set(fields))
    if unknown:
        raise RequestError(f"{where}: unknown field(s) {unknown}; "
                           f"accepted: {sorted(fields)}")
    checked: Dict[str, Any] = {}
    for name, (types, required, default) in fields.items():
        value = payload.get(name)
        if value is None:
            if required:
                raise RequestError(
                    f"{where}: missing required field {name!r}")
            checked[name] = default
            continue
        if isinstance(value, bool) and bool not in types:
            raise RequestError(
                f"{where}: field {name!r} must be "
                f"{_type_names(types)}, got a boolean")
        if types and not isinstance(value, tuple(types)):
            raise RequestError(
                f"{where}: field {name!r} must be "
                f"{_type_names(types)}, got {type(value).__name__}")
        checked[name] = value
    return checked


def _type_names(types) -> str:
    names = sorted({"object" if t is Mapping or t is dict else t.__name__
                    for t in types})
    return " or ".join(names)


def _string_tuple(value, where: str, name: str) -> Tuple[str, ...]:
    if not isinstance(value, (list, tuple)):
        raise RequestError(
            f"{where}: field {name!r} must be a list of strings")
    for item in value:
        if not isinstance(item, str):
            raise RequestError(
                f"{where}: field {name!r} must contain only strings, "
                f"got {type(item).__name__}")
    return tuple(value)


def _decoded(where: str, build):
    """Run a decode body, typing its failures.

    Decoders promise :class:`RequestError`, never a traceback — but
    version-skewed or misbehaving peers can ship payloads whose
    *nested* shapes (constructor kwargs, event tuples) no declarative
    spec covers. Anything those raise becomes a structured error
    naming the message."""
    try:
        return build()
    except RequestError:
        raise
    except (TypeError, KeyError, IndexError, ValueError) as error:
        raise RequestError(
            f"{where}: malformed payload: {error}") from error


def tuplify(value):
    """Lists (from JSON arrays) back to tuples, recursively.

    The engine's flattened payloads (`details`, event fields, paths)
    are nested tuples of scalars; JSON round-trips them as lists. This
    restores the exact original shape, so decoded results reproduce
    ``JobResult.signature()`` byte-identically.
    """
    if isinstance(value, (list, tuple)):
        return tuple(tuplify(item) for item in value)
    return value


# -- model references ---------------------------------------------------------

@dataclass(frozen=True)
class ModelRef:
    """One way of naming a system model: inline DSL text, the content
    hash of a previously uploaded model, or a server-local file path
    (paths are CLI-only — the HTTP layer parses with
    ``allow_paths=False`` so remote callers cannot read server files).
    ``label`` badges the results (display-only; never cache identity).
    """

    text: Optional[str] = None
    hash: Optional[str] = None
    path: Optional[str] = None
    label: Optional[str] = None

    FIELDS = {
        "text": ((str,), False, None),
        "hash": ((str,), False, None),
        "path": ((str,), False, None),
        "label": ((str,), False, None),
    }

    def __post_init__(self):
        given = [name for name in ("text", "hash", "path")
                 if getattr(self, name) is not None]
        if len(given) != 1:
            raise RequestError(
                "model reference needs exactly one of text/hash/path, "
                f"got {given or 'none'}")

    def to_dict(self) -> dict:
        payload = {}
        for name in ("text", "hash", "path", "label"):
            value = getattr(self, name)
            if value is not None:
                payload[name] = value
        return payload

    @classmethod
    def from_dict(cls, payload, allow_paths: bool = True,
                  where: str = "model") -> "ModelRef":
        checked = check_payload(payload, cls.FIELDS, where)
        if not allow_paths and checked["path"] is not None:
            raise RequestError(
                f"{where}: file-path model references are not "
                "accepted over the wire; upload the model text and "
                "reference it by hash")
        return cls(**checked)


# -- user specification -------------------------------------------------------

@dataclass(frozen=True)
class UserSpec:
    """A :class:`~repro.consent.UserProfile` as wire data.

    ``sensitivities`` maps field name to a numeric sigma or a category
    name (``low``/``medium``/``high``), exactly like the CLI's
    ``--sensitivity`` pairs.
    """

    name: str = "user"
    agree: Tuple[str, ...] = ()
    sensitivities: Tuple[Tuple[str, Any], ...] = ()
    default_sensitivity: float = 0.0
    acceptable: str = "low"

    FIELDS = {
        "name": ((str,), False, "user"),
        "agree": ((list, tuple), False, ()),
        "sensitivities": ((Mapping,), False, {}),
        "default_sensitivity": ((int, float), False, 0.0),
        "acceptable": ((str,), False, "low"),
    }

    def to_profile(self) -> UserProfile:
        return UserProfile(
            self.name,
            agreed_services=self.agree,
            sensitivities=dict(self.sensitivities),
            default_sensitivity=self.default_sensitivity,
            acceptable_risk=self.acceptable,
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "agree": list(self.agree),
            "sensitivities": {field: value
                              for field, value in self.sensitivities},
            "default_sensitivity": self.default_sensitivity,
            "acceptable": self.acceptable,
        }

    @classmethod
    def from_profile(cls, profile: UserProfile) -> "UserSpec":
        """The wire spec of a live profile.

        Exact inverse of :meth:`to_profile` at the analysis level:
        the rebuilt profile reproduces ``UserProfile.cache_key()``
        byte-identically (sensitivities flatten to their resolved
        numeric sigmas), which is what lets a fleet dispatcher ship a
        locally generated scenario user to a remote worker without
        forking the job's cache identity.
        """
        return cls(
            name=profile.name,
            agree=profile.agreed_services,
            sensitivities=tuple(sorted(
                (field, profile.sensitivity.sigma(field))
                for field in profile.sensitivity.fields())),
            default_sensitivity=profile.sensitivity.default,
            acceptable=profile.acceptable_risk.value,
        )

    @classmethod
    def from_dict(cls, payload, where: str = "user") -> "UserSpec":
        checked = check_payload(payload, cls.FIELDS, where)
        sensitivities = []
        for field, value in checked["sensitivities"].items():
            if not isinstance(value, (int, float, str)) or \
                    isinstance(value, bool):
                raise RequestError(
                    f"{where}: sensitivity for {field!r} must be a "
                    "number or category name")
            sensitivities.append((str(field), value))
        try:
            acceptable = checked["acceptable"]
            UserProfile("probe", acceptable_risk=acceptable)
        except (ValueError, KeyError):
            raise RequestError(
                f"{where}: unknown acceptable risk level "
                f"{checked['acceptable']!r}") from None
        return cls(
            name=checked["name"],
            agree=_string_tuple(checked["agree"], where, "agree"),
            sensitivities=tuple(sorted(sensitivities)),
            default_sensitivity=float(checked["default_sensitivity"]),
            acceptable=acceptable,
        )


# -- requests -----------------------------------------------------------------

def _canonical_params(params) -> Optional[dict]:
    if params is None:
        return None
    if not isinstance(params, Mapping):
        raise RequestError("params must be a JSON object")
    return {str(key): tuplify(value) for key, value in params.items()}


@dataclass(frozen=True)
class AnalysisRequest:
    """Analyse one user across one or more models under one kind."""

    models: Tuple[ModelRef, ...]
    user: UserSpec = dc_field(default_factory=UserSpec)
    kind: str = "disclosure"
    params: Optional[Mapping[str, Any]] = None
    #: Run the engine's strict lint pre-flight: ERROR-level models are
    #: refused (422) before any analysis or cache write.
    strict_lint: bool = False

    FIELDS = {
        "models": ((list, tuple), True, None),
        "user": ((Mapping,), False, None),
        "kind": ((str,), False, "disclosure"),
        "params": ((Mapping,), False, None),
        "strict_lint": ((bool,), False, False),
    }

    def __post_init__(self):
        if not self.models:
            raise RequestError("analysis request names no models")

    def to_dict(self) -> dict:
        payload = {
            "models": [ref.to_dict() for ref in self.models],
            "user": self.user.to_dict(),
            "kind": self.kind,
        }
        if self.params is not None:
            payload["params"] = {key: _jsonify(value)
                                 for key, value in self.params.items()}
        if self.strict_lint:
            payload["strict_lint"] = True
        return payload

    @classmethod
    def from_dict(cls, payload,
                  allow_paths: bool = True) -> "AnalysisRequest":
        checked = check_payload(payload, cls.FIELDS, "analysis request")
        models = tuple(
            ModelRef.from_dict(ref, allow_paths=allow_paths,
                               where=f"models[{index}]")
            for index, ref in enumerate(checked["models"]))
        user = UserSpec.from_dict(checked["user"]) \
            if checked["user"] is not None else UserSpec()
        return cls(models=models, user=user, kind=checked["kind"],
                   params=_canonical_params(checked["params"]),
                   strict_lint=bool(checked["strict_lint"]))


@dataclass(frozen=True)
class SweepRequest:
    """Generate a scenario fleet and analyse it under a kind cycle.

    ``count``/``personas`` are bounded: the request is wire-reachable
    and one call must not be able to queue an arbitrarily large
    fleet against the serving process.

    ``indices`` optionally restricts execution to a subset of the
    generated job list (positions into the deterministic
    ``scenario_jobs`` flattening of the fleet). The full fleet is
    still generated — it is a pure function of the seed — but only
    the named jobs run, keeping their *global* indices on the wire.
    This is the shard contract of the fleet coordinator's streaming
    sweep: every worker regenerates the same fleet and analyses a
    disjoint slice. ``indices=None`` (the default) runs everything
    and keeps the pre-existing wire shape byte-identical.
    """

    #: Largest fleet one sweep request may generate.
    MAX_COUNT = 10_000
    #: Most simulated users per scenario.
    MAX_PERSONAS = 100

    count: int = 20
    seed: int = 0
    personas: int = 2
    kinds: Tuple[str, ...] = ("disclosure",)
    #: Taint pre-screen: skip exact generation for models a clean
    #: certificate clears (screenable kinds only).
    screen: bool = False
    #: Strict lint pre-flight over the generated fleet's models.
    strict_lint: bool = False
    #: Optional job-index slice of the generated fleet (sorted,
    #: deduplicated); ``None`` means the whole fleet.
    indices: Optional[Tuple[int, ...]] = None

    FIELDS = {
        "count": ((int,), False, 20),
        "seed": ((int,), False, 0),
        "personas": ((int,), False, 2),
        "kinds": ((list, tuple), False, ["disclosure"]),
        "screen": ((bool,), False, False),
        "strict_lint": ((bool,), False, False),
        "indices": ((list, tuple), False, None),
    }

    def __post_init__(self):
        if self.count < 0 or self.count > self.MAX_COUNT:
            raise RequestError(
                f"sweep count must be in [0, {self.MAX_COUNT}], "
                f"got {self.count}")
        if self.personas < 1 or self.personas > self.MAX_PERSONAS:
            raise RequestError(
                f"sweep personas must be in [1, {self.MAX_PERSONAS}], "
                f"got {self.personas}")
        if self.indices is not None:
            cleaned = []
            for value in self.indices:
                if isinstance(value, bool) or \
                        not isinstance(value, int) or value < 0:
                    raise RequestError(
                        "sweep indices must be non-negative "
                        f"integers, got {value!r}")
                cleaned.append(value)
            object.__setattr__(self, "indices",
                               tuple(sorted(set(cleaned))))

    def to_dict(self) -> dict:
        payload = {"count": self.count, "seed": self.seed,
                   "personas": self.personas,
                   "kinds": list(self.kinds),
                   "screen": self.screen,
                   "strict_lint": self.strict_lint}
        if self.indices is not None:
            payload["indices"] = list(self.indices)
        return payload

    @classmethod
    def from_dict(cls, payload, allow_paths: bool = True
                  ) -> "SweepRequest":
        checked = check_payload(payload, cls.FIELDS, "sweep request")
        return cls(count=checked["count"], seed=checked["seed"],
                   personas=checked["personas"],
                   kinds=_string_tuple(checked["kinds"],
                                       "sweep request", "kinds")
                   or ("disclosure",),
                   screen=bool(checked["screen"]),
                   strict_lint=bool(checked["strict_lint"]),
                   indices=tuple(checked["indices"])
                   if checked["indices"] is not None else None)


@dataclass(frozen=True)
class ReanalyzeRequest:
    """Diff-driven incremental re-analysis of an edited model."""

    before: ModelRef
    after: ModelRef
    user: UserSpec = dc_field(default_factory=UserSpec)
    kind: str = "disclosure"
    params: Optional[Mapping[str, Any]] = None
    #: Strict lint pre-flight over the edited model before re-analysis.
    strict_lint: bool = False

    FIELDS = {
        "before": ((Mapping,), True, None),
        "after": ((Mapping,), True, None),
        "user": ((Mapping,), False, None),
        "kind": ((str,), False, "disclosure"),
        "params": ((Mapping,), False, None),
        "strict_lint": ((bool,), False, False),
    }

    def to_dict(self) -> dict:
        payload = {
            "before": self.before.to_dict(),
            "after": self.after.to_dict(),
            "user": self.user.to_dict(),
            "kind": self.kind,
        }
        if self.params is not None:
            payload["params"] = {key: _jsonify(value)
                                 for key, value in self.params.items()}
        if self.strict_lint:
            payload["strict_lint"] = True
        return payload

    @classmethod
    def from_dict(cls, payload,
                  allow_paths: bool = True) -> "ReanalyzeRequest":
        checked = check_payload(payload, cls.FIELDS,
                                "reanalyze request")
        user = UserSpec.from_dict(checked["user"]) \
            if checked["user"] is not None else UserSpec()
        return cls(
            before=ModelRef.from_dict(checked["before"],
                                      allow_paths=allow_paths,
                                      where="before"),
            after=ModelRef.from_dict(checked["after"],
                                     allow_paths=allow_paths,
                                     where="after"),
            user=user, kind=checked["kind"],
            params=_canonical_params(checked["params"]),
            strict_lint=bool(checked["strict_lint"]))


@dataclass(frozen=True)
class LintRequest:
    """Lint one model; optionally filter rules and escalate warnings.

    ``select``/``ignore`` accept rule ids and category names exactly
    like the CLI flags; ``strict`` makes any diagnostic (not just
    ERROR) non-clean for the response's ``exit_code``.
    """

    model: ModelRef
    select: Tuple[str, ...] = ()
    ignore: Tuple[str, ...] = ()
    strict: bool = False

    FIELDS = {
        "model": ((Mapping,), True, None),
        "select": ((list, tuple), False, ()),
        "ignore": ((list, tuple), False, ()),
        "strict": ((bool,), False, False),
    }

    def to_dict(self) -> dict:
        payload: dict = {"model": self.model.to_dict()}
        if self.select:
            payload["select"] = list(self.select)
        if self.ignore:
            payload["ignore"] = list(self.ignore)
        if self.strict:
            payload["strict"] = True
        return payload

    @classmethod
    def from_dict(cls, payload,
                  allow_paths: bool = True) -> "LintRequest":
        checked = check_payload(payload, cls.FIELDS, "lint request")
        return cls(
            model=ModelRef.from_dict(checked["model"],
                                     allow_paths=allow_paths,
                                     where="model"),
            select=_string_tuple(checked["select"], "lint request",
                                 "select"),
            ignore=_string_tuple(checked["ignore"], "lint request",
                                 "ignore"),
            strict=bool(checked["strict"]))


@dataclass(frozen=True)
class LintResponse:
    """The diagnostics of one lint run, spans intact.

    ``diagnostics`` are live :class:`repro.lint.Diagnostic` objects
    (decoded responses rebuild them — rule, severity, line/column and
    related spans survive the wire byte-identically); ``sarif`` is the
    full SARIF 2.1.0 document for code-scanning consumers.
    """

    model: str
    model_hash: str
    diagnostics: tuple
    errors: int
    warnings: int
    clean: bool
    exit_code: int
    sarif: Optional[dict] = None

    def to_dict(self) -> dict:
        payload = {
            "model": self.model,
            "model_hash": self.model_hash,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "errors": self.errors,
            "warnings": self.warnings,
            "clean": self.clean,
            "exit_code": self.exit_code,
        }
        if self.sarif is not None:
            payload["sarif"] = self.sarif
        return payload

    @classmethod
    def from_dict(cls, payload) -> "LintResponse":
        from ..lint import Diagnostic
        checked = check_payload(payload, {
            "model": ((str,), True, None),
            "model_hash": ((str,), True, None),
            "diagnostics": ((list, tuple), True, None),
            "errors": ((int,), True, None),
            "warnings": ((int,), True, None),
            "clean": ((bool,), True, None),
            "exit_code": ((int,), True, None),
            "sarif": ((Mapping,), False, None),
        }, "lint response")
        return cls(
            model=checked["model"],
            model_hash=checked["model_hash"],
            diagnostics=_decoded("lint response", lambda: tuple(
                Diagnostic.from_dict(d)
                for d in checked["diagnostics"])),
            errors=checked["errors"],
            warnings=checked["warnings"],
            clean=bool(checked["clean"]),
            exit_code=checked["exit_code"],
            sarif=dict(checked["sarif"])
            if checked["sarif"] is not None else None)


# -- result serialization -----------------------------------------------------

def _jsonify(value):
    """Engine value tuples as JSON-encodable structures."""
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    return value


_RESULT_FIELDS = ("job_id", "scenario", "family", "variant",
                  "fingerprint", "user", "states", "transitions",
                  "max_level", "kind", "lts_generated", "from_cache",
                  "duration")


def result_to_dict(result: JobResult) -> dict:
    """One :class:`~repro.engine.jobs.JobResult` as wire data."""
    payload = {name: getattr(result, name) for name in _RESULT_FIELDS}
    payload["events"] = [list(event) for event in result.events]
    payload["non_allowed_actors"] = list(result.non_allowed_actors)
    payload["details"] = [[key, _jsonify(value)]
                          for key, value in result.details]
    return payload


def result_from_dict(payload: Mapping) -> JobResult:
    """Rebuild a result; ``signature()`` round-trips byte-identically."""
    def build():
        events = tuple(RiskEventSummary(
            level=event[0], actor=event[1], fields=tuple(event[2]),
            store=event[3], impact=event[4], likelihood=event[5],
            impact_category=event[6], likelihood_category=event[7],
        ) for event in payload["events"])
        details = tuple((key, tuplify(value))
                        for key, value in payload["details"])
        return JobResult(
            events=events, details=details,
            non_allowed_actors=tuple(payload["non_allowed_actors"]),
            **{name: payload[name] for name in _RESULT_FIELDS})
    return _decoded("job result", build)


def population_breakdown(result: JobResult) -> dict:
    """The population kind's outcome details as a typed mapping.

    Population results carry their aggregate verdict and the
    decomposable privacy-score breakdown flattened into the generic
    ``details`` tuples (which round-trip the wire byte-identically);
    this helper lifts them back into named structures for clients —
    histogram and score weights as dicts, per-field sub-scores as one
    mapping per field. Works on live and wire-decoded results alike.
    """
    if result.kind != "population":
        raise RequestError(
            f"population breakdown requested for a "
            f"{result.kind!r} result")
    return {
        "analysed": result.detail("analysed", 0),
        "skipped": result.detail("skipped", 0),
        "unacceptable_fraction": result.detail(
            "unacceptable_fraction", 0.0),
        "histogram": {level: count for level, count
                      in result.detail("histogram", ())},
        "hot_spots": [
            {"actor": actor, "field": field, "users": count}
            for actor, field, count in result.detail("hot_spots", ())
        ],
        "privacy_score": result.detail("privacy_score", 0.0),
        "score_weights": {name: weight for name, weight
                          in result.detail("score_weights", ())},
        "field_scores": [
            {"field": row[0], "semantic": row[1],
             "uniqueness": row[2], "linkability": row[3],
             "composite": row[4]}
            for row in result.detail("field_scores", ())
        ],
    }


def stats_to_dict(stats: EngineStats) -> dict:
    return {
        "backend": stats.backend, "jobs": stats.jobs,
        "result_hits": stats.result_hits, "executed": stats.executed,
        "deduplicated": stats.deduplicated,
        "lts_generations": stats.lts_generations,
        "lts_reuses": stats.lts_reuses,
        "wall_time": stats.wall_time,
        "by_kind": dict(stats.by_kind),
        "screened": stats.screened,
        "screen_flagged": stats.screen_flagged,
        "screened_by_kind": dict(stats.screened_by_kind),
        "linted": stats.linted,
        "lint_reuses": stats.lint_reuses,
    }


def stats_from_dict(payload: Mapping) -> EngineStats:
    return _decoded("engine stats", lambda: EngineStats(
        **{key: (dict(value)
                 if key in ("by_kind", "screened_by_kind") else value)
           for key, value in payload.items()}))


def cache_stats_to_dict(stats: CacheStats) -> dict:
    return {"hits": stats.hits, "misses": stats.misses,
            "puts": stats.puts, "evictions": stats.evictions}


# -- responses ----------------------------------------------------------------

@dataclass(frozen=True)
class AnalysisResponse:
    """The outcome of one analyze or sweep operation.

    ``results`` are full :class:`~repro.engine.jobs.JobResult` objects
    (decoded responses rebuild them, signatures intact); ``report`` is
    the fleet aggregation dict for sweep-shaped operations.
    """

    results: Tuple[JobResult, ...]
    stats: EngineStats
    result_cache: CacheStats
    max_level: str
    report: Optional[dict] = None

    def signatures(self) -> Tuple[tuple, ...]:
        return tuple(result.signature() for result in self.results)

    def to_dict(self) -> dict:
        payload = {
            "results": [result_to_dict(r) for r in self.results],
            "stats": stats_to_dict(self.stats),
            "result_cache": cache_stats_to_dict(self.result_cache),
            "max_level": self.max_level,
        }
        if self.report is not None:
            payload["report"] = self.report
        return payload

    @classmethod
    def from_dict(cls, payload) -> "AnalysisResponse":
        checked = check_payload(payload, {
            "results": ((list, tuple), True, None),
            "stats": ((Mapping,), True, None),
            "result_cache": ((Mapping,), True, None),
            "max_level": ((str,), True, None),
            "report": ((Mapping,), False, None),
        }, "analysis response")
        return cls(
            results=tuple(result_from_dict(r)
                          for r in checked["results"]),
            stats=stats_from_dict(checked["stats"]),
            result_cache=_decoded(
                "result cache stats",
                lambda: CacheStats(**checked["result_cache"])),
            max_level=checked["max_level"],
            report=dict(checked["report"])
            if checked["report"] is not None else None)


@dataclass(frozen=True)
class ReanalyzeResponse:
    """Baseline run + invalidation plan + incremental outcome."""

    baseline: AnalysisResponse
    outcome: AnalysisResponse
    plan_level: str
    plan_reason: str
    plan_description: str
    jobs: int
    retargeted: int
    lts_seeded: int

    @property
    def max_level(self) -> str:
        return self.outcome.max_level

    def describe(self) -> str:
        """The incremental run's summary, byte-identical to
        :meth:`repro.engine.incremental.ReanalysisOutcome.describe`
        (both render through the same formatter)."""
        return reanalysis_summary(
            self.plan_description, self.jobs, self.retargeted,
            self.lts_seeded, self.outcome.stats.describe())

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline.to_dict(),
            "outcome": self.outcome.to_dict(),
            "plan": {"level": self.plan_level,
                     "reason": self.plan_reason,
                     "description": self.plan_description},
            "jobs": self.jobs,
            "retargeted": self.retargeted,
            "lts_seeded": self.lts_seeded,
        }

    @classmethod
    def from_dict(cls, payload) -> "ReanalyzeResponse":
        checked = check_payload(payload, {
            "baseline": ((Mapping,), True, None),
            "outcome": ((Mapping,), True, None),
            "plan": ((Mapping,), True, None),
            "jobs": ((int,), True, None),
            "retargeted": ((int,), True, None),
            "lts_seeded": ((int,), True, None),
        }, "reanalyze response")
        plan = check_payload(checked["plan"], {
            "level": ((str,), True, None),
            "reason": ((str,), True, None),
            "description": ((str,), True, None),
        }, "reanalyze response plan")
        return cls(
            baseline=AnalysisResponse.from_dict(checked["baseline"]),
            outcome=AnalysisResponse.from_dict(checked["outcome"]),
            plan_level=plan["level"], plan_reason=plan["reason"],
            plan_description=plan["description"],
            jobs=checked["jobs"], retargeted=checked["retargeted"],
            lts_seeded=checked["lts_seeded"])


@dataclass(frozen=True)
class CacheStatsResponse:
    """On-disk store summaries plus live in-memory cache accounting."""

    cache_dir: Optional[str]
    stores: Tuple[Tuple[str, dict], ...]
    live: Optional[dict] = None

    def to_dict(self) -> dict:
        payload: dict = {"cache_dir": self.cache_dir,
                         "stores": {name: dict(info)
                                    for name, info in self.stores}}
        if self.live is not None:
            payload["live"] = self.live
        return payload

    @classmethod
    def from_dict(cls, payload) -> "CacheStatsResponse":
        checked = check_payload(payload, {
            "cache_dir": ((str,), False, None),
            "stores": ((Mapping,), True, None),
            "live": ((Mapping,), False, None),
        }, "cache stats response")
        return cls(cache_dir=checked["cache_dir"],
                   stores=tuple(sorted(
                       (name, dict(info))
                       for name, info in checked["stores"].items())),
                   live=dict(checked["live"])
                   if checked["live"] is not None else None)


@dataclass(frozen=True)
class CachePruneResponse:
    """Per-store eviction reports of one prune operation."""

    cache_dir: Optional[str]
    stores: Tuple[Tuple[str, PruneReport], ...]

    def to_dict(self) -> dict:
        return {"cache_dir": self.cache_dir,
                "stores": {name: {"removed": report.removed,
                                  "freed_bytes": report.freed_bytes,
                                  "kept": report.kept,
                                  "kept_bytes": report.kept_bytes}
                           for name, report in self.stores}}

    @classmethod
    def from_dict(cls, payload) -> "CachePruneResponse":
        checked = check_payload(payload, {
            "cache_dir": ((str,), False, None),
            "stores": ((Mapping,), True, None),
        }, "cache prune response")
        return cls(cache_dir=checked["cache_dir"],
                   stores=_decoded(
                       "cache prune response", lambda: tuple(sorted(
                           (name, PruneReport(**info))
                           for name, info
                           in checked["stores"].items()))))


@dataclass(frozen=True)
class WorkerLoad:
    """The placement-relevant slice of a worker's health snapshot.

    Decoded from the ``load`` block of ``GET /v1/health`` (see
    :meth:`repro.service.facade.AnalysisService.describe`); a fleet
    dispatcher ranks candidate workers by ``in_flight`` and watches
    ``occupancy`` for saturation. Absent fields default to zero so a
    coordinator can still drive a pre-fleet worker.

    ``queue_depth``/``shed_total``/``inflight_limit`` are the
    front-end half of the picture (requests waiting for an executor
    slot, 429s shed so far, and the configured concurrency cap); a
    worker whose health predates them, or a service with no serving
    front-end, reports all three as zero. Every pre-existing field
    keeps its exact shape.
    """

    in_flight: int = 0
    job_table: int = 0
    max_jobs: int = 0
    occupancy: float = 0.0
    result_cache_hits: int = 0
    lts_cache_hits: int = 0
    queue_depth: int = 0
    shed_total: int = 0
    inflight_limit: int = 0

    FIELDS = {
        "in_flight": ((int,), False, 0),
        "job_table": ((int,), False, 0),
        "max_jobs": ((int,), False, 0),
        "occupancy": ((int, float), False, 0.0),
        "result_cache_hits": ((int,), False, 0),
        "lts_cache_hits": ((int,), False, 0),
        "queue_depth": ((int,), False, 0),
        "shed_total": ((int,), False, 0),
        "inflight_limit": ((int,), False, 0),
    }

    def to_dict(self) -> dict:
        return {"in_flight": self.in_flight,
                "job_table": self.job_table,
                "max_jobs": self.max_jobs,
                "occupancy": self.occupancy,
                "result_cache_hits": self.result_cache_hits,
                "lts_cache_hits": self.lts_cache_hits,
                "queue_depth": self.queue_depth,
                "shed_total": self.shed_total,
                "inflight_limit": self.inflight_limit}

    @classmethod
    def from_health(cls, payload) -> "WorkerLoad":
        """Decode a health body's ``load`` block (tolerating workers
        that predate it)."""
        if not isinstance(payload, Mapping):
            raise RequestError(
                "health payload: expected a JSON object, got "
                f"{type(payload).__name__}")
        load = payload.get("load")
        if load is None:
            return cls()
        checked = check_payload(load, cls.FIELDS, "health load")
        checked["occupancy"] = float(checked["occupancy"])
        return cls(**checked)


#: Async job lifecycle states, in order.
JOB_STATES = ("queued", "running", "done", "error")


@dataclass(frozen=True)
class JobStatus:
    """One async submission's state, plus its result once finished."""

    job_id: str
    op: str
    status: str
    error: Optional[dict] = None
    result: Optional[dict] = None

    @property
    def finished(self) -> bool:
        return self.status in ("done", "error")

    def to_dict(self) -> dict:
        payload = {"job_id": self.job_id, "op": self.op,
                   "status": self.status}
        if self.error is not None:
            payload["error"] = self.error
        if self.result is not None:
            payload["result"] = self.result
        return payload

    @classmethod
    def from_dict(cls, payload) -> "JobStatus":
        checked = check_payload(payload, {
            "job_id": ((str,), True, None),
            "op": ((str,), True, None),
            "status": ((str,), True, None),
            "error": ((Mapping,), False, None),
            "result": ((Mapping,), False, None),
        }, "job status")
        if checked["status"] not in JOB_STATES:
            raise RequestError(
                f"job status: unknown state {checked['status']!r}")
        return cls(job_id=checked["job_id"], op=checked["op"],
                   status=checked["status"],
                   error=dict(checked["error"])
                   if checked["error"] is not None else None,
                   result=dict(checked["result"])
                   if checked["result"] is not None else None)
