"""Command-line interface: the paper's tooling as a terminal workflow.

Subcommands mirror the method's steps over a DSL model file:

- ``repro validate model.dsl [--json]`` — structural validation
  (Step 1), rendered through the lint engine (exit 0 clean, 1
  validation errors, 2 parse failure);
- ``repro lint model.dsl [--format text|json|sarif]`` — the full
  static-analysis pass: structural rules plus policy-conflict and
  taint-powered semantic rules, with source-anchored spans
  (``--select``/``--ignore`` filter by rule id or category;
  ``--strict`` makes any finding exit 1; parse failure exits 2);
- ``repro lts model.dsl`` — generate the privacy LTS and print its
  digest (Step 2);
- ``repro dot model.dsl [--lts]`` — DOT for the DFD (Fig. 1) or the
  LTS (Fig. 3);
- ``repro analyse model.dsl --agree Svc --sensitivity f=high`` —
  per-user unwanted-disclosure analysis (Step 3, §III.A);
- ``repro identify model.dsl`` — who can identify what;
- ``repro taint model.dsl --agree Svc`` — static taint pre-screen:
  transitive data-flow closure over the DFD, a sound
  can-this-actor-ever-reach-this-field triage that needs no
  state-space search (exit 0 clean, 1 flagged);
- ``repro export model.dsl -o lts.json`` — the generated LTS as JSON;
- ``repro engine run m1.dsl m2.dsl --agree Svc --kind pseudonym`` —
  batch-analyse many models through the cache-aware engine, under any
  registered analysis kind;
- ``repro engine sweep --count 50 --kinds disclosure consent_change``
  — generate a (mixed-kind) scenario fleet and roll the results into
  a fleet report; ``--screen`` taint-pre-screens each job and skips
  exact LTS generation where a clean certificate proves the answer;
- ``repro engine reanalyze old.dsl new.dsl --agree Svc`` — diff-driven
  incremental re-analysis: analyse the old model, classify what the
  edit invalidates, re-run only that;
- ``repro engine cache stats|prune --cache-dir DIR`` — inspect and
  age/size-prune the on-disk store;
- ``repro serve --port 8787 --cache-dir DIR`` — run the HTTP/JSON
  analysis service (streaming ndjson sweeps, backpressure, rate
  limiting, request deadlines — see :mod:`repro.service.aio`);
- ``repro fleet sweep --workers host:port,host:port --count 50`` —
  shard a scenario sweep across running ``repro serve`` workers and
  merge the answers into one fleet report (see :mod:`repro.fleet`);
  ``--stream`` also prints each result as it arrives.

Every ``engine`` subcommand is a thin client of the
:class:`~repro.service.facade.AnalysisService` facade — the same API
the HTTP server exposes — so CLI and service invocations produce
byte-identical result signatures. ``engine run|sweep|reanalyze`` and
``engine cache stats|prune`` take ``--json`` for the machine-readable
response payload instead of the human rendering.

Exit codes: 0 success, 1 findings (validation errors / risk at or
above ``--fail-at``), 2 usage or input errors (malformed models,
unknown kinds and bad requests are structured errors on stderr, never
tracebacks).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .consent import UserProfile
from .core import GenerationOptions, ModelGenerator
from .core.risk import DisclosureRiskAnalyzer, RiskLevel
from .dfd import dfd_to_dot, parse_file
from .errors import ReproError
from .viz import identification_table, lts_digest, lts_to_dot


def _load_model(path: str):
    return parse_file(path, validate=False)


def _write_output(text: str, output: Optional[str]) -> None:
    if output is None:
        print(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _generation_options(args) -> GenerationOptions:
    services = tuple(args.services) if args.services else None
    return GenerationOptions(services=services,
                             ordering=args.ordering)


# -- subcommand implementations ---------------------------------------------

def _cmd_validate(args) -> int:
    """Structural validation through the lint engine.

    The structural lint tier reproduces every ``validate_system``
    issue code-for-code (property-tested), so rendering through the
    lint renderers changes the *format* of the listing, never its
    content. Parse failures propagate and exit 2 via ``main``.
    """
    from .lint import lint_file, render
    report = lint_file(args.model, select=("structural",))
    if args.json:
        sys.stdout.write(render(report, "json"))
        return 1 if report.errors else 0
    if report.diagnostics:
        sys.stdout.write(render(report, "text"))
    if report.errors:
        return 1
    print(f"ok: {report.model!r} is structurally valid "
          f"({report.warnings} warning(s))")
    return 0


def _cmd_lint(args) -> int:
    from .lint import lint_file, render
    report = lint_file(args.model,
                       select=tuple(args.select) or None,
                       ignore=tuple(args.ignore) or None)
    text = render(report, args.format)
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    return report.exit_code(strict=args.strict)


def _cmd_dot(args) -> int:
    system = _load_model(args.model)
    if args.lts:
        lts = ModelGenerator(system).generate(_generation_options(args))
        _write_output(lts_to_dot(lts, system.name,
                                 show_variables=args.variables),
                      args.output)
    else:
        services = list(args.services) if args.services else None
        _write_output(dfd_to_dot(system, services=services),
                      args.output)
    return 0


def _cmd_lts(args) -> int:
    system = _load_model(args.model)
    lts = ModelGenerator(system).generate(_generation_options(args))
    print(lts_digest(lts, system.name))
    stats = lts.stats()
    for action, count in sorted(stats["actions"].items()):
        print(f"  {action}: {count}")
    return 0


def _cmd_identify(args) -> int:
    system = _load_model(args.model)
    lts = ModelGenerator(system).generate(_generation_options(args))
    print(identification_table(lts))
    return 0


def _cmd_export(args) -> int:
    from .core.export import lts_to_json
    system = _load_model(args.model)
    lts = ModelGenerator(system).generate(_generation_options(args))
    _write_output(
        lts_to_json(lts, include_variables=not args.no_variables),
        args.output)
    return 0


def _parse_sensitivities(pairs: List[str]) -> dict:
    sensitivities = {}
    for pair in pairs:
        field, _, value = pair.partition("=")
        if not field or not value:
            raise ValueError(
                f"--sensitivity expects field=value, got {pair!r}")
        try:
            sensitivities[field] = float(value)
        except ValueError:
            sensitivities[field] = value  # category name
    return sensitivities


def _cmd_analyse(args) -> int:
    system = _load_model(args.model)
    user = UserProfile(
        args.user,
        agreed_services=args.agree,
        sensitivities=_parse_sensitivities(args.sensitivity),
        default_sensitivity=args.default_sensitivity,
        acceptable_risk=args.acceptable,
    )
    report = DisclosureRiskAnalyzer(system).analyse(user)
    print(f"user {user.name!r} | agreed: "
          f"{', '.join(user.agreed_services)}")
    print(f"non-allowed actors: "
          f"{', '.join(report.non_allowed_actors) or '<none>'}")
    print(report.summary_table())
    print(f"max risk: {report.max_level.value}")
    threshold = RiskLevel.from_name(args.fail_at)
    if report.max_level >= threshold and \
            report.max_level is not RiskLevel.NONE:
        return 1
    return 0


def _cmd_taint(args) -> int:
    from .taint import certificate_from_report, compute_taint
    system = _load_model(args.model)
    user = UserProfile(args.user, agreed_services=args.agree)
    options = DisclosureRiskAnalyzer.default_options(system, user)
    report = compute_taint(system, options)
    non_allowed = tuple(sorted(user.non_allowed_actors(system)))
    print(f"user {user.name!r} | agreed: "
          f"{', '.join(user.agreed_services)}")
    print(f"non-allowed actors: "
          f"{', '.join(non_allowed) or '<none>'}")
    for blocker in report.blockers:
        print(f"blocker: {blocker}")
    clean = report.clean_for(non_allowed)
    reachable = [] if report.blockers else sorted({
        (field, actor)
        for actor in non_allowed
        for source in (report.potential_read_fields,
                       report.flow_read_fields)
        for field in source.get(actor, ())})
    for field, actor in reachable:
        print(f"flagged: {actor} can read {field!r}")
        if args.witness:
            path = report.witness_path(field, actor)
            if path:
                print("  " + " -> ".join(path))
    certificate = certificate_from_report(report, system)
    print(f"certificate: {certificate.fingerprint()[:16]} "
          f"({len(certificate.tracked_atoms)} tracked atom(s), "
          f"{len(certificate.blockers)} blocker(s))")
    if clean:
        print("verdict: clean — no non-allowed actor can reach any "
              "field; exact disclosure analysis is provably "
              "event-free")
        return 0
    if report.blockers:
        print("verdict: flagged — the closure could not model this "
              "system soundly; run exact analysis")
    else:
        print(f"verdict: flagged — {len(reachable)} reachable "
              f"(field, actor) pair(s); run exact analysis")
    return 1


def _user_spec(args):
    """The user's wire-level spec for service-backed commands."""
    from .service import UserSpec
    return UserSpec(
        name=args.user,
        agree=tuple(args.agree),
        sensitivities=tuple(sorted(
            _parse_sensitivities(args.sensitivity).items())),
        default_sensitivity=args.default_sensitivity,
        acceptable=args.acceptable,
    )


def _serve_once(args, operation):
    """``operation(service)`` on the facade an engine subcommand
    delegates to, then close it (and any process pool it started)."""
    from .service import AnalysisService
    service = AnalysisService(backend=args.backend, workers=args.workers,
                              cache_dir=args.cache_dir)
    try:
        return operation(service)
    finally:
        service.close()


def _parse_score_weights(pairs: List[str]) -> dict:
    weights = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if not name or not value:
            raise ValueError(
                f"--score-weight expects name=value, got {pair!r}")
        try:
            weights[name] = float(value)
        except ValueError:
            raise ValueError(
                f"--score-weight value for {name!r} must be a "
                f"number, got {value!r}") from None
    return weights


def _kind_params(args) -> Optional[dict]:
    """The job params of the requested kind, or None without any.

    Params enter the cache identity, and each kind reads only its
    own — attaching consent-change or population params to another
    kind would silently fork the cache; naming them there is a usage
    error instead.
    """
    change = {}
    if getattr(args, "change_agree", None):
        change["agree"] = list(args.change_agree)
    if getattr(args, "change_withdraw", None):
        change["withdraw"] = list(args.change_withdraw)
    if change and args.kind != "consent_change":
        raise ValueError(
            "--change-agree/--change-withdraw only apply to "
            f"--kind consent_change (got --kind {args.kind})")

    population = {}
    if getattr(args, "population_count", None) is not None:
        population["count"] = args.population_count
    if getattr(args, "population_seed", None) is not None:
        population["seed"] = args.population_seed
    if getattr(args, "score_weight", None):
        population["weights"] = _parse_score_weights(
            args.score_weight)
    if population and args.kind != "population":
        raise ValueError(
            "--population-count/--population-seed/--score-weight "
            f"only apply to --kind population (got --kind "
            f"{args.kind})")

    return change or population or None


def _print_population_breakdown(result) -> None:
    """Human-readable population verdict + privacy-score breakdown."""
    from .service import population_breakdown
    breakdown = population_breakdown(result)
    histogram = ", ".join(
        f"{level}={count}"
        for level, count in breakdown["histogram"].items() if count)
    print(f"  population: {breakdown['analysed']} analysed, "
          f"{breakdown['skipped']} skipped; "
          f"unacceptable {breakdown['unacceptable_fraction']:.1%}; "
          f"{histogram or 'no analysed users'}")
    weights = ", ".join(f"{name}={weight:g}" for name, weight
                        in breakdown["score_weights"].items())
    print(f"  privacy score: {breakdown['privacy_score']:.3f} "
          f"(weights: {weights})")
    for score in breakdown["field_scores"]:
        print(f"    {score['field']}: composite "
              f"{score['composite']:.3f} "
              f"(semantic {score['semantic']:.2f}, "
              f"uniqueness {score['uniqueness']:.2f}, "
              f"linkability {score['linkability']:.2f})")
    for spot in breakdown["hot_spots"]:
        print(f"    hot spot: {spot['actor']} -> {spot['field']} "
              f"({spot['users']} users)")


def _print_json(payload) -> None:
    import json as json_module
    print(json_module.dumps(payload, indent=2))


def _gate(max_level: str, fail_at: str) -> int:
    """Exit 1 when the worst risk reaches the ``--fail-at`` level."""
    worst = RiskLevel.from_name(max_level)
    threshold = RiskLevel.from_name(fail_at)
    if worst >= threshold and worst is not RiskLevel.NONE:
        return 1
    return 0


def _cmd_engine_run(args) -> int:
    from .service import AnalysisRequest, ModelRef
    request = AnalysisRequest(
        models=tuple(ModelRef(path=path, label=path)
                     for path in args.models),
        user=_user_spec(args), kind=args.kind,
        params=_kind_params(args),
        strict_lint=args.strict_lint)
    response = _serve_once(args, lambda service: service.analyze(request))
    if args.json:
        _print_json(response.to_dict())
    else:
        for result in response.results:
            cached = " (cached)" if result.from_cache else ""
            print(f"{result.scenario} [{result.kind}]: max risk "
                  f"{result.max_level}{cached} — "
                  f"{len(result.events)} event(s), "
                  f"{result.states} states")
            if result.kind == "population":
                _print_population_breakdown(result)
        print(response.stats.describe())
        print(f"result cache: {response.result_cache.describe()}")
    return _gate(response.max_level, args.fail_at)


def _cmd_engine_sweep(args) -> int:
    import json as json_module
    from .engine import FleetReport
    from .service import SweepRequest
    request = SweepRequest(count=args.count, seed=args.seed,
                           personas=args.personas,
                           kinds=tuple(args.kinds),
                           screen=args.screen,
                           strict_lint=args.strict_lint)
    response = _serve_once(args, lambda service: service.sweep(
        request, include_report=args.json))
    cache_line = f"result cache: {response.result_cache.describe()}"
    if args.json:
        _write_output(json_module.dumps(response.report, indent=2),
                      args.output)
        # stdout may be the JSON sink: keep it parseable, the
        # accounting line is operator chatter.
        print(cache_line, file=sys.stderr)
    else:
        _write_output(
            FleetReport(response.results, response.stats).describe(),
            args.output)
        print(cache_line)
    return 0


def _cmd_engine_reanalyze(args) -> int:
    from .service import ModelRef, ReanalyzeRequest
    request = ReanalyzeRequest(
        before=ModelRef(path=args.before, label=args.before),
        after=ModelRef(path=args.after, label=args.after),
        user=_user_spec(args), kind=args.kind,
        params=_kind_params(args),
        strict_lint=args.strict_lint)
    response = _serve_once(args,
                           lambda service: service.reanalyze(request))
    if args.json:
        _print_json(response.to_dict())
    else:
        print(f"baseline: {response.baseline.stats.describe()}")
        print(response.describe())
        for result in response.outcome.results:
            print(f"{args.after} [{result.kind}]: max risk "
                  f"{result.max_level} — {len(result.events)} "
                  f"event(s), {result.states} states")
    return _gate(response.max_level, args.fail_at)


def _cmd_engine_cache(args) -> int:
    from .service import AnalysisService
    service = AnalysisService(cache_dir=args.cache_dir)
    if args.cache_command == "stats":
        response = service.cache_stats()
        if args.json:
            _print_json(response.to_dict())
            return 0
        if not response.stores:
            print(f"no engine stores under {args.cache_dir}")
            return 0
        for store_name, info in response.stores:
            print(f"{store_name}: {info['entries']} entries, "
                  f"{info['bytes']} bytes, oldest "
                  f"{info['oldest_age']:.0f}s, newest "
                  f"{info['newest_age']:.0f}s")
        return 0
    max_age = args.max_age_days * 86400.0 \
        if args.max_age_days is not None else None
    response = service.prune_cache(max_age=max_age,
                                   max_bytes=args.max_bytes)
    if args.json:
        _print_json(response.to_dict())
        return 0
    if not response.stores:
        print(f"no engine stores under {args.cache_dir}")
        return 0
    for store_name, report in response.stores:
        print(f"{store_name}: {report.describe()}")
    return 0


def _cmd_serve(args) -> int:
    """Run the analysis service on the asyncio front-end.

    Streaming ndjson sweeps (``POST /v1/sweep?stream=1``),
    bounded-executor backpressure (``--max-inflight`` engine slots
    plus ``--queue-limit`` waiting requests; beyond that, typed 429
    ``overloaded``), token-bucket rate limiting (``--rate-limit``
    req/s, 429 ``rate_limited``), bearer-token auth
    (``--auth-token``, 401; ``/v1/health`` stays open), per-request
    deadlines (``--request-timeout``, typed 408) and client-disconnect
    cancellation. The server prints the actually-bound port on startup
    (``--port 0`` binds an ephemeral one) and drains in-flight
    requests on SIGINT/SIGTERM before closing the socket.
    """
    from .service import AnalysisService, serve_async
    service = AnalysisService(backend=args.backend,
                              workers=args.workers,
                              cache_dir=args.cache_dir)
    return serve_async(service, host=args.host, port=args.port,
                       verbose=args.verbose,
                       max_inflight=args.max_inflight,
                       queue_limit=args.queue_limit,
                       rate_limit=args.rate_limit,
                       auth_token=args.auth_token,
                       request_timeout=args.request_timeout)


def _cmd_fleet_sweep(args) -> int:
    import json as json_module
    from .fleet import FleetDispatcher, HttpTransport
    from .service import SweepRequest
    workers = [name.strip() for name in args.workers.split(",")
               if name.strip()]
    request = SweepRequest(count=args.count, seed=args.seed,
                           personas=args.personas,
                           kinds=tuple(args.kinds),
                           screen=args.screen,
                           strict_lint=args.strict_lint)
    transport = HttpTransport()
    dispatcher = FleetDispatcher(workers, transport,
                                 timeout=args.timeout,
                                 max_attempts=args.max_attempts)
    try:
        outcome = None
        for event in dispatcher.sweep_stream(request):
            if event[0] == "summary":
                outcome = event[1]
            elif args.stream:
                _, index, result = event
                if args.json:
                    print(json_module.dumps(
                        {"index": index,
                         "job_id": result.job_id,
                         "fingerprint": result.fingerprint,
                         "max_level": result.max_level},
                        separators=(",", ":")), file=sys.stderr)
                else:
                    print(f"  {result.job_id} {result.max_level:8s} "
                          f"{result.fingerprint[:12]}")
    finally:
        transport.close()
    stats_line = outcome.stats.describe()
    if args.json:
        _write_output(json_module.dumps(outcome.to_dict(), indent=2),
                      args.output)
        # stdout may be the JSON sink: keep it parseable, the
        # accounting line is operator chatter.
        print(stats_line, file=sys.stderr)
    else:
        _write_output(outcome.report().describe(), args.output)
        print(stats_line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="model-driven privacy risk analysis "
                    "(Grace et al., ICDCS 2018)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub):
        sub.add_argument("model", help="path to a DSL model file")
        sub.add_argument("--services", nargs="*", default=None,
                         help="restrict to these services")
        sub.add_argument("--ordering", default="dataflow",
                         choices=["dataflow", "sequence"])

    validate = subparsers.add_parser(
        "validate", help="validate the model's structure")
    validate.add_argument("model")
    validate.add_argument("--json", action="store_true",
                          help="emit the diagnostic report as JSON")
    validate.set_defaults(func=_cmd_validate)

    lint = subparsers.add_parser(
        "lint", help="static analysis: structural, policy-conflict "
                     "and taint-powered rules with source spans")
    lint.add_argument("model", help="path to a DSL model file")
    lint.add_argument("--format", default="text",
                      choices=["text", "json", "sarif"],
                      help="diagnostic output format")
    lint.add_argument("--select", action="append", default=[],
                      metavar="RULE",
                      help="run only these rule ids/categories "
                           "(repeatable; categories: structural, "
                           "policy, taint)")
    lint.add_argument("--ignore", action="append", default=[],
                      metavar="RULE",
                      help="skip these rule ids/categories "
                           "(repeatable; wins over --select)")
    lint.add_argument("--strict", action="store_true",
                      help="exit 1 on any finding, not just errors")
    lint.add_argument("-o", "--output", default=None,
                      help="write the report to a file instead of "
                           "stdout")
    lint.set_defaults(func=_cmd_lint)

    dot = subparsers.add_parser(
        "dot", help="render the DFD (default) or LTS as DOT")
    add_common(dot)
    dot.add_argument("--lts", action="store_true",
                     help="render the generated LTS instead of the DFD")
    dot.add_argument("--variables", action="store_true",
                     help="label LTS states with their true variables")
    dot.add_argument("-o", "--output", default=None,
                     help="write to a file instead of stdout")
    dot.set_defaults(func=_cmd_dot)

    lts = subparsers.add_parser(
        "lts", help="generate the privacy LTS and print statistics")
    add_common(lts)
    lts.set_defaults(func=_cmd_lts)

    identify = subparsers.add_parser(
        "identify", help="report which actors can identify which data")
    add_common(identify)
    identify.set_defaults(func=_cmd_identify)

    export = subparsers.add_parser(
        "export", help="generate the LTS and export it as JSON")
    add_common(export)
    export.add_argument("-o", "--output", default=None,
                        help="write to a file instead of stdout")
    export.add_argument("--no-variables", action="store_true",
                        help="omit per-state variable lists")
    export.set_defaults(func=_cmd_export)

    analyse = subparsers.add_parser(
        "analyse", help="unwanted-disclosure risk analysis for a user")
    analyse.add_argument("model")
    analyse.add_argument("--user", default="user")
    analyse.add_argument("--agree", nargs="+", required=True,
                         metavar="SERVICE",
                         help="services the user agreed to")
    analyse.add_argument("--sensitivity", nargs="*", default=[],
                         metavar="FIELD=VALUE",
                         help="per-field sigma (number or "
                              "low/medium/high)")
    analyse.add_argument("--default-sensitivity", type=float,
                         default=0.0)
    analyse.add_argument("--acceptable", default="low",
                         choices=["none", "low", "medium", "high"],
                         help="the user's acceptable risk level")
    analyse.add_argument("--fail-at", default="high",
                         choices=["low", "medium", "high"],
                         help="exit 1 when max risk reaches this level")
    analyse.set_defaults(func=_cmd_analyse)

    taint = subparsers.add_parser(
        "taint", help="static taint pre-screen: sound reachability "
                      "triage without state-space search")
    taint.add_argument("model")
    taint.add_argument("--user", default="user")
    taint.add_argument("--agree", nargs="+", required=True,
                       metavar="SERVICE",
                       help="services the user agreed to")
    taint.add_argument("--witness", action="store_true",
                       help="print a witness flow path per flagged "
                            "(field, actor) pair")
    taint.set_defaults(func=_cmd_taint)

    engine = subparsers.add_parser(
        "engine", help="batch risk assessment over model fleets")
    engine_subs = engine.add_subparsers(dest="engine_command",
                                        required=True)

    # The shipped kinds, spelled out so building the parser never
    # imports the engine package (commands import it lazily); the
    # registry re-validates the name at execution time.
    kinds = ["consent_change", "disclosure", "population",
             "pseudonym", "reidentify", "taint"]

    def add_engine_common(sub):
        sub.add_argument("--backend", default="thread",
                         choices=["serial", "thread", "process"],
                         help="worker pool backend")
        sub.add_argument("--workers", type=int, default=None,
                         help="pool width (default: CPU count, max 8)")
        sub.add_argument("--cache-dir", default=None,
                         help="persist LTSs and results under this "
                              "directory")
        sub.add_argument("--strict-lint", action="store_true",
                         help="lint every model first and refuse "
                              "ERROR-level ones before any analysis "
                              "or cache write")

    def add_engine_user(sub):
        sub.add_argument("--user", default="user")
        sub.add_argument("--agree", nargs="+", required=True,
                         metavar="SERVICE",
                         help="services the user agreed to")
        sub.add_argument("--sensitivity", nargs="*", default=[],
                         metavar="FIELD=VALUE")
        sub.add_argument("--default-sensitivity", type=float,
                         default=0.0)
        sub.add_argument("--acceptable", default="low",
                         choices=["none", "low", "medium", "high"])
        sub.add_argument("--kind", default="disclosure",
                         choices=kinds,
                         help="analysis kind to run")
        sub.add_argument("--change-agree", nargs="*", default=[],
                         metavar="SERVICE",
                         help="consent_change kind: services the "
                              "what-if agrees to")
        sub.add_argument("--change-withdraw", nargs="*", default=[],
                         metavar="SERVICE",
                         help="consent_change kind: services the "
                              "what-if withdraws from (default: the "
                              "first agreed service)")
        sub.add_argument("--population-count", type=int, default=None,
                         metavar="N",
                         help="population kind: simulated population "
                              "size (default 24)")
        sub.add_argument("--population-seed", type=int, default=None,
                         metavar="SEED",
                         help="population kind: persona stream seed "
                              "(default 0)")
        sub.add_argument("--score-weight", nargs="*", default=[],
                         metavar="NAME=VALUE",
                         help="population kind: composite "
                              "privacy-score weights (names: "
                              "semantic, uniqueness, linkability)")
        sub.add_argument("--fail-at", default="high",
                         choices=["low", "medium", "high"],
                         help="exit 1 when any result reaches this "
                              "risk level")

    engine_run = engine_subs.add_parser(
        "run", help="analyse one user across many model files")
    engine_run.add_argument("models", nargs="+",
                            help="DSL model files")
    add_engine_user(engine_run)
    add_engine_common(engine_run)
    engine_run.add_argument("--json", action="store_true",
                            help="emit the service response as JSON")
    engine_run.set_defaults(func=_cmd_engine_run)

    engine_sweep = engine_subs.add_parser(
        "sweep", help="generate a scenario fleet and aggregate the "
                      "results")
    engine_sweep.add_argument("--count", type=int, default=20,
                              help="number of scenarios to generate")
    engine_sweep.add_argument("--seed", type=int, default=0,
                              help="scenario stream seed")
    engine_sweep.add_argument("--personas", type=int, default=2,
                              help="simulated users per scenario")
    engine_sweep.add_argument("--kinds", nargs="+",
                              default=["disclosure"], choices=kinds,
                              help="analysis kinds to cycle across "
                                   "the fleet")
    engine_sweep.add_argument("--screen", action="store_true",
                              help="taint pre-screen: skip exact LTS "
                                   "generation for jobs a clean "
                                   "certificate proves disclosure-free")
    engine_sweep.add_argument("--json", action="store_true",
                              help="emit the aggregate as JSON")
    engine_sweep.add_argument("-o", "--output", default=None,
                              help="write the report to a file")
    add_engine_common(engine_sweep)
    engine_sweep.set_defaults(func=_cmd_engine_sweep)

    engine_reanalyze = engine_subs.add_parser(
        "reanalyze",
        help="incremental re-analysis of an edited model: analyse the "
             "old version, classify what the edit invalidates, re-run "
             "only that")
    engine_reanalyze.add_argument("before",
                                  help="the previously analysed model")
    engine_reanalyze.add_argument("after", help="the edited model")
    add_engine_user(engine_reanalyze)
    add_engine_common(engine_reanalyze)
    engine_reanalyze.add_argument(
        "--json", action="store_true",
        help="emit the service response as JSON")
    engine_reanalyze.set_defaults(func=_cmd_engine_reanalyze)

    engine_cache = engine_subs.add_parser(
        "cache", help="inspect and prune the on-disk engine store")
    cache_subs = engine_cache.add_subparsers(dest="cache_command",
                                             required=True)
    cache_stats = cache_subs.add_parser(
        "stats", help="per-store entry counts, bytes and entry ages")
    cache_stats.add_argument("--cache-dir", required=True)
    cache_stats.add_argument("--json", action="store_true",
                             help="emit the store report as JSON")
    cache_stats.set_defaults(func=_cmd_engine_cache)
    cache_prune = cache_subs.add_parser(
        "prune", help="evict entries by age and/or size budget")
    cache_prune.add_argument("--cache-dir", required=True)
    cache_prune.add_argument("--max-age-days", type=float, default=None,
                             help="evict entries older than this")
    cache_prune.add_argument("--max-bytes", type=int, default=None,
                             help="per-store size budget; evicts "
                                  "least-recently-used entries first")
    cache_prune.add_argument("--json", action="store_true",
                             help="emit the prune report as JSON")
    cache_prune.set_defaults(func=_cmd_engine_cache)

    serve = subparsers.add_parser(
        "serve", help="run the HTTP/JSON analysis service")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address")
    serve.add_argument("--port", type=int, default=8787,
                       help="bind port (0 for an ephemeral port)")
    serve.add_argument("--backend", default="thread",
                       choices=["serial", "thread", "process"],
                       help="engine worker pool backend")
    serve.add_argument("--workers", type=int, default=None,
                       help="pool width (default: CPU count, max 8)")
    serve.add_argument("--cache-dir", default=None,
                       help="persist LTSs and results under this "
                            "directory")
    serve.add_argument("--verbose", action="store_true",
                       help="log every request to stderr")
    serve.add_argument("--max-inflight", type=int, default=8,
                       help="engine executor slots (default 8)")
    serve.add_argument("--queue-limit", type=int, default=64,
                       help="requests allowed to wait for a slot "
                            "before shedding with 429 (default 64)")
    serve.add_argument("--rate-limit", type=float, default=None,
                       help="token-bucket request rate in req/s "
                            "(default unlimited)")
    serve.add_argument("--auth-token", default=None,
                       help="require 'Authorization: Bearer TOKEN' "
                            "on every route except /v1/health")
    serve.add_argument("--request-timeout", type=float, default=60.0,
                       help="per-request deadline in seconds for "
                            "reading and running a request; "
                            "exceeding it answers a typed 408 "
                            "(default 60)")
    serve.set_defaults(func=_cmd_serve)

    fleet = subparsers.add_parser(
        "fleet", help="dispatch sweeps across worker service nodes")
    fleet_subs = fleet.add_subparsers(dest="fleet_command",
                                      required=True)
    fleet_sweep = fleet_subs.add_parser(
        "sweep", help="shard a scenario sweep across running "
                      "`repro serve` workers and merge the reports")
    fleet_sweep.add_argument(
        "--workers", required=True, metavar="HOST:PORT,HOST:PORT",
        help="comma-separated worker addresses")
    fleet_sweep.add_argument("--count", type=int, default=20,
                             help="number of scenarios to generate")
    fleet_sweep.add_argument("--seed", type=int, default=0,
                             help="scenario stream seed")
    fleet_sweep.add_argument("--personas", type=int, default=2,
                             help="simulated users per scenario")
    fleet_sweep.add_argument("--kinds", nargs="+",
                             default=["disclosure"], choices=kinds,
                             help="analysis kinds to cycle across "
                                  "the fleet")
    fleet_sweep.add_argument("--screen", action="store_true",
                             help="taint pre-screen on the "
                                  "coordinator: dispatch only the "
                                  "jobs a clean certificate cannot "
                                  "prove disclosure-free")
    fleet_sweep.add_argument("--strict-lint", action="store_true",
                             help="lint every model on the "
                                  "coordinator and refuse ERROR-level "
                                  "ones before dispatch")
    fleet_sweep.add_argument("--timeout", type=float, default=60.0,
                             help="bound on every worker read in "
                                  "seconds; exceeding it retries or "
                                  "rebalances the worker's shards")
    fleet_sweep.add_argument("--max-attempts", type=int, default=4,
                             help="dispatch attempts per shard before "
                                  "the run fails")
    fleet_sweep.add_argument("--stream", action="store_true",
                             help="print each result as it "
                                  "arrives (the sweep, its retries "
                                  "and rebalancing are unchanged)")
    fleet_sweep.add_argument("--json", action="store_true",
                             help="emit the merged outcome as JSON")
    fleet_sweep.add_argument("-o", "--output", default=None,
                             help="write the report to a file")
    fleet_sweep.set_defaults(func=_cmd_fleet_sweep)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except (ReproError, ValueError) as error:
        # Structured failure: service-layer errors carry their own
        # exit code; everything else is a usage/input error (2).
        print(f"error: {error}", file=sys.stderr)
        return getattr(error, "exit_code", 2)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
