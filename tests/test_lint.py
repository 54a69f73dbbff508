"""The lint engine: rules, spans, renderers, CLI, engine pre-flight,
wire surface."""

import json

import pytest

from repro.cli import main
from repro.dfd import SYNTHETIC, Span, SystemBuilder, parse_dsl
from repro.dfd.validation import Severity, validate_system
from repro.errors import LintError
from repro.lint import (
    Diagnostic,
    LintReport,
    RULE_CATEGORIES,
    get_rule,
    iter_rules,
    lint_text,
    render,
    render_sarif,
    render_text,
    rule_ids,
    run_lint,
)

#: The acceptance model: a shadowed grant, a dead grant and a
#: colliding pseudonym rename, all in one file with known line
#: numbers (1-based; the `acl` block starts at line 21).
ACCEPTANCE = """\
system Acceptance {
  schema Rec {
    field name: string kind identifier
    field salary: int kind sensitive
    field dept: string kind quasi
  }
  schema AnonRec {
    field name_a: string kind quasi anonymises name
    field name_b: string kind quasi anonymises name
  }
  datastore DB schema Rec
  anonymised datastore AnonDB schema AnonRec
  actor Clerk role staff originates [name]
  actor Auditor role audit
  service Payroll desc "pay" {
    flow 1 User -> Clerk fields [name, dept] purpose "hire"
    flow 2 Clerk -> DB fields [name, dept] purpose "hire"
    flow 3 DB -> Auditor fields [dept] purpose "audit"
  }
  acl {
    allow Clerk create on DB
    allow Auditor read on DB fields [dept]
    allow Auditor read on DB fields [dept]
    allow Auditor read on DB fields [salary]
  }
}
"""

CLEAN = """\
system Clean {
  schema S {
    field name: string kind identifier
  }
  actor Clerk role staff
  datastore DB schema S
  service Intake desc "intake" {
    flow 1 User -> Clerk fields [name] purpose "register"
    flow 2 Clerk -> DB fields [name] purpose "register"
    flow 3 DB -> Clerk fields [name] purpose "register"
  }
  acl {
    allow Clerk create, read on DB
  }
}
"""


@pytest.fixture
def acceptance_report():
    return lint_text(ACCEPTANCE, path="acceptance.dsl")


def _by_rule(report, rule):
    return [d for d in report.diagnostics if d.rule == rule]


class TestRegistry:
    def test_categories_cover_three_tiers(self):
        assert RULE_CATEGORIES == ("structural", "policy", "taint")

    def test_at_least_twelve_rules_across_all_tiers(self):
        rules = list(iter_rules())
        assert len(rules) >= 12
        categories = {rule.category for rule in rules}
        assert categories == set(RULE_CATEGORIES)

    def test_rule_ids_sorted_and_resolvable(self):
        ids = rule_ids()
        assert list(ids) == sorted(ids)
        for rule_id in ids:
            assert get_rule(rule_id).id == rule_id

    def test_unknown_rule_raises(self):
        with pytest.raises(ValueError, match="unknown lint rule"):
            get_rule("no-such-rule")

    def test_every_rule_declares_severity_and_hint(self):
        for rule in iter_rules():
            assert rule.severity in (Severity.ERROR, Severity.WARNING)
            assert rule.summary
            assert rule.hint


class TestStructuralTier:
    def test_mirrors_validation_codes_and_severities(self):
        system = (SystemBuilder("bad").schema("S", ["a"]).actor("A")
                  .datastore("D", "S").service("svc")
                  .flow(1, "User", "Ghost", ["a"])
                  .build(validate=False))
        issues = validate_system(system, strict=False)
        report = run_lint(system, select=("structural",))
        assert sorted((i.code, i.severity, i.message)
                      for i in issues) == \
            sorted((d.rule, d.severity, d.message)
                   for d in report.diagnostics)

    def test_clean_model_is_clean(self):
        report = lint_text(CLEAN)
        assert report.clean
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 0


class TestAcceptanceModel:
    """The ISSUE's acceptance bar: three findings, correct spans,
    in all three formats, with 0/1/2 exit semantics."""

    def test_all_three_findings_fire(self, acceptance_report):
        report = acceptance_report
        assert len(_by_rule(report, "shadowed-grant")) == 1
        assert len(_by_rule(report, "dead-grant")) == 1
        assert len(_by_rule(report, "pseudonym-collision")) == 1

    def test_spans_point_at_the_declarations(self, acceptance_report):
        shadowed = _by_rule(acceptance_report, "shadowed-grant")[0]
        # The *third* grant (line 23) is the shadowed one; the
        # related span names the covering second grant (line 22).
        assert shadowed.span == Span(23, 5)
        assert shadowed.related[0].span == Span(22, 5)
        dead = _by_rule(acceptance_report, "dead-grant")[0]
        assert dead.span == Span(24, 5)
        collision = _by_rule(acceptance_report,
                             "pseudonym-collision")[0]
        assert collision.span.line == 8
        assert any(r.span.line == 9 for r in collision.related)

    def test_text_output_carries_line_and_column(
            self, acceptance_report):
        text = render_text(acceptance_report)
        assert "acceptance.dsl:23:5: WARNING [shadowed-grant]" in text
        assert "acceptance.dsl:24:5: WARNING [dead-grant]" in text
        assert ":8:5: WARNING [pseudonym-collision]" in text

    def test_json_output_round_trips_spans(self, acceptance_report):
        payload = json.loads(render(acceptance_report, "json"))
        by_rule = {d["rule"]: d for d in payload["diagnostics"]
                   if d["rule"] in ("shadowed-grant", "dead-grant")}
        assert (by_rule["shadowed-grant"]["line"],
                by_rule["shadowed-grant"]["column"]) == (23, 5)
        assert (by_rule["dead-grant"]["line"],
                by_rule["dead-grant"]["column"]) == (24, 5)
        assert by_rule["shadowed-grant"]["related"][0]["line"] == 22

    def test_sarif_output_carries_regions(self, acceptance_report):
        document = json.loads(render_sarif(acceptance_report))
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        regions = {
            result["ruleId"]:
                result["locations"][0]["physicalLocation"]["region"]
            for result in run["results"]}
        assert regions["shadowed-grant"] == \
            {"startLine": 23, "startColumn": 5}
        assert regions["dead-grant"] == \
            {"startLine": 24, "startColumn": 5}
        rule_ids_in_driver = [r["id"]
                              for r in run["tool"]["driver"]["rules"]]
        assert rule_ids_in_driver == sorted(rule_ids_in_driver)
        assert "shadowed-grant" in rule_ids_in_driver

    def test_exit_codes(self, acceptance_report):
        # Warnings only: clean exit unless strict.
        assert acceptance_report.errors == 0
        assert acceptance_report.exit_code() == 0
        assert acceptance_report.exit_code(strict=True) == 1


class TestPolicyRules:
    def test_shadowed_grant_needs_a_covering_earlier_entry(self):
        report = lint_text(CLEAN)
        assert not _by_rule(report, "shadowed-grant")

    def test_grant_without_flow(self):
        system = (SystemBuilder("g").schema("S", ["a"])
                  .actor("Clerk").actor("Lurker")
                  .datastore("D", "S").service("svc")
                  .flow(1, "User", "Clerk", ["a"])
                  .flow(2, "Clerk", "D", ["a"])
                  .allow("Clerk", "create", "D")
                  .allow("Lurker", "read", "D")
                  .build(validate=False))
        found = _by_rule(run_lint(system), "grant-without-flow")
        assert len(found) == 1
        assert "'Lurker'" in found[0].message

    def test_write_only_store(self):
        system = (SystemBuilder("w").schema("S", ["a"])
                  .actor("Clerk")
                  .datastore("D", "S").service("svc")
                  .flow(1, "User", "Clerk", ["a"])
                  .flow(2, "Clerk", "D", ["a"])
                  .allow("Clerk", "create", "D")
                  .build(validate=False))
        found = _by_rule(run_lint(system), "write-only-store")
        assert len(found) == 1
        assert "'D'" in found[0].message

    def test_unused_purpose(self):
        report = lint_text(ACCEPTANCE)
        found = _by_rule(report, "unused-purpose")
        # "hire" flows downstream; "audit" originates at a store (not
        # USER) so neither is an unused *collection* purpose... unless
        # flagged. Just assert determinism of the rule's output here.
        assert found == _by_rule(lint_text(ACCEPTANCE),
                                 "unused-purpose")

    def test_pseudonym_never_read(self, acceptance_report):
        rules = {d.rule for d in acceptance_report.diagnostics}
        assert "pseudonym-never-read" in rules


class TestTaintRules:
    def test_dead_grant_spares_reachable_fields(self):
        # Auditor legitimately reads dept (flow 3 delivers it); only
        # the salary grant is dead.
        report = lint_text(ACCEPTANCE)
        dead = _by_rule(report, "dead-grant")
        assert len(dead) == 1
        assert "salary" in dead[0].message

    def test_silent_disclosure(self):
        system = (SystemBuilder("sd").schema("S", ["a"])
                  .actor("Clerk").actor("Reader")
                  .datastore("D", "S").service("svc")
                  .flow(1, "User", "Clerk", ["a"])
                  .flow(2, "Clerk", "D", ["a"])
                  .flow(3, "D", "Reader", ["a"])
                  .allow("Clerk", "create", "D")
                  .build(validate=False))
        found = _by_rule(run_lint(system), "silent-disclosure")
        assert len(found) == 1
        assert "'Reader'" in found[0].message


class TestSelectIgnore:
    def test_select_by_category(self, acceptance_report):
        report = lint_text(ACCEPTANCE, select=("taint",))
        assert {d.category for d in report.diagnostics} <= {"taint"}
        assert _by_rule(report, "dead-grant")

    def test_ignore_wins_over_select(self):
        report = lint_text(ACCEPTANCE, select=("policy",),
                           ignore=("shadowed-grant",))
        assert not _by_rule(report, "shadowed-grant")
        assert report.diagnostics  # other policy rules still ran

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown --select"):
            lint_text(ACCEPTANCE, select=("bogus",))

    def test_rules_run_reflects_the_filter(self):
        report = lint_text(CLEAN, select=("structural",))
        assert report.rules_run
        assert all(get_rule(r).category == "structural"
                   for r in report.rules_run)


class TestSpans:
    def test_builder_models_get_synthetic_spans(self):
        system = (SystemBuilder("b").schema("S", ["a"]).actor("A")
                  .datastore("D", "S").service("svc")
                  .flow(1, "User", "Ghost", ["a"])
                  .build(validate=False))
        report = run_lint(system)
        assert report.diagnostics
        assert all(d.span == SYNTHETIC for d in report.diagnostics)
        assert "<synthetic>" in report.diagnostics[0].describe()

    def test_duplicate_acl_entries_have_distinct_spans(self):
        # Satellite 3: entry #2 and its duplicate #3 are separate
        # grant keys in the span table, so shadowed-grant can point
        # at both locations.
        system = parse_dsl(ACCEPTANCE, validate=False)
        assert system.spans.get(("grant", 1)) == Span(22, 5)
        assert system.spans.get(("grant", 2)) == Span(23, 5)
        assert system.spans.get(("grant", 1)) != \
            system.spans.get(("grant", 2))

    def test_unknown_entity_is_synthetic_not_keyerror(self):
        system = parse_dsl(CLEAN)
        assert system.spans.get(("nonsense", "x")) == SYNTHETIC


class TestRenderers:
    def test_byte_stable_across_runs(self):
        for fmt in ("text", "json", "sarif"):
            first = render(lint_text(ACCEPTANCE), fmt)
            second = render(lint_text(ACCEPTANCE), fmt)
            assert first == second

    def test_clean_text_says_so(self):
        text = render_text(lint_text(CLEAN, path="clean.dsl"))
        assert "clean.dsl: clean (no findings)" in text

    def test_unknown_format_raises(self):
        with pytest.raises(ValueError, match="unknown lint format"):
            render(lint_text(CLEAN), "xml")

    def test_diagnostic_round_trip(self, acceptance_report):
        for diagnostic in acceptance_report.diagnostics:
            clone = Diagnostic.from_dict(diagnostic.to_dict())
            assert clone == diagnostic
            assert clone.span == diagnostic.span
            assert clone.related == diagnostic.related


class TestCli:
    @pytest.fixture
    def acceptance_file(self, tmp_path):
        path = tmp_path / "acceptance.dsl"
        path.write_text(ACCEPTANCE)
        return str(path)

    def test_lint_warnings_exit_zero(self, acceptance_file, capsys):
        assert main(["lint", acceptance_file]) == 0
        out = capsys.readouterr().out
        assert "shadowed-grant" in out
        assert "dead-grant" in out
        assert "pseudonym-collision" in out

    def test_lint_strict_exits_one(self, acceptance_file):
        assert main(["lint", acceptance_file, "--strict"]) == 1

    def test_lint_errors_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.dsl"
        path.write_text(CLEAN.replace("Clerk -> DB", "Clerk -> Ghost"))
        assert main(["lint", str(path)]) == 1
        assert "unknown-node" in capsys.readouterr().out

    def test_lint_parse_failure_exits_two(self, tmp_path, capsys):
        path = tmp_path / "junk.dsl"
        path.write_text("this is not a model")
        assert main(["lint", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_lint_sarif_to_file(self, acceptance_file, tmp_path):
        out = tmp_path / "report.sarif"
        code = main(["lint", acceptance_file, "--format", "sarif",
                     "-o", str(out)])
        assert code == 0
        document = json.loads(out.read_text())
        assert document["version"] == "2.1.0"

    def test_lint_select_filters(self, acceptance_file, capsys):
        assert main(["lint", acceptance_file,
                     "--select", "structural"]) == 0
        out = capsys.readouterr().out
        assert "shadowed-grant" not in out

    def test_validate_json(self, acceptance_file, capsys):
        assert main(["validate", acceptance_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 0
        assert all(d["category"] == "structural"
                   for d in payload["diagnostics"])

    def test_validate_error_model_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.dsl"
        path.write_text(CLEAN.replace("Clerk -> DB", "Clerk -> Ghost"))
        assert main(["validate", str(path)]) == 1
        assert "unknown-node" in capsys.readouterr().out


class TestLintWire:
    """Satellite 4: ``/v1/lint`` round-trips — JSON and SARIF parse
    on the far side, spans survive the wire."""

    @pytest.fixture
    def server(self, tmp_path):
        from repro.service import AnalysisService, AsyncServerThread
        service = AnalysisService(
            backend="serial", cache_dir=str(tmp_path / "cache"))
        front = AsyncServerThread(service).start()
        yield front.base
        front.stop()
        service.close()

    @staticmethod
    def _call(base, payload):
        import urllib.error
        import urllib.request
        request = urllib.request.Request(
            base + "/v1/lint", data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=30) as reply:
                return reply.status, json.loads(reply.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_json_round_trip_spans_survive(self, server):
        from repro.service import LintRequest, LintResponse
        status, body = self._call(server, {
            "model": {"text": ACCEPTANCE}})
        assert status == 200
        response = LintResponse.from_dict(body)
        assert response.model == "Acceptance"
        assert response.errors == 0 and response.warnings >= 3
        assert response.exit_code == 0
        by_rule = {d.rule: d for d in response.diagnostics}
        assert by_rule["shadowed-grant"].span == Span(23, 5)
        assert by_rule["shadowed-grant"].related[0].span == Span(22, 5)
        assert by_rule["dead-grant"].span == Span(24, 5)
        # The decoded request shape itself round-trips too.
        request = LintRequest.from_dict(
            {"model": {"text": ACCEPTANCE}, "strict": True,
             "select": ["policy"]})
        assert LintRequest.from_dict(request.to_dict()) == request

    def test_sarif_survives_the_wire(self, server):
        status, body = self._call(server, {
            "model": {"text": ACCEPTANCE}})
        assert status == 200
        sarif = body["sarif"]
        assert sarif["version"] == "2.1.0"
        results = sarif["runs"][0]["results"]
        regions = {
            r["ruleId"]:
                r["locations"][0]["physicalLocation"]["region"]
            for r in results}
        assert regions["shadowed-grant"]["startLine"] == 23
        # Wire SARIF matches a local render of the same model.
        local = json.loads(render_sarif(lint_text(ACCEPTANCE)))
        assert {r["ruleId"] for r in results} == \
            {r["ruleId"] for r in local["runs"][0]["results"]}

    def test_strict_and_select_flags(self, server):
        status, body = self._call(server, {
            "model": {"text": ACCEPTANCE}, "strict": True})
        assert status == 200 and body["exit_code"] == 1
        status, body = self._call(server, {
            "model": {"text": ACCEPTANCE}, "select": ["taint"]})
        assert status == 200
        assert {d["category"] for d in body["diagnostics"]} == \
            {"taint"}

    def test_error_model_lints_instead_of_422(self, server):
        broken = CLEAN.replace("Clerk -> DB", "Clerk -> Ghost")
        status, body = self._call(server, {"model": {"text": broken}})
        assert status == 200
        assert body["errors"] >= 1 and body["exit_code"] == 1
        assert any(d["rule"] == "unknown-node"
                   for d in body["diagnostics"])

    def test_unparseable_model_is_422(self, server):
        status, body = self._call(server, {
            "model": {"text": "not a model"}})
        assert status == 422
        assert body["error"]["code"] == "invalid_model"

    def test_unknown_select_name_is_400(self, server):
        status, body = self._call(server, {
            "model": {"text": ACCEPTANCE}, "select": ["bogus"]})
        assert status == 400
        assert body["error"]["code"] == "bad_request"


class TestEnginePreflight:
    def _jobs(self, system):
        from repro.consent import UserProfile
        from repro.engine import AnalysisJob
        return [AnalysisJob(
            system=system,
            user=UserProfile("u", agreed_services=["svc"]))]

    def _bad_system(self):
        return (SystemBuilder("bad").schema("S", ["a"]).actor("A")
                .datastore("D", "S").service("svc")
                .flow(1, "User", "Ghost", ["a"])
                .build(validate=False))

    def _good_system(self):
        return (SystemBuilder("good").schema("S", ["a"])
                .actor("Clerk")
                .datastore("D", "S").service("svc")
                .flow(1, "User", "Clerk", ["a"])
                .flow(2, "Clerk", "D", ["a"])
                .flow(3, "D", "Clerk", ["a"])
                .allow("Clerk", "create", "D")
                .allow("Clerk", "read", "D")
                .build())

    def test_strict_refuses_before_any_cache_write(self):
        from repro.engine import BatchEngine
        engine = BatchEngine(backend="serial")
        with pytest.raises(LintError) as excinfo:
            engine.run(self._jobs(self._bad_system()), lint="strict")
        assert excinfo.value.diagnostics
        assert engine.result_cache.stats.puts == 0
        assert engine.lts_cache.stats.puts == 0

    def test_warn_mode_proceeds_and_counts(self):
        from repro.engine import BatchEngine
        engine = BatchEngine(backend="serial")
        batch = engine.run(self._jobs(self._good_system()),
                           lint="warn")
        assert len(batch.results) == 1
        assert batch.stats.linted == 1

    def test_lint_cache_reuse_across_runs(self):
        from repro.engine import BatchEngine
        engine = BatchEngine(backend="serial")
        system = self._good_system()
        first = engine.run(self._jobs(system), lint="warn")
        second = engine.run(self._jobs(system), lint="warn")
        assert first.stats.linted == 1
        assert second.stats.linted == 0
        assert second.stats.lint_reuses == 1

    def test_invalid_lint_value_raises(self):
        from repro.engine import BatchEngine
        with pytest.raises(ValueError, match="lint"):
            BatchEngine(backend="serial").run([], lint="loud")

    def test_true_means_strict(self):
        from repro.engine import BatchEngine
        with pytest.raises(LintError):
            BatchEngine(backend="serial").run(
                self._jobs(self._bad_system()), lint=True)
