"""Unit tests for the command-line interface."""

import os

import pytest

from repro.cli import main
from repro.dfd import to_dsl

GOOD_MODEL = """
system demo {
  schema S {
    field name: string kind identifier
    field issue: string kind sensitive
  }
  actor Doctor
  actor Auditor
  datastore Records schema S
  service Consult {
    flow 1 User -> Doctor fields [name, issue] purpose "consult"
    flow 2 Doctor -> Records fields [name, issue] purpose "record"
  }
  acl {
    allow Doctor read, create on Records
    allow Auditor read on Records
  }
}
"""

BROKEN_MODEL = """
system demo {
  schema S { field a: string }
  actor A
  service svc { flow 1 User -> Ghost fields [a] }
}
"""


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.dsl"
    path.write_text(GOOD_MODEL)
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.dsl"
    path.write_text(BROKEN_MODEL)
    return str(path)


class TestValidate:
    def test_valid_model_exits_zero(self, model_file, capsys):
        assert main(["validate", model_file]) == 0
        assert "structurally valid" in capsys.readouterr().out

    def test_broken_model_exits_one(self, broken_file, capsys):
        assert main(["validate", broken_file]) == 1
        out = capsys.readouterr().out
        assert "unknown-node" in out

    def test_missing_file_exits_two(self, capsys):
        assert main(["validate", "/nonexistent.dsl"]) == 2
        assert "error" in capsys.readouterr().err


class TestDot:
    def test_dfd_dot(self, model_file, capsys):
        assert main(["dot", model_file]) == 0
        out = capsys.readouterr().out
        assert "digraph" in out and "subgraph" in out

    def test_lts_dot(self, model_file, capsys):
        assert main(["dot", model_file, "--lts"]) == 0
        assert '"s0"' in capsys.readouterr().out

    def test_lts_dot_with_variables(self, model_file, capsys):
        assert main(["dot", model_file, "--lts", "--variables"]) == 0
        assert "has(" in capsys.readouterr().out

    def test_output_file(self, model_file, tmp_path, capsys):
        out_path = tmp_path / "g.dot"
        assert main(["dot", model_file, "-o", str(out_path)]) == 0
        assert "digraph" in out_path.read_text()
        assert capsys.readouterr().out == ""


class TestLts:
    def test_digest_printed(self, model_file, capsys):
        assert main(["lts", model_file]) == 0
        out = capsys.readouterr().out
        assert "states" in out and "collect: 1" in out

    def test_service_restriction(self, model_file, capsys):
        assert main(["lts", model_file, "--services", "Consult"]) == 0

    def test_unknown_service_exits_two(self, model_file, capsys):
        assert main(["lts", model_file, "--services", "Ghost"]) == 2

    def test_sequence_ordering(self, model_file, capsys):
        assert main(["lts", model_file, "--ordering", "sequence"]) == 0


class TestIdentify:
    def test_table_printed(self, model_file, capsys):
        assert main(["identify", model_file]) == 0
        out = capsys.readouterr().out
        assert "Doctor" in out and "could identify" in out


class TestAnalyse:
    def test_report_and_exit_code(self, model_file, capsys):
        code = main(["analyse", model_file, "--agree", "Consult",
                     "--sensitivity", "issue=high"])
        out = capsys.readouterr().out
        assert "MEDIUM" in out
        assert code == 0  # default --fail-at high

    def test_fail_at_medium(self, model_file, capsys):
        code = main(["analyse", model_file, "--agree", "Consult",
                     "--sensitivity", "issue=high",
                     "--fail-at", "medium"])
        assert code == 1

    def test_numeric_sensitivity(self, model_file, capsys):
        code = main(["analyse", model_file, "--agree", "Consult",
                     "--sensitivity", "issue=0.95",
                     "--default-sensitivity", "0.1"])
        assert code == 0
        assert "MEDIUM" in capsys.readouterr().out

    def test_bad_sensitivity_syntax(self, model_file, capsys):
        assert main(["analyse", model_file, "--agree", "Consult",
                     "--sensitivity", "issue"]) == 2
        assert "field=value" in capsys.readouterr().err

    def test_unknown_service_exits_two(self, model_file, capsys):
        assert main(["analyse", model_file, "--agree", "Ghost"]) == 2


class TestRealCaseStudy:
    def test_surgery_model_through_cli(self, tmp_path, capsys):
        from repro.casestudies import build_surgery_system
        path = tmp_path / "surgery.dsl"
        path.write_text(to_dsl(build_surgery_system()))
        code = main([
            "analyse", str(path),
            "--agree", "MedicalService",
            "--sensitivity", "diagnosis=high",
            "--default-sensitivity", "0.2",
            "--fail-at", "high",
        ])
        out = capsys.readouterr().out
        assert "Administrator" in out
        assert "MEDIUM" in out
        assert code == 0


class TestEngineCommands:
    def test_engine_run_over_models(self, model_file, tmp_path, capsys):
        # A design variant of the same service: the Auditor grant
        # dropped, so the engine reports both models side by side.
        second = tmp_path / "model2.dsl"
        second.write_text(GOOD_MODEL.replace(
            "    allow Auditor read on Records\n", ""))
        code = main([
            "engine", "run", model_file, str(second),
            "--agree", "Consult",
            "--sensitivity", "issue=high",
            "--backend", "serial",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "max risk" in out
        assert "result cache:" in out
        # Submission order is preserved in the per-model lines.
        assert out.index(model_file) < out.index(str(second))

    def test_engine_run_fail_at_gate(self, model_file, capsys):
        code = main([
            "engine", "run", model_file,
            "--agree", "Consult",
            "--sensitivity", "issue=high",
            "--backend", "serial",
            "--fail-at", "medium",
        ])
        assert code == 1

    def test_engine_run_cache_dir_warm_second_call(self, model_file,
                                                   tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = ["engine", "run", model_file, "--agree", "Consult",
                "--backend", "serial", "--cache-dir", cache_dir]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "(cached)" in capsys.readouterr().out

    def test_engine_sweep_reports_fleet(self, capsys):
        code = main(["engine", "sweep", "--count", "4",
                     "--backend", "serial", "--personas", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "TOTAL" in out
        assert "risk levels:" in out
        assert "result cache:" in out

    def test_engine_sweep_json_output(self, tmp_path, capsys):
        import json
        target = tmp_path / "fleet.json"
        code = main(["engine", "sweep", "--count", "4",
                     "--backend", "serial", "--personas", "1",
                     "--json", "-o", str(target)])
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["jobs"] == 4
        assert "level_histogram" in payload

    def test_engine_run_missing_model_exits_two(self, capsys):
        assert main(["engine", "run", "no-such-file.dsl",
                     "--agree", "Consult"]) == 2

    @pytest.mark.parametrize("kind", [
        "pseudonym", "consent_change", "reidentify"])
    def test_engine_run_accepts_every_kind(self, model_file, kind,
                                           capsys):
        code = main(["engine", "run", model_file,
                     "--agree", "Consult", "--kind", kind,
                     "--backend", "serial"])
        out = capsys.readouterr().out
        assert code == 0
        assert f"[{kind}]" in out

    def test_engine_run_consent_change_params(self, model_file,
                                              capsys):
        code = main(["engine", "run", model_file,
                     "--agree", "Consult",
                     "--kind", "consent_change",
                     "--change-withdraw", "Consult",
                     "--backend", "serial"])
        assert code == 0
        assert "max risk none" in capsys.readouterr().out

    def test_engine_sweep_mixed_kinds(self, capsys):
        code = main(["engine", "sweep", "--count", "4",
                     "--backend", "serial", "--personas", "1",
                     "--kinds", "disclosure", "consent_change"])
        out = capsys.readouterr().out
        assert code == 0
        assert "analysis kinds:" in out
        assert "consent_change=2" in out

    def test_engine_reanalyze_reports_plan(self, model_file, tmp_path,
                                           capsys):
        # A create-only grant edit: the LTS provably survives.
        second = tmp_path / "model2.dsl"
        second.write_text(GOOD_MODEL.replace(
            "    allow Auditor read on Records\n",
            "    allow Auditor read on Records\n"
            "    allow Auditor create on Records\n"))
        code = main(["engine", "reanalyze", model_file, str(second),
                     "--agree", "Consult", "--backend", "serial"])
        out = capsys.readouterr().out
        assert code == 0
        assert "baseline:" in out
        assert "change invalidates: analyzers" in out
        assert "re-seeded" in out
        assert "0 LTS generations" in out

    def test_engine_reanalyze_identical_models(self, model_file,
                                               capsys):
        code = main(["engine", "reanalyze", model_file, model_file,
                     "--agree", "Consult", "--backend", "serial"])
        out = capsys.readouterr().out
        assert code == 0
        assert "change invalidates: nothing" in out
        assert "1 result-cache hits" in out

    def test_engine_cache_stats_and_prune(self, model_file, tmp_path,
                                          capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["engine", "run", model_file, "--agree", "Consult",
                     "--backend", "serial",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["engine", "cache", "stats",
                     "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "results:" in out
        assert "lts:" in out
        assert main(["engine", "cache", "prune",
                     "--cache-dir", cache_dir,
                     "--max-bytes", "0"]) == 0
        assert "pruned" in capsys.readouterr().out
        assert main(["engine", "cache", "stats",
                     "--cache-dir", cache_dir]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_engine_cache_stats_empty_dir(self, tmp_path, capsys):
        assert main(["engine", "cache", "stats", "--cache-dir",
                     str(tmp_path / "nowhere")]) == 0
        assert "no engine stores" in capsys.readouterr().out

    def test_change_flags_rejected_outside_consent_change(
            self, model_file, capsys):
        """--change-* params enter cache identity but only the
        consent_change kind reads them: misuse is a usage error, not a
        silent cache fork."""
        code = main(["engine", "run", model_file,
                     "--agree", "Consult",
                     "--change-withdraw", "Consult",
                     "--backend", "serial"])
        assert code == 2
        assert "consent_change" in capsys.readouterr().err

    def test_parser_kind_choices_match_the_registry(self):
        """The parser spells the kinds out (to stay import-lazy); this
        pins the list to the registry so a new kind cannot be
        forgotten."""
        from repro.cli import build_parser
        from repro.engine import kind_names
        parser = build_parser()
        text = parser.format_help()  # forces subparser construction
        assert text is not None
        engine_parser = next(
            a for a in parser._subparsers._group_actions
        ).choices["engine"]
        run_parser = next(
            a for a in engine_parser._subparsers._group_actions
        ).choices["run"]
        kind_action = next(a for a in run_parser._actions
                           if a.dest == "kind")
        assert tuple(kind_action.choices) == kind_names()

    def test_engine_sweep_json_stdout_is_pure_json(self, capsys):
        """With --json and no -o, stdout must be parseable JSON; the
        cache accounting line moves to stderr."""
        import json
        code = main(["engine", "sweep", "--count", "2",
                     "--backend", "serial", "--personas", "1",
                     "--json"])
        assert code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["jobs"] == 2
        assert "result cache:" in captured.err

    def test_engine_run_json_output(self, model_file, capsys):
        import json
        code = main(["engine", "run", model_file,
                     "--agree", "Consult", "--backend", "serial",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_level"] in ("none", "low", "medium",
                                        "high")
        assert payload["results"][0]["scenario"] == model_file
        assert payload["stats"]["jobs"] == 1

    def test_engine_run_population_kind(self, model_file, capsys):
        code = main(["engine", "run", model_file,
                     "--agree", "Consult", "--kind", "population",
                     "--backend", "serial"])
        assert code == 0
        assert "[population]" in capsys.readouterr().out

    def test_engine_reanalyze_json_output(self, model_file, capsys):
        import json
        code = main(["engine", "reanalyze", model_file, model_file,
                     "--agree", "Consult", "--backend", "serial",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plan"]["level"] == "nothing"
        assert payload["baseline"]["stats"]["jobs"] == 1

    def test_engine_cache_stats_json(self, model_file, tmp_path,
                                     capsys):
        import json
        cache_dir = str(tmp_path / "cache")
        assert main(["engine", "run", model_file, "--agree", "Consult",
                     "--backend", "serial",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["engine", "cache", "stats",
                     "--cache-dir", cache_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stores"]["results"]["entries"] == 1
        assert main(["engine", "cache", "prune",
                     "--cache-dir", cache_dir, "--max-bytes", "0",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stores"]["results"]["removed"] == 1

    def test_engine_run_invalid_model_structured_error(
            self, broken_file, capsys):
        """Malformed models exit 2 with a structured message, never a
        traceback."""
        code = main(["engine", "run", broken_file,
                     "--agree", "svc", "--backend", "serial"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "structurally invalid" in err

    def test_engine_run_unparsable_model_structured_error(
            self, tmp_path, capsys):
        path = tmp_path / "bad.dsl"
        path.write_text("system { nope")
        code = main(["engine", "run", str(path),
                     "--agree", "Consult", "--backend", "serial"])
        assert code == 2
        assert "does not parse" in capsys.readouterr().err

    def test_cli_and_service_signatures_agree(self, model_file,
                                              capsys):
        """Acceptance: the CLI's --json results carry the same
        signatures the facade (and therefore the HTTP server)
        produces for the equivalent request."""
        import json
        from repro.service import (AnalysisRequest, AnalysisService,
                                   ModelRef, UserSpec,
                                   result_from_dict)
        assert main(["engine", "run", model_file, "--agree", "Consult",
                     "--sensitivity", "issue=high",
                     "--backend", "serial", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        cli_signatures = [result_from_dict(r).signature()
                          for r in payload["results"]]
        service = AnalysisService(backend="serial")
        response = service.analyze(AnalysisRequest(
            models=(ModelRef(path=model_file),),
            user=UserSpec(agree=("Consult",),
                          sensitivities=(("issue", "high"),))))
        assert cli_signatures == list(response.signatures())


class TestServeCommand:
    def test_serve_starts_and_answers_health(self, tmp_path):
        """`repro serve` end to end: a real process binds an ephemeral
        port, answers over HTTP and exits 0 on SIGTERM."""
        import json
        import select
        import signal
        import subprocess
        import sys
        import urllib.request

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--backend", "serial", "--cache-dir", str(tmp_path / "c")],
            env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
            cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            ready, _, _ = select.select([process.stdout], [], [], 30)
            assert ready, "no ready line within 30s"
            line = process.stdout.readline().decode()
            address = line.split("http://", 1)[1].split(" ", 1)[0]
            with urllib.request.urlopen(
                    f"http://{address}/v1/health",
                    timeout=10) as reply:
                payload = json.loads(reply.read())
            assert payload["status"] == "ok"
            assert payload["backend"] == "serial"
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0, \
                process.stderr.read().decode()
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
            process.stderr.close()

    def test_serve_is_wired_into_the_parser(self):
        from repro.cli import build_parser
        parser = build_parser()
        args = parser.parse_args(["serve", "--port", "0",
                                  "--backend", "serial"])
        assert args.port == 0
        assert args.func.__name__ == "_cmd_serve"

    def test_non_engine_commands_do_not_import_the_engine(
            self, model_file):
        """`repro validate` must not pay the engine package's import
        cost (the commands import it lazily)."""
        import subprocess
        import sys
        code = subprocess.run(
            [sys.executable, "-c",
             "import sys; from repro.cli import main; "
             f"main(['validate', {model_file!r}]); "
             "sys.exit('repro.engine' in sys.modules)"],
            env={"PYTHONPATH": "src", "PATH": os.environ["PATH"]},
            cwd=os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))),
            capture_output=True)
        assert code.returncode == 0, code.stderr.decode()


class TestTaintCommand:
    def test_flagged_model_exits_one_with_witness(self, model_file,
                                                  capsys):
        # Auditor holds a read grant on Records but is outside the
        # agreed Consult flows, so the closure must flag it.
        code = main(["taint", model_file, "--agree", "Consult",
                     "--witness"])
        out = capsys.readouterr().out
        assert code == 1
        assert "flagged: Auditor can read" in out
        assert " -> " in out
        assert "certificate:" in out
        assert "verdict: flagged" in out

    def test_clean_model_exits_zero(self, tmp_path, capsys):
        clean = GOOD_MODEL.replace(
            "    allow Auditor read on Records\n", "")
        path = tmp_path / "clean.dsl"
        path.write_text(clean)
        code = main(["taint", str(path), "--agree", "Consult"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: clean" in out

    def test_unknown_service_is_a_usage_error(self, model_file,
                                              capsys):
        # Agreeing to a service the model does not define is rejected
        # before the closure runs, like the exact analyzers do.
        code = main(["taint", model_file, "--agree", "Ghost"])
        assert code == 2

    def test_screened_sweep_reports_skips(self, capsys):
        code = main(["engine", "sweep", "--count", "6",
                     "--backend", "serial", "--personas", "1",
                     "--screen"])
        out = capsys.readouterr().out
        assert code == 0
        assert "taint screen:" in out
