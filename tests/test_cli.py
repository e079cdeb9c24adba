import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fourval
from fourval import cli
from fourval.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--output", "json")
    return code, json.loads(out) if out else None, err


def test_decide_valid_exits_zero(capsys):
    code, report, _ = run_json(capsys, "decide", "--logic", "BDNF",
                               r"T(x), NF(~x \/ y) |- NF(y)")
    assert code == 0
    assert report["schema"] == 1
    assert report["valid"] is True


def test_decide_signature_error_exits_two(capsys):
    code, _, err = run(capsys, "decide", "--logic", "BD", "T(x), T(y) |- x = y")
    assert code == 2
    assert "eq" in err


def test_decide_mc_rule(capsys):
    code, report, _ = run_json(capsys, "decide", "--logic", "MC-ETL",
                               r"E(x \/ y) |- E(~x \/ ~y) | E(x) | E(y)")
    assert code == 0 and report["preset"] == "ETL"


def test_decide_invalid_reports_counter_valuation(capsys):
    code, report, _ = run_json(capsys, "decide", "--logic", "BD",
                               r"T(x /\ (~x \/ y)) |- T(y)")
    assert code == 1
    assert report["results"][0]["counter_valuation"] == {"x": "b", "y": "f"}


def test_decide_rule_file(capsys, tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text("# two displayed rules\nE(x) |- T(x)\nE(x), T(~x \\/ y) |- T(y)\n")
    code, report, _ = run_json(capsys, "decide", "--logic", "BDE", "--file", str(path))
    assert code == 0 and len(report["results"]) == 2


def test_decide_rule_file_without_rules_is_marked_empty(capsys, tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text("# only a comment\n\n")
    code, report, _ = run_json(capsys, "decide", "--logic", "BDE", "--file", str(path))
    assert code == 0
    assert (report["results"], report["valid"], report["empty"]) == ([], True, True)
    code, out, _ = run(capsys, "decide", "--logic", "BDE", "--file", str(path))
    assert code == 0 and "empty: True\n" in out
    code, report, _ = run_json(capsys, "decide", "--logic", "BDE", "E(x) |- E(x)")
    assert "empty" not in report


def test_decide_rule_file_error_names_its_line(capsys, tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text("T(x) |- T(x)\n# a comment line\nT(x) |- T(@)\n")
    code, out, err = run(capsys, "decide", "--logic", "BD", "--file", str(path))
    assert code == 2 and out == ""
    assert err == "error: line 3: unexpected character '@' (at position 10)\n"


def test_decide_rule_file_comment_may_begin_like_a_constant(capsys, tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text("T(x) |- T(x \\/ y)  #note: or-intro\nT(x) |- T(x)  #todo\n")
    code, report, err = run_json(capsys, "decide", "--logic", "BD", "--file", str(path))
    assert (code, err) == (0, "") and len(report["results"]) == 2


def _decide_rule_or_file(capsys, tmp_path, rule, via_file, *argv):
    if via_file:
        path = tmp_path / "rules.txt"
        path.write_text(rule + "\n")
        return run(capsys, "decide", "--logic", "BDE", "--file", str(path), *argv)
    return run(capsys, "decide", "--logic", "BDE", rule, *argv)


@pytest.mark.parametrize("via_file", [False, True])
def test_decide_too_deeply_nested_rule_exits_two(capsys, tmp_path, via_file):
    rule = "T(" + "~" * 5000 + "x) |- T(x)"
    code, out, err = _decide_rule_or_file(capsys, tmp_path, rule, via_file)
    assert code == 2 and out == ""
    assert err.startswith("error: line 1: nested too deeply (at position " if via_file
                          else "error: nested too deeply (at position ")


@pytest.mark.parametrize("via_file", [False, True])
def test_decide_rule_nested_900_deep(capsys, tmp_path, via_file):
    rule = "T(" + "~" * 900 + "x) |- T(x)"
    code, out, err = _decide_rule_or_file(capsys, tmp_path, rule, via_file, "--output", "json")
    assert code == 0 and err == ""
    assert json.loads(out)["results"] == [{"rule": rule, "valid": True}]


def test_derive_certificate(capsys):
    code, report, _ = run_json(capsys, "derive", "--system", "BDE", "--depth", "6",
                               r"E(x /\ (~x \/ y)) |- E(y)")
    assert code == 0
    assert report["status"] == "derived" and report["certificate_checked"] is True


def test_derive_trivial_certificate(capsys):
    code, report, _ = run_json(capsys, "derive", "--system", "BDE", "E(x) |- E(x)")
    assert code == 0 and report["depth"] == 0


def test_derive_refuted_exits_one(capsys):
    code, report, _ = run_json(capsys, "derive", "--system", "BD-base", "T(x) |- T(~x)")
    assert code == 1
    assert report["status"] == "invalid" and "counter_valuation" in report


def test_derive_inconclusive_exits_three(capsys):
    # valid rule, depth too small for the search to reach it
    code, report, _ = run_json(capsys, "derive", "--system", "BDE", "--depth", "1",
                               r"E(x /\ (~x \/ y)) |- E(y)")
    assert code == 3 and report["status"] == "inconclusive"


def test_verify_unknown_suite_exits_two(capsys):
    code, _, err = run(capsys, "verify", "nope")
    assert code == 2 and "unknown verification suite" in err


def test_verify_soundness(capsys):
    code, report, _ = run_json(capsys, "verify", "soundness")
    assert code == 0
    assert report["ok"] is True
    assert report["suites"][0]["suite"] == "soundness"


def test_systems_list_and_show(capsys):
    code, report, _ = run_json(capsys, "systems", "list")
    assert code == 0 and "BDE" in report["systems"]
    code, report, _ = run_json(capsys, "systems", "show", "BDE")
    assert code == 0
    roles = {s["role"] for s in report["schemes"]}
    assert roles == {"base", "interaction"}
    code, out, _ = run(capsys, "systems", "show", "BDE", "--rules")
    assert code == 0 and "|-" in out


def test_systems_show_unknown_exits_two(capsys):
    code, _, err = run(capsys, "systems", "show", "XYZ")
    assert code == 2


def test_unknown_preset_exits_two(capsys):
    code, _, err = run(capsys, "leibniz", "--preset", "NOPE")
    assert code == 2 and "unknown preset 'NOPE'" in err


def test_decide_unknown_logic_names_both_kinds(capsys):
    """--logic takes a preset or an axiom-system name, so an unknown one
    is reported as neither; a bad suffix or an unsupported constant keeps
    its own message."""
    code, out, err = run(capsys, "decide", "--logic", "NOPE", "T(x) |- T(x)")
    assert (code, out, err) == (2, "", "error: unknown preset or axiom system 'NOPE'\n")
    code, _, err = run(capsys, "decide", "--logic", "BDE+x", "T(x) |- T(x)")
    assert code == 2 and "bad constant suffix 'x'" in err
    code, _, err = run(capsys, "decide", "--logic", "BD-base+t", "T(x) |- T(x)")
    assert code == 2 and "does not support constants" in err


def test_verify_help_names_every_suite(capsys, monkeypatch):
    from fourval import verify

    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run(capsys, "verify", "--help")
    assert code == 0
    assert max(map(len, out.splitlines())) <= 80
    words = set(out.replace(",", " ").split())
    for name in verify.SUITES:  # whole, not broken at a hyphen
        assert name in words, name
    assert "--list" not in out


def _record_suites(monkeypatch) -> list[str]:
    """Replace verify.run_suite by a stub that records the names it is given."""
    from fourval import verify

    ran = []

    def record(name, **kwargs):
        ran.append(name)
        return {"suite": name, "checks": 1, "violations": [], "ok": True, "timings": {}}

    monkeypatch.setattr(verify, "run_suite", record)
    return ran


def test_verify_checks_every_suite_name_before_running_any(capsys, monkeypatch):
    ran = _record_suites(monkeypatch)
    code, _, err = run(capsys, "verify", "facts", "bogus")
    assert code == 2 and "unknown verification suite 'bogus'" in err
    assert ran == []


def test_verify_all_runs_the_registry_in_order(capsys, monkeypatch):
    from fourval import verify

    ran = _record_suites(monkeypatch)
    code, _, _ = run(capsys, "verify", "all")
    assert code == 0 and ran == list(verify.SUITES)


def test_internal_key_error_is_not_a_usage_error(capsys, monkeypatch):
    def broken(cfg):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "cmd_leibniz", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["leibniz", "--preset", "BD"])


def test_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    def broken(cfg):
        raise ValueError("internal")

    monkeypatch.setattr(cli, "cmd_leibniz", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["leibniz", "--preset", "BD"])


def test_derive_multiple_conclusion_system_exits_two(capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("derive called")

    monkeypatch.setattr(cli, "derive", unreachable)
    code, out, err = run(capsys, "derive", "--system", "MC-ETL", "E(x) |- E(x)")
    assert code == 2 and out == ""
    assert "single-conclusion" in err and "MC-ETL" in err


def test_decide_unreadable_rule_file_exits_two(capsys, tmp_path):
    missing = tmp_path / "missing.rules"
    code, out, err = run(capsys, "decide", "--logic", "BD", "--file", str(missing))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read rule file") and "missing.rules" in err
    binary = tmp_path / "binary.rules"
    binary.write_bytes(b"\xff\xfe\x00")
    code, _, err = run(capsys, "decide", "--logic", "BD", "--file", str(binary))
    assert code == 2 and err.startswith("error: cannot read rule file")


def test_algebra_dump_constants_use_the_suffix_codec(capsys):
    _, by_flag, _ = run_json(capsys, "algebra", "dump", "BDE-eq", "--constants", "bt")
    _, by_name, _ = run_json(capsys, "algebra", "dump", "BDE-eq+tb")
    assert by_flag["algebra"] == by_name["algebra"]
    assert by_flag["algebra"]["ops"]["const"] == {"#b": 1, "#t": 0}
    code, _, err = run(capsys, "algebra", "dump", "DM4", "--constants", "q")
    assert code == 2 and "bad constant suffix" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_two(capsys, jobs):
    code, _, err = run(capsys, "verify", "mc-classification", "--jobs", jobs)
    assert code == 2 and "--jobs" in err


@pytest.mark.parametrize("argv", [
    ("verify", "classification", "--size", "-1"),
    ("algebra", "census", "--max-size", "-1"),
    ("derive", "--system", "BDE", "--depth", "-1", "E(x) |- T(x)"),
    ("decide", "--logic", "BD", "--var-limit", "-1", "T(x) |- T(x)"),
])
def test_negative_setting_flag_exits_two(capsys, argv):
    flag = argv[argv.index("-1") - 1]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {flag} must be at least 0, got -1\n"


@pytest.mark.parametrize("key", ["size", "max_size", "depth", "var_limit"])
def test_negative_setting_in_config_exits_two(capsys, tmp_path, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = -1\n")
    code, out, err = run(capsys, "systems", "list", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == f"error: --{key.replace('_', '-')} must be at least 0, got -1\n"


def test_zero_settings_stay_accepted(capsys):
    code, report, _ = run_json(capsys, "algebra", "census", "--max-size", "0")
    assert code == 0 and report["count"] == 0
    code, report, _ = run_json(capsys, "derive", "--system", "BDE", "--depth", "0",
                               "E(x) |- T(x)")
    assert code == 3 and report["depth"] == 0


def test_empty_suite_report_is_flagged(capsys):
    code, report, _ = run_json(capsys, "verify", "classification", "--size", "0")
    (suite,) = report["suites"]
    assert code == 0 and report["ok"] is True
    assert suite["checks"] == 0 and suite["empty"] is True
    code, out, _ = run(capsys, "verify", "classification", "--size", "0")
    assert code == 0 and out.endswith("classification: nothing checked\n")
    code, report, _ = run_json(capsys, "verify", "rule-ledger")
    assert report["suites"][0]["checks"] > 0 and "empty" not in report["suites"][0]
    code, out, _ = run(capsys, "verify", "rule-ledger")
    assert "nothing checked" not in out


def test_output_flag_before_the_subcommand(capsys):
    code, out, _ = run(capsys, "--output", "json", "decide", "--logic", "BD", "T(x) |- T(x)")
    assert code == 0 and json.loads(out)["valid"] is True
    # given on both sides, the one after the subcommand wins
    code, out, _ = run(capsys, "--output", "json", "decide", "--output", "text",
                       "--logic", "BD", "T(x) |- T(x)")
    assert code == 0 and out.startswith("command: decide")


def test_jobs_before_the_subcommand_is_checked(capsys):
    code, out, err = run(capsys, "--jobs", "0", "systems", "list")
    assert code == 2 and out == "" and "--jobs" in err


# also an output format outside the choices, and keys that name no setting
# (a misspelling, and an operand, which only the command line gives)
_BAD_CONFIG = [(key, "abc") for key in ("depth", "size", "max_size", "var_limit", "seed", "jobs")]
_BAD_CONFIG += [("output", "xml"), ("sise", "5"), ("logic", "BD")]


@pytest.mark.parametrize("key,value", _BAD_CONFIG, ids=[key for key, _ in _BAD_CONFIG])
def test_non_integer_config_value_exits_two(capsys, tmp_path, key, value):
    cfg = tmp_path / "fourval.cfg"
    cfg.write_text(f"{key}={value}\n")
    code, out, err = run(capsys, "systems", "list", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith(f"error: config {key}: ")


def test_algebra_dump_and_census(capsys):
    code, report, _ = run_json(capsys, "algebra", "dump", "DM4", "--constants", "tn")
    assert code == 0
    assert report["algebra"]["ops"]["const"] == {"#n": 3, "#t": 0}
    code, report, _ = run_json(capsys, "algebra", "census", "--max-size", "4")
    assert code == 0 and report["count"] == 6


def test_census_above_its_bound_exits_two(capsys):
    code, out, err = run(capsys, "algebra", "census", "--max-size", "9")
    assert code == 2 and out == ""
    assert err == "error: size 9 above census bound 8\n"


@pytest.mark.parametrize("argv", [
    ("--output", "json", "verify", "roundtrip"),
    ("systems", "list"),
])
def test_closed_stdout_exits_141_without_a_traceback(argv):
    src = str(Path(fourval.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from fourval.cli import main; sys.exit(main())", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader is gone before anything is written
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_python_dash_m_runs_the_cli():
    src = str(Path(fourval.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "fourval", "systems", "list"],
                          capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(b"command: systems\n") and proc.stderr == b""


def test_algebra_dump_preset_includes_relations(capsys):
    code, report, _ = run_json(capsys, "algebra", "dump", "BDE-eq")
    assert code == 0 and set(report["algebra"]["rels"]) == {"T", "E", "eq"}


def test_leibniz_subcommand(capsys):
    code, report, _ = run_json(capsys, "leibniz", "--preset", "BDE")
    assert code == 0
    assert report["reduced"] is True
    assert report["leibniz_congruence"] == [0, 1, 2, 3]


def test_config_file_merged_under_flags(capsys, tmp_path):
    cfg = tmp_path / "fourval.cfg"
    cfg.write_text("depth=1\noutput=json\n")
    code, out, _ = run(capsys, "derive", "--system", "BDE", "--config", str(cfg),
                       r"E(x /\ (~x \/ y)) |- E(y)")
    report = json.loads(out)
    assert code == 3 and report["config"]["depth"] == 1
    # explicit flag wins over the config file
    code, out, _ = run(capsys, "derive", "--system", "BDE", "--config", str(cfg),
                       "--depth", "6", r"E(x /\ (~x \/ y)) |- E(y)")
    assert code == 0


def test_json_reports_deterministic_modulo_timings(capsys):
    def grab():
        code, report, _ = run_json(capsys, "verify", "roundtrip", "--seed", "7")
        _strip_timings(report)
        return code, json.dumps(report, sort_keys=True)

    code1, text1 = grab()
    code2, text2 = grab()
    assert code1 == code2 == 0
    assert text1 == text2


def _strip_timings(obj):
    if isinstance(obj, dict):
        obj.pop("timings", None)
        for v in obj.values():
            _strip_timings(v)
    elif isinstance(obj, list):
        for v in obj:
            _strip_timings(v)
