"""CLI subcommands and exit codes."""

import json
import os
import subprocess
import sys

import pytest

from geodeduce.cli import EXIT_PIPE, _config, build_parser, cli_main
from geodeduce.pipeline import PipelineConfig

from fuzzing import random_construction_text


def run(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_run_midline(capsys, root):
    code, out, _ = run(capsys, "run", str(root / "examples" / "midline.gc"),
                       "--rules", str(root / "rules" / "gddm-default.gr"))
    assert code == 0
    assert "para(B,C,M,N)" in out


def test_run_json_format(capsys, root):
    code, out, _ = run(capsys, "run", str(root / "examples" / "midline.gc"),
                       "--rules", str(root / "rules" / "gddm-default.gr"),
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "fixpoint"


def test_flag_defaults_are_the_config_defaults():
    assert _config(build_parser().parse_args(["run", "FILE"])) == PipelineConfig()


def test_packaged_default_rules_equal_the_rules_file(root):
    packaged = root / "src" / "geodeduce" / "gddm-default.gr"
    assert packaged.read_bytes() == (root / "rules" / "gddm-default.gr").read_bytes()


def test_default_rules_need_no_checkout(capsys, root, tmp_path, monkeypatch):
    """Without --rules, the packaged rules are read, from any directory."""
    example = str(root / "examples" / "midline.gc")
    given = run(capsys, "run", example, "--rules", str(root / "rules" / "gddm-default.gr"))
    monkeypatch.chdir(tmp_path)  # no rules/ here
    assert run(capsys, "run", example) == given
    assert given[0] == 0


def test_missing_file(capsys):
    code, _, err = run(capsys, "run", "missing.gc")
    assert code == 2
    assert "missing.gc" in err


def test_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.gc"
    bad.write_text("midpoint M A B\n")
    code, _, err = run(capsys, "run", str(bad))
    assert code == 2
    assert "undefined" in err


def test_unknown_flag(capsys, root):
    code, _, _ = run(capsys, "run", str(root / "examples" / "midline.gc"),
                     "--frobnicate")
    assert code == 1


# two lines through A and B that are one line; a fuzz figure whose second
# foot coincides with its first; steps that repeat or collapse a reference
DEGENERATE = ["point A B\non_line C A B\non_line D A B\nintersect X A C B D\n",
              random_construction_text(8),
              *(f"point A B\n{step}\n" for step in (
                  "midpoint M A A", "on_line P A A", "on_circle P A A", "foot F A A B",
                  "circumcenter O A B B", "intersect P A B A B",
                  "midpoint M A B\nmidpoint N M M"))]


def test_degenerate_construction(capsys, tmp_path, root):
    """Every command ends a degenerate construction with exit 3, never a traceback."""
    bad = tmp_path / "degen.gc"
    rules = ("--rules", str(root / "rules" / "gddm-default.gr"))
    commands = [("run", *rules), ("run", *rules, "--mode", "filtered"),
                ("saturate", *rules), ("rank", *rules), ("check",)]
    for text in DEGENERATE:
        bad.write_text(text)
        for command, *flags in commands:
            argv = [command, str(bad)] + (["cong(A,B,B,A)"] if command == "check" else flags)
            code, out, err = run(capsys, *argv)
            assert code == 3, (text, argv)
            assert ("error: degenerate construction" in err if command != "check"
                    else out == "cong(A,B,A,B): degenerate\n"), (text, argv)
            assert "Traceback" not in err


def test_soundness_violation_exit(capsys, tmp_path, root):
    rules = tmp_path / "bad.gr"
    rules.write_text("rule bogus: midp(M,A,B) => perp(A,M,A,B)\n")
    code, _, err = run(capsys, "run", str(root / "examples" / "midline.gc"),
                       "--rules", str(rules))
    assert code == 4
    assert "seed" in err


# a point constant named in a conclusion or a numeric side condition, but
# defined by neither the construction nor a premise
@pytest.mark.parametrize("mode", ["fixpoint", "filtered"])
@pytest.mark.parametrize("rule", [
    "rule r: coll(A,B,C) => coll(A,B,z)",
    "rule r: coll(A,B,C), non_collinear(A,B,z) => para(A,B,A,C)",
])
def test_rule_constant_missing_from_construction(capsys, tmp_path, root, mode, rule):
    rules = tmp_path / "const.gr"
    rules.write_text(rule + "\n")
    code, out, err = run(capsys, "run", str(root / "examples" / "midline.gc"),
                         "--rules", str(rules), "--mode", mode)
    assert code == 2 and not out
    assert err.startswith("error: rule r:") and "point z" in err


# a constant that a premise names too only keeps the rule from firing
@pytest.mark.parametrize("mode", ["fixpoint", "filtered"])
def test_rule_constant_in_premise_runs(capsys, tmp_path, root, mode):
    rules = tmp_path / "const.gr"
    rules.write_text("rule r: coll(A,B,z), distinct(A,z), non_collinear(A,B,z)"
                     " => coll(A,B,z)\n")
    code, _, err = run(capsys, "run", str(root / "examples" / "midline.gc"),
                       "--rules", str(rules), "--mode", mode)
    assert code == 0 and not err


def test_rules_validate(capsys, root):
    code, out, _ = run(capsys, "rules", "--validate",
                       str(root / "rules" / "gddm-default.gr"))
    assert code == 0
    assert "12 rules ok" in out


def test_rules_validate_bad(capsys, tmp_path):
    f = tmp_path / "bad.gr"
    f.write_text("rule bad: midp(M,A,B) => para(M,N,A,B)\n")
    code, _, err = run(capsys, "rules", "--validate", str(f))
    assert code == 2


@pytest.mark.parametrize("n, code", [(20, 0), (21, 2)])
def test_rules_validate_premise_limit(n, code, capsys, tmp_path):
    f = tmp_path / "deep.gr"
    f.write_text(f"rule deep: {', '.join(['coll(A,B,C)'] * n)} => cong(A,B,A,C)\n")
    assert run(capsys, "rules", "--validate", str(f))[0] == code


def test_check_subcommand(capsys, root):
    code, out, _ = run(capsys, "check", str(root / "examples" / "pappus.gc"),
                       "coll(G,H,I)", "--seeds", "20")
    assert code == 0
    assert "holds" in out


def test_check_failing_fact_exit(capsys, root):
    code, out, _ = run(capsys, "check", str(root / "examples" / "pappus.gc"),
                       "coll(A,D,G)", "--seeds", "20")
    assert code == 5
    assert "fails" in out


def test_saturate_subcommand(capsys, root):
    code, out, _ = run(capsys, "saturate", str(root / "examples" / "midline.gc"),
                       "--rules", str(root / "rules" / "gddm-default.gr"))
    assert code == 0
    assert "stop: fixpoint" in out


def test_saturate_lines_match_json_report(capsys, root):
    """One line per reported fact: a hypothesis ends in (hypothesis), a
    derived fact names the rule and the round of its JSON record."""
    argv = [str(root / "examples" / "midline.gc"),
            "--rules", str(root / "rules" / "gddm-default.gr")]
    code, out, _ = run(capsys, "saturate", *argv)
    assert code == 0
    _, report, _ = run(capsys, "saturate", *argv, "--format", "json")
    facts = json.loads(report)["facts"]
    lines = out.splitlines()
    assert lines[-1] == f"{len(facts)} facts, stop: fixpoint"
    assert len(lines) == len(facts) + 1
    assert any(rec["rule"] is None for rec in facts)
    assert any(rec["rule"] is not None for rec in facts)
    for line, rec in zip(lines, facts):
        src = "  (hypothesis)" if rec["rule"] is None else f"  <= {rec['rule']}"
        assert line == f"round {rec['round']}  {rec['fact']}{src}"
        assert (rec["rule"] is None) == (rec["round"] == 0)


def test_rank_subcommand(capsys, root):
    code, out, _ = run(capsys, "rank", str(root / "examples" / "midline.gc"),
                       "--rules", str(root / "rules" / "gddm-default.gr"))
    assert code == 0
    assert "rank" in out and "derivations" not in out


def test_weights_file(capsys, tmp_path, root):
    w = tmp_path / "metrics.cfg"
    w.write_text("threshold = 0.0\nweight.weight = 3\n")
    code, out, _ = run(capsys, "run", str(root / "examples" / "midline.gc"),
                       "--rules", str(root / "rules" / "gddm-default.gr"),
                       "--weights", str(w))
    assert code == 0


@pytest.mark.parametrize("command", ["saturate", "rank"])
def test_json_format_matches_run(capsys, root, command):
    argv = [str(root / "examples" / "midline.gc"),
            "--rules", str(root / "rules" / "gddm-default.gr"), "--format", "json"]
    code, out, _ = run(capsys, command, *argv)
    assert code == 0
    _, expected, _ = run(capsys, "run", *argv)
    assert out == expected
    assert json.loads(out)["mode"] == "fixpoint"


def test_check_undefined_point(capsys, root):
    code, out, err = run(capsys, "check", str(root / "examples" / "pappus.gc"),
                         "coll(A,B,Z)")
    assert code == 2
    assert err.startswith("error:") and "Z" in err and not out


@pytest.mark.parametrize("command", ["run", "saturate", "rank", "check"])
@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_seeds_below_one_rejected(capsys, root, command, seeds):
    argv = [command, str(root / "examples" / "pappus.gc")]
    if command == "check":
        argv.append("coll(G,H,I)")
    code, out, err = run(capsys, *argv, "--seeds", seeds)
    assert code == 1
    assert "--seeds" in err and not out


@pytest.mark.parametrize("mode", ["fixpoint", "filtered"])
@pytest.mark.parametrize("flag,value", [("--max-rounds", "0"),
                                        ("--max-facts", "0"),
                                        ("--max-rounds", "-1"),
                                        ("--top", "-1")])
def test_budget_and_top_below_bound_rejected(capsys, root, mode, flag, value):
    code, out, err = run(capsys, "run", str(root / "examples" / "midline.gc"),
                         "--mode", mode, flag, value)
    assert code == 1
    assert flag in err and "Traceback" not in err and not out


def test_smallest_budget_and_top_accepted(capsys, root):
    code, out, _ = run(capsys, "run", str(root / "examples" / "midline.gc"),
                       "--rules", str(root / "rules" / "gddm-default.gr"),
                       "--max-rounds", "1", "--max-facts", "1", "--top", "0")
    assert code == 0
    assert "stop: budget" in out


@pytest.mark.parametrize("line", ["weight.weight = -3", "top_k = -1"])
def test_negative_weight_or_top_k_in_weights_file(capsys, tmp_path, root, line):
    w = tmp_path / "metrics.cfg"
    w.write_text(f"threshold = 0.0\n{line}\n")
    code, out, err = run(capsys, "run", str(root / "examples" / "inscribed.gc"),
                         "--weights", str(w))
    assert code == 2
    assert "line 2" in err and not out


@pytest.mark.parametrize("line,message", [
    ("threshold = abc", "threshold must be a number"),
    ("top_k = 1.5", "top_k must be an integer"),
    ("weight.focus = x", "weight.focus must be a number"),
    ("weight.focus = inf", "weight must be finite")])
def test_bad_number_in_weights_file(capsys, tmp_path, root, line, message):
    w = tmp_path / "metrics.cfg"
    w.write_text(f"threshold = 0.0\n{line}\n")
    code, out, err = run(capsys, "run", str(root / "examples" / "inscribed.gc"),
                         "--weights", str(w))
    assert code == 2
    assert f"metric config line 2: {message}" in err and not out


def test_weights_whose_sum_overflows_rejected(capsys, tmp_path, root):
    # each weight is finite but their sum is inf: every aggregate once read
    # 0.0 and no fact was starred
    w = tmp_path / "metrics.cfg"
    w.write_text("weight.obviousness = 1e308\nweight.weight = 1e308\n")
    code, out, err = run(capsys, "rank", str(root / "examples" / "midline.gc"),
                         "--weights", str(w))
    assert code == 2
    assert "finite sum" in err and not out


@pytest.mark.parametrize("value", ["-1e3", "-inf"])
def test_negative_threshold_is_passed_with_equals(capsys, root, value):
    # after a space, argparse reads a negative number as a flag (README)
    path = str(root / "examples" / "inscribed.gc")
    code, out, _ = run(capsys, "rank", path, f"--threshold={value}")
    assert code == 0
    ranked = out.split("rank  aggregate  fact\n")[1].splitlines()
    assert ranked and all(line[5] == "*" for line in ranked)
    code, out, err = run(capsys, "rank", path, "--threshold", value)
    assert code == 1 and "expected one argument" in err and not out


_OUT_OF_RANGE = [("--tol", "-1"), ("--tol", "0"), ("--tol", "1"), ("--tol", "nan"),
                 ("--tol", "inf"), ("--master-seed", "-1"), ("--threshold", "nan")]


@pytest.mark.parametrize("command,flag,value",
                         [(c, f, v) for c in ("run", "saturate", "rank", "check")
                          for f, v in _OUT_OF_RANGE
                          if not (c == "check" and f == "--threshold")])
def test_tol_seed_threshold_out_of_range_rejected(capsys, root, command, flag, value):
    argv = [command, str(root / "examples" / "pappus.gc")]
    if command == "check":
        argv.append("coll(G,H,I)")
    code, out, err = run(capsys, *argv, flag, value)
    assert code == 1
    assert flag in err and "Traceback" not in err and not out


@pytest.mark.parametrize("fact", ["coll(A,B,)", "coll(A,B,C))", "coll(A, B C, D)",
                                  "coll(A,B,(C)"])
def test_check_malformed_fact(capsys, root, fact):
    code, out, err = run(capsys, "check", str(root / "examples" / "pappus.gc"), fact)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err and not out


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["run", "examples/inscribed.gc"], ["run", "examples/inscribed.gc", "--format", "json"],
    ["rank", "examples/midline.gc"], ["saturate", "examples/inscribed.gc"],
    ["check", "examples/pappus.gc", "coll(G,H,I)"]], ids=" ".join)
def test_closed_stdout_exits_141(root, argv, buffered):
    """A reader that is gone before the output is written ends the command
    quietly with 128 + SIGPIPE, whether the write or the flush at exit
    meets the closed pipe."""
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "from geodeduce.cli import main; main()", *argv],
            cwd=root, env=env, stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert "Traceback" not in proc.stderr and "Exception" not in proc.stderr, proc.stderr
    assert proc.returncode == EXIT_PIPE == 141
