"""Rule file parsing and validation."""

import pytest

from geodeduce.rules import RuleParseError, parse_rules, variables


def test_parse_single_rule():
    rules = parse_rules(
        "rule midline: midp(M,A,B), midp(N,A,C), non_collinear(A,B,C)"
        " => para(M,N,B,C)\n")
    assert len(rules) == 1
    r = rules[0]
    assert r.name == "midline"
    assert len(r.premises) == 2
    assert len(r.side_conditions) == 1
    assert r.side_conditions[0].pred == "non_collinear"
    assert r.conclusion.pred == "para"


def test_unbound_conclusion_variable():
    with pytest.raises(RuleParseError, match="N.*not bound"):
        parse_rules("rule bad: midp(M,A,B) => para(M,N,A,B)")


def test_unbound_side_condition_variable():
    with pytest.raises(RuleParseError, match="side condition"):
        parse_rules("rule bad: midp(M,A,B), distinct(A,Z) => coll(M,A,B)")


def test_duplicate_rule_name():
    text = ("rule r1: midp(M,A,B) => coll(M,A,B)\n"
            "rule r1: midp(M,A,B) => cong(M,A,M,B)\n")
    with pytest.raises(RuleParseError, match="duplicate"):
        parse_rules(text)


def test_no_premises():
    with pytest.raises(RuleParseError, match="at least one premise"):
        parse_rules("rule empty: distinct(A,B) => coll(A,B,B)")


def test_syntax_errors():
    with pytest.raises(RuleParseError):
        parse_rules("rule broken midp(M,A,B) => coll(M,A,B)")
    with pytest.raises(RuleParseError, match="'=>'"):
        parse_rules("rule broken: midp(M,A,B)")
    with pytest.raises(RuleParseError, match="unknown predicate"):
        parse_rules("rule broken: between(A,B,C) => coll(A,B,C)")
    with pytest.raises(RuleParseError, match="expects"):
        parse_rules("rule broken: coll(A,B) => coll(A,B,B)")
    # an empty atom before, between or after the premises
    for body in ("coll(A,B,C),", ", coll(A,B,C)", "coll(A,B,C),, para(A,B,A,C)"):
        with pytest.raises(RuleParseError, match="cannot parse atom ''"):
            parse_rules(f"rule broken: {body} => coll(B,A,C)")
    # side conditions that can never hold, over variables or constants
    for side in ("distinct(A,A)", "distinct(p,p)", "non_collinear(A,B,A)",
                 "non_collinear(p,A,p)", "distinct_lines(A,A,B,C)",
                 "distinct_lines(A,B,B,A)", "distinct_lines(A,B,A,A)",
                 "distinct_lines(p,A,A,p)"):
        with pytest.raises(RuleParseError, match=r"line 2: side condition .* never hold"):
            parse_rules(f"\nrule r: coll(A,B,C), {side} => coll(B,C,A)")
    # a second line through one point of the first can differ from it
    assert parse_rules("rule r: coll(A,B,C), distinct_lines(A,B,A,C) => coll(B,C,A)")
    assert parse_rules("rule r: coll(A,B,C), distinct_lines(A,B,C,C) => coll(B,C,A)")


def test_constants_are_lowercase():
    rules = parse_rules("rule fixed: coll(p, A, B) => coll(p, A, B)")
    assert variables(rules[0].premises[0]) == {"A", "B"}


def test_comments_and_blanks():
    rules = parse_rules("# comment\n\nrule r: midp(M,A,B) => coll(M,A,B)  # x\n")
    assert len(rules) == 1


def test_bundled_default_rules(default_rules):
    assert len(default_rules) == 12
    names = {r.name for r in default_rules}
    assert "midline" in names and "coll_merge" in names
    conditional = {r.name for r in default_rules if r.numeric_sides}
    assert "midline" in conditional
    assert "cong_trans" not in conditional


def test_default_rules_print_back_to_themselves(root):
    """str(rule) is rule-file text that parses back to the same rule,
    symmetries included."""
    rules = parse_rules((root / "rules" / "gddm-default.gr").read_text())
    assert rules
    for r in rules:
        again = parse_rules(str(r))
        assert again == [r] and again[0].symmetries == r.symmetries, r.name
