"""Construction DSL parsing and hypothesis fact emission."""

import pytest

from geodeduce import (ConstructionError, initial_facts, make_fact,
                       parse_construction)
from geodeduce.facts import is_tautology
from geodeduce.numeric import eval_fact, sample_models


def test_parse_simple():
    c = parse_construction("point A B\nmidpoint M A B\n")
    kinds = [s.kind for s in c.steps]
    assert kinds == ["free_point", "free_point", "midpoint"]
    assert c.steps[2].args == ("M", "A", "B")


def test_use_before_definition():
    with pytest.raises(ConstructionError, match="line 1.*A undefined"):
        parse_construction("midpoint M A B")


def test_redefinition():
    with pytest.raises(ConstructionError, match="redefined"):
        parse_construction("point A B\nmidpoint A A B")


def test_arity_error():
    with pytest.raises(ConstructionError, match="expects 3 points"):
        parse_construction("point A B\nmidpoint M A")


def test_syntax_error_names_token():
    with pytest.raises(ConstructionError, match="frobnicate"):
        parse_construction("point A B\nfrobnicate M A B")


def test_bad_identifier():
    with pytest.raises(ConstructionError, match="bad identifier"):
        parse_construction("point A 1X")


@pytest.mark.parametrize("text, message", [
    # the second A, not the first
    ("point A B A", "line 1, col 11: A redefined"),
    # n, not the n inside the keyword
    ("point A B\non_line P n A", "line 2, col 11: n undefined"),
    # the token 1, not the 1 inside A1
    ("point A1 1", "line 1, col 10: bad identifier '1'"),
])
def test_error_column_is_the_tokens_own(text, message):
    with pytest.raises(ConstructionError) as err:
        parse_construction(text)
    assert str(err.value) == message


def test_needs_two_free_points():
    with pytest.raises(ConstructionError, match="two free points"):
        parse_construction("point A")


def test_comments_and_blank_lines():
    c = parse_construction("# header\n\npoint A B  # trailing\n")
    assert len(c.steps) == 2


def test_pappus_script_shape(pappus):
    assert len(pappus.steps) == 9
    kinds = [s.kind for s in pappus.steps]
    assert kinds.count("free_point") == 4
    assert kinds.count("on_line") == 2
    assert kinds.count("intersect") == 3


def test_initial_facts_midpoint():
    c = parse_construction("point A B\nmidpoint M A B\n")
    facts = set(initial_facts(c))
    assert facts == {make_fact("midp", "M", "A", "B"),
                     make_fact("coll", "A", "B", "M"),
                     make_fact("cong", "A", "M", "B", "M")}


def test_initial_facts_free_points_only():
    c = parse_construction("point A B C\n")
    assert len(initial_facts(c)) == 0


def test_initial_facts_pappus(pappus):
    facts = set(initial_facts(pappus))
    expected = {
        make_fact("coll", "A", "B", "C"),
        make_fact("coll", "D", "E", "F"),
        make_fact("coll", "G", "A", "E"),
        make_fact("coll", "G", "B", "D"),
        make_fact("coll", "H", "A", "F"),
        make_fact("coll", "H", "C", "D"),
        make_fact("coll", "I", "B", "F"),
        make_fact("coll", "I", "C", "E"),
    }
    assert facts == expected


def test_initial_facts_foot_and_circumcenter():
    c = parse_construction(
        "point A B P\nfoot F P A B\ncircumcenter O A B P\n")
    facts = set(initial_facts(c))
    assert make_fact("coll", "F", "A", "B") in facts
    assert make_fact("perp", "P", "F", "A", "B") in facts
    assert make_fact("cong", "O", "A", "O", "B") in facts
    assert make_fact("cong", "O", "B", "O", "P") in facts


def test_initial_facts_no_tautologies_no_duplicates(bundled):
    facts = list(initial_facts(bundled))
    assert len(facts) == len(set(facts))
    assert not any(is_tautology(f) for f in facts)


def test_initial_facts_distinct_in_step_order():
    # intersect P A B B A states coll(A,B,P) twice; it is listed once
    c = parse_construction("point A B C\nintersect P A B B A\nmidpoint M A C\n")
    assert initial_facts(c) == [make_fact("coll", "A", "B", "P"),
                                make_fact("midp", "M", "A", "C"),
                                make_fact("coll", "A", "C", "M"),
                                make_fact("cong", "M", "A", "M", "C")]


def test_hypothesis_facts_hold_on_sampled_models(bundled):
    d0 = initial_facts(bundled)
    for m in sample_models(bundled, 10, master_seed=7):
        for f in d0:
            assert eval_fact(m, f), f"{f} false on seed {m.seed}"


def test_source_round_trips():
    from conftest import BUNDLED, load_construction
    from fuzzing import random_construction_text
    cases = [load_construction(n) for n in BUNDLED]
    cases += [parse_construction(random_construction_text(s)) for s in range(20)]
    for c in cases:
        src = c.source()
        assert parse_construction(src).source() == src
        assert src == "".join(f"{s}\n" for s in c.steps)


def test_step_prints_as_statement():
    c = parse_construction("point A B\nmidpoint M A B\n")
    assert [str(s) for s in c.steps] == ["point A", "point B", "midpoint M A B"]
