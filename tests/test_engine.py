"""Rule matching, saturation to a fixpoint, derivation DAG structure."""

from collections import Counter

import pytest

from geodeduce import engine
from geodeduce import initial_facts, make_fact, match_rule, parse_rules, saturate
from geodeduce.engine import (_index, _join, _orbit_table, _slots, derive_round,
                              DerivationDag)
from geodeduce.facts import FactSet, orbit
from geodeduce.rules import is_variable

from fuzzing import random_construction_text
from geodeduce import parse_construction

MIDLINE_RULE = ("rule midline: midp(M,A,B), midp(N,A,C), non_collinear(A,B,C)"
                " => para(M,N,B,C)\n")


def _factset(*facts):
    fs = FactSet()
    for f in facts:
        fs.add(f, 0)
    return fs


def test_match_rule_midline_deduplicates_symmetric_binding():
    rule = parse_rules(MIDLINE_RULE)[0]
    fs = _factset(make_fact("midp", "M", "A", "B"), make_fact("midp", "N", "A", "C"))
    bindings = match_rule(rule, fs)
    # the {B,C}/{M,N} swap yields the same canonical conclusion
    assert len(bindings) == 1
    b = bindings[0]
    assert {b["M"], b["N"]} == {"M", "N"}


def test_match_rule_empty_factset():
    rule = parse_rules(MIDLINE_RULE)[0]
    assert match_rule(rule, FactSet()) == []


def test_match_rule_second_premise_unmatched(default_rules):
    para_trans = next(r for r in default_rules if r.name == "para_trans")
    fs = _factset(make_fact("para", "A", "B", "C", "D"))
    assert match_rule(para_trans, fs) == []


def test_match_rule_orbit_matching():
    # stored fact is canonical cong(O,A,O,B); pattern reverses the segments
    rule = parse_rules("rule r: cong(X,Y,X,Z), distinct(Y,Z) => cong(X,Z,X,Y)")[0]
    fs = _factset(make_fact("cong", "O", "B", "O", "A"))
    bindings = match_rule(rule, fs)
    assert bindings and all(b["X"] == "O" for b in bindings)


def test_saturate_empty_d0(default_rules):
    res = saturate(FactSet(), default_rules)
    assert res.stop_reason == "fixpoint"
    assert len(res.facts) == 0 and not res.dag.nodes


def test_saturate_no_rules():
    c = parse_construction("point A B\nmidpoint M A B\n")
    d0 = initial_facts(c)
    res = saturate(d0, [])
    assert res.stop_reason == "fixpoint"
    assert set(res.facts) == set(d0) and not res.dag.nodes


def test_saturate_midline_round_one(midline, default_rules):
    res = saturate(initial_facts(midline), default_rules)
    target = make_fact("para", "M", "N", "B", "C")
    assert target in res.facts
    assert res.facts.generation(target) == 1
    node = res.dag.node(target)
    assert node.rule == "midline" and node.round == 1
    assert node.conditional


def test_monotone_chain_and_dag_wellfounded(bundled, default_rules):
    res = saturate(initial_facts(bundled), default_rules)
    assert res.stop_reason == "fixpoint"
    for f, node in res.dag.nodes.items():
        assert res.facts.generation(f) == node.round
        for p in node.premises:
            assert res.facts.generation(p) < node.round


def test_fixpoint_one_extra_round_adds_nothing(bundled, default_rules):
    res = saturate(initial_facts(bundled), default_rules)
    assert res.stop_reason == "fixpoint"
    new, _, _ = derive_round(res.facts, res.dag, default_rules,
                             res.rounds + 1, strategy="naive")
    assert new == []


def test_budget_stop():
    c = parse_construction("point A B C D\non_line P A B\non_line Q A B\n")
    rules = parse_rules("rule cm: coll(A,B,C), coll(A,B,D), distinct(A,B) => coll(B,C,D)")
    res = saturate(initial_facts(c), rules, max_rounds=1)
    # one round is not enough to close collinearity over {A,B,P,Q}
    assert res.stop_reason == "budget"


def test_first_derivation_wins(midline, default_rules):
    res = saturate(initial_facts(midline), default_rules)
    dag = DerivationDag()
    f = make_fact("para", "M", "N", "B", "C")
    dag.add(res.dag.node(f))
    with pytest.raises(ValueError):
        dag.add(res.dag.node(f))


def test_naive_equals_semi_naive_on_bundled(bundled, default_rules):
    d0 = initial_facts(bundled)
    a = saturate(d0, default_rules, strategy="naive")
    b = saturate(d0, default_rules, strategy="semi_naive")
    assert set(a.facts) == set(b.facts)
    assert {f: a.facts.generation(f) for f in a.facts} == \
           {f: b.facts.generation(f) for f in b.facts}
    assert a.stop_reason == b.stop_reason and a.rounds == b.rounds


@pytest.mark.parametrize("seed", range(10))
def test_naive_equals_semi_naive_fuzz(seed, default_rules):
    c = parse_construction(random_construction_text(seed))
    d0 = initial_facts(c)
    a = saturate(d0, default_rules, strategy="naive", max_facts=400)
    b = saturate(d0, default_rules, strategy="semi_naive", max_facts=400)
    assert set(a.facts) == set(b.facts)
    assert {f: a.facts.generation(f) for f in a.facts} == \
           {f: b.facts.generation(f) for f in b.facts}


def test_deterministic_output(inscribed, default_rules):
    d0 = initial_facts(inscribed)
    r1 = saturate(d0, default_rules)
    r2 = saturate(d0, default_rules)
    assert [str(f) for f in r1.facts.sorted_facts()] == \
           [str(f) for f in r2.facts.sorted_facts()]
    assert r1.dag.nodes == r2.dag.nodes


def test_strict_sides_excludes_conditional_premises(inscribed, default_rules):
    d0 = initial_facts(inscribed)
    loose = saturate(d0, default_rules)
    strict = saturate(d0, default_rules, strict_sides=True)
    assert set(strict.facts) <= set(loose.facts)
    # the cyclic fact is conditional, so no eqangle may be built on it
    assert not any(f.pred == "eqangle" for f in strict.facts)


def _reference_join(rule, candidate_lists):
    """The orbit-enumerating matcher the indexed join replaced: for every
    partial binding, unify the pattern with each variant of each fact."""

    def unify(pattern, variant, binding):
        out = dict(binding)
        for pat, val in zip(pattern.args, variant):
            if is_variable(pat):
                if out.setdefault(pat, val) != val:
                    return None
            elif pat != val:
                return None
        return out

    def match_premise(pattern, fact, binding):
        seen = set()
        for variant in orbit(fact):
            b = unify(pattern, variant, binding)
            if b is not None:
                key = tuple(sorted(b.items()))
                if key not in seen:
                    seen.add(key)
                    yield b

    def rec(i, binding, used):
        if i == len(rule.premises):
            yield binding, used
            return
        for fact in candidate_lists[i]:
            for b in match_premise(rule.premises[i], fact, binding):
                yield from rec(i + 1, b, used + (fact,))

    yield from rec(0, {}, ())


def _hashable(pairs):
    return [(tuple(sorted(b.items())), used) for b, used in pairs]


# fuzz figures give coll/cong/midp/para/perp; inscribed adds cyclic/eqangle
@pytest.mark.parametrize("seed", [*range(10), "inscribed"])
def test_indexed_join_equals_reference(seed, default_rules, inscribed):
    c = (inscribed if seed == "inscribed"
         else parse_construction(random_construction_text(seed)))
    facts = saturate(initial_facts(c), default_rules, max_rounds=2).facts
    orbits = _orbit_table(facts)
    for rule in default_rules:
        lists = [sorted(facts.by_pred(p.pred), key=str) for p in rule.premises]
        slots = _slots(rule)
        indexes = [_index(s, lst, orbits) for s, lst in zip(slots, lists)]
        got = _hashable(_join(slots, indexes))
        want = _hashable(_reference_join(rule, lists))
        assert Counter(got) == Counter(want), rule.name
        # the order decides which of two equal-ranked derivations is kept
        assert got == want, rule.name


def test_orbit_calls_bounded_by_facts_per_round(inscribed, default_rules,
                                                 monkeypatch):
    calls = []
    monkeypatch.setattr(engine, "orbit", lambda f: calls.append(f) or orbit(f))
    d0 = initial_facts(inscribed)
    res = saturate(d0, default_rules)
    present = [sum(1 for f in res.facts if res.facts.generation(f) < r)
               for r in range(1, res.rounds + 2)]
    assert calls and len(calls) <= sum(present)
