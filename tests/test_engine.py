"""Rule matching, saturation to a fixpoint, derivation DAG structure."""

import ast

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from geodeduce import engine
from geodeduce import initial_facts, make_fact, parse_rules, saturate
from geodeduce.engine import (_index, compile_rule, derive_round, Derivation,
                              DerivationDag, JoinState)
from geodeduce.facts import Fact
from geodeduce.rules import MAX_PREMISES, Rule, RuleParseError

from conftest import (CONSTANT_RULES, EVALUATIONS, TWO_CIRCLES, VARIGNON, concyclic_text,
                      evaluating, feet_text, naive_plans, reference_join, reference_round,
                      reference_rounds, shaped)
from fuzzing import random_construction_text
from geodeduce import parse_construction

MIDLINE_RULE = ("rule midline: midp(M,A,B), midp(N,A,C), non_collinear(A,B,C)"
                " => para(M,N,B,C)\n")


def test_derive_round_midline_keeps_one_of_symmetric_bindings():
    rule = parse_rules(MIDLINE_RULE)[0]
    hyps = [make_fact("midp", "M", "A", "B"), make_fact("midp", "N", "A", "C")]
    derivations, _, _ = derive_round(JoinState(DerivationDag(hyps), [rule]))
    # the {B,C}/{M,N} swap yields the same canonical conclusion
    assert [d.fact for d in derivations] == [make_fact("para", "B", "C", "M", "N")]
    assert set(derivations[0].premises) == set(hyps)


def test_derive_round_empty_graph():
    rule = parse_rules(MIDLINE_RULE)[0]
    assert derive_round(JoinState(DerivationDag(), [rule])) == ([], 0, 0)


def test_derive_round_second_premise_unmatched(default_rules):
    para_trans = next(r for r in default_rules if r.name == "para_trans")
    dag = DerivationDag([make_fact("para", "A", "B", "C", "D")])
    derivations, _, _ = derive_round(JoinState(dag, [para_trans]))
    assert derivations == []


def test_derive_round_orbit_matching():
    # stored fact is canonical cong(A,O,B,O); the pattern reverses both segments
    rule = parse_rules("rule r: cong(X,Y,X,Z), distinct(Y,Z)"
                       " => eqangle(Y,Z,Y,X,Z,X,Z,Y)")[0]
    dag = DerivationDag([make_fact("cong", "O", "B", "O", "A")])
    derivations, _, _ = derive_round(JoinState(dag, [rule]))
    # both bindings put the apex X on O
    want = {make_fact("eqangle", y, z, y, "O", z, "O", z, y)
            for y, z in (("A", "B"), ("B", "A"))}
    assert derivations and {d.fact for d in derivations} == want


def test_saturate_empty_d0(default_rules):
    res = saturate([], default_rules)
    assert res.stop_reason == "fixpoint"
    assert len(res.dag) == 0 and not res.dag.derivations()


def test_saturate_no_rules():
    c = parse_construction("point A B\nmidpoint M A B\n")
    d0 = initial_facts(c)
    res = saturate(d0, [])
    assert res.stop_reason == "fixpoint"
    assert set(res.dag) == set(d0) and not res.dag.derivations()


def test_saturate_midline_round_one(midline, default_rules):
    res = saturate(initial_facts(midline), default_rules)
    target = make_fact("para", "M", "N", "B", "C")
    assert target in res.dag
    node = res.dag.node(target)
    assert node.rule == "midline" and node.round == 1
    assert node.conditional


def test_monotone_chain_and_dag_wellfounded(bundled, default_rules):
    res = saturate(initial_facts(bundled), default_rules)
    assert res.stop_reason == "fixpoint"
    rounds = [node.round for node in res.dag.derivations()]
    # graph order is round order, and the last round is the graph's
    assert rounds == sorted(rounds) and max(rounds, default=0) == res.dag.rounds
    for node in res.dag.derivations():
        for p in node.premises:
            assert res.dag.node(p).round < node.round


def test_fixpoint_one_extra_round_adds_nothing(bundled, default_rules):
    res = saturate(initial_facts(bundled), default_rules)
    assert res.stop_reason == "fixpoint"
    with naive_plans():
        new, _, _ = derive_round(JoinState(res.dag, default_rules))
    assert new == []


def test_budget_stop():
    c = parse_construction("point A B C D\non_line P A B\non_line Q A B\n")
    rules = parse_rules("rule cm: coll(A,B,C), coll(A,B,D), distinct(A,B) => coll(B,C,D)")
    res = saturate(initial_facts(c), rules, max_rounds=1)
    # one round is not enough to close collinearity over {A,B,P,Q}
    assert res.stop_reason == "budget"


def test_first_derivation_wins(midline, default_rules):
    res = saturate(initial_facts(midline), default_rules)
    dag = DerivationDag(initial_facts(midline))
    f = make_fact("para", "M", "N", "B", "C")
    dag.add(res.dag.node(f))
    with pytest.raises(ValueError):
        dag.add(res.dag.node(f))


def test_derivation_dag_contract():
    h = make_fact("coll", "A", "B", "C")
    dag = DerivationDag([make_fact("coll", "C", "B", "A"), h])
    assert len(dag) == 1 and list(dag) == [h] and h in dag  # duplicates collapse
    hyp = dag.node(h)  # a hypothesis's record: no rule, no premises, round 0
    assert (hyp.fact, hyp.rule, hyp.premises, hyp.round) == (h, None, (), 0)
    assert not hyp.conditional and dag.rounds == 0
    f = make_fact("coll", "A", "B", "D")
    d = Derivation(f, "r", (h,), 3)
    trial = dag.copy()
    dag.add(d)
    assert dag.node(f) is d and dag.rounds == 3
    assert list(dag) == [h, f] and dag.derivations() == [d]
    # a second derivation of a derived fact or of a hypothesis
    for again in (Derivation(f, "s", (h,), 4), Derivation(h, "r", (f,), 4)):
        with pytest.raises(ValueError):
            dag.add(again)
    # the copy is independent both ways
    assert f not in trial and len(trial) == 1
    g = make_fact("coll", "A", "C", "D")
    trial.add(Derivation(g, "r", (h,), 1))
    assert g in trial and g not in dag and len(dag) == 2


def test_add_rejects_missing_premise():
    h, g = make_fact("coll", "A", "B", "C"), make_fact("coll", "A", "B", "D")
    dag = DerivationDag([h])
    f = make_fact("coll", "A", "C", "D")
    with pytest.raises(ValueError, match=r"premise coll\(A,B,D\)"):
        dag.add(Derivation(f, "r", (h, g), 1))
    assert f not in dag and list(dag) == [h] and dag.derivations() == []
    for ask in (dag.closure, dag.ancestors, dag.leaf_ancestors, dag.node):
        with pytest.raises(KeyError):
            ask(f)


def test_add_keeps_round_order():
    h = make_fact("coll", "A", "B", "C")
    f, g, e, x = (make_fact("coll", "A", "B", p) for p in "DEFG")
    dag = DerivationDag([h])
    assert dag.rounds == 0
    with pytest.raises(ValueError, match="round 0 of coll"):
        dag.add(Derivation(f, "r", (h,), 0))  # round 0 is the hypotheses'
    dag.add(Derivation(f, "r", (h,), 2))
    assert dag.rounds == 2
    for bad in (Derivation(g, "r", (h,), 1),   # below the last round added
                Derivation(g, "r", (f,), 2),   # a premise of the same round
                Derivation(g, "r", (f,), 1)):  # a premise of a later round
        with pytest.raises(ValueError, match="is below round"):
            dag.add(bad)
    assert list(dag) == [h, f] and dag.rounds == 2
    dag.add(Derivation(g, "r", (f,), 3), Derivation(e, "r", (h,), 3))
    assert dag.rounds == 3
    with pytest.raises(AttributeError):
        dag.rounds = 4
    trial = dag.copy()
    assert trial.rounds == 3
    trial.add(Derivation(x, "r", (g,), 4))
    assert trial.rounds == 4 and dag.rounds == 3


def test_closures_of_a_copy_are_independent():
    h = make_fact("coll", "A", "B", "C")
    f, g = make_fact("coll", "A", "B", "D"), make_fact("coll", "A", "C", "D")
    dag = DerivationDag([h])
    dag.add(Derivation(f, "r", (h,), 1))
    trial = dag.copy()
    trial.add(Derivation(g, "r", (f,), 2))
    dag.add(Derivation(g, "r", (h,), 2))
    assert dag.closure(f) == trial.closure(f) == {h, f}
    assert dag.closure(g) == {h, g} and dag.ancestors(g) == {g}
    assert trial.closure(g) == {h, f, g} and trial.ancestors(g) == {f, g}
    assert dag.leaf_ancestors(g) == trial.leaf_ancestors(g) == {h}


def test_restricted_graph_equals_a_rebuilt_one():
    h = make_fact("coll", "A", "B", "C")
    f, g, e = (make_fact("coll", "A", "B", p) for p in "DEF")
    dag = DerivationDag([h])
    dag.add(Derivation(f, "r", (h,), 1), Derivation(g, "r", (h,), 1),
            Derivation(e, "r", (f, h), 2))
    for kept in ([], [g], [f], [g, f, e]):
        rebuilt = DerivationDag([h])
        rebuilt.add(*[d for d in dag.derivations() if d.fact in kept])
        out = dag.restricted(kept)
        assert list(out) == list(rebuilt) and out.rounds == rebuilt.rounds
        assert all(out.node(x) == rebuilt.node(x) and out.closure(x) == rebuilt.closure(x)
                   and out.leaf_ancestors(x) == rebuilt.leaf_ancestors(x) for x in out)
    with pytest.raises(ValueError, match=r"a premise of coll\(A,B,F\) is not kept"):
        dag.restricted([e])


def test_saturate_rejects_empty_budget(midline, default_rules):
    for budget in ({"max_rounds": 0}, {"max_facts": 0}):
        with pytest.raises(ValueError):
            saturate(initial_facts(midline), default_rules, **budget)


def test_naive_equals_semi_naive_on_bundled(bundled, default_rules):
    d0 = initial_facts(bundled)
    with naive_plans():
        a = saturate(d0, default_rules)
    b = saturate(d0, default_rules)
    assert set(a.dag) == set(b.dag)
    assert {f: a.dag.node(f).round for f in a.dag} == \
           {f: b.dag.node(f).round for f in b.dag}
    assert a.stop_reason == b.stop_reason and a.dag.rounds == b.dag.rounds


@pytest.mark.parametrize("seed", range(10))
def test_naive_equals_semi_naive_fuzz(seed, default_rules):
    c = parse_construction(random_construction_text(seed))
    d0 = initial_facts(c)
    with naive_plans():
        a = saturate(d0, default_rules, max_facts=400)
    b = saturate(d0, default_rules, max_facts=400)
    assert set(a.dag) == set(b.dag)
    assert {f: a.dag.node(f).round for f in a.dag} == \
           {f: b.dag.node(f).round for f in b.dag}


# the figures where eqangle_trans and cong_trans meet their own symmetries
@pytest.mark.parametrize("decoration", [
    "", "midpoint E A C\n", "foot E O A B\non_line F C D\n",
    "midpoint E A B\nmidpoint F C D\non_line G B C\n", "on_circle E O A\n"],
    ids=["circle4", "midAC", "footAB+lineCD", "midAB+midCD+lineBC", "circle5"])
def test_naive_equals_semi_naive_symmetric(decoration, default_rules):
    from conftest import concyclic_text
    d0 = initial_facts(parse_construction(concyclic_text(4) + decoration))
    with naive_plans():
        a = saturate(d0, default_rules)
    b = saturate(d0, default_rules)
    assert any(f.pred == "eqangle" for f in b.dag)
    assert a.dag.derivations() == b.dag.derivations()
    assert set(a.dag) == set(b.dag)
    assert a.stop_reason == b.stop_reason and a.dag.rounds == b.dag.rounds


def test_naive_reference_reaches_the_engine(default_rules):
    """Under naive_plans each rule of a JoinState has one plan, every slot
    over ALL, so the naive-equals-semi-naive tests do not compare semi-naive
    with itself.  saturate then finds the same facts in the same rounds, and
    counts more tautologies: naive joins old facts with old facts again in
    every round."""
    dag = DerivationDag(initial_facts(parse_construction(random_construction_text(1))))
    with naive_plans():
        naive = JoinState(dag, default_rules)
    semi = JoinState(dag, default_rules)
    assert any(len(r.plans) > 1 for r in semi.rules)
    assert [r.plans for r in naive.rules] == [((engine.ALL,) * len(r.slots),)
                                              for r in semi.rules]
    for seed in (1, 10):
        d0 = initial_facts(parse_construction(random_construction_text(seed)))
        with naive_plans():
            a = saturate(d0, default_rules)
        b = saturate(d0, default_rules)
        assert set(a.dag) == set(b.dag) and a.dag.rounds == b.dag.rounds
        assert a.dropped_tautologies > b.dropped_tautologies, seed


ORDER_FIGURES = {**{f"fuzz{s}": random_construction_text(s) for s in range(10)},
                 "circle4": concyclic_text(4), "circle5": concyclic_text(5),
                 "feet8": feet_text(8)}


@pytest.mark.parametrize("evaluation", EVALUATIONS)
@pytest.mark.parametrize("figure", ORDER_FIGURES)
def test_hypothesis_order_does_not_matter(figure, evaluation, default_rules):
    d0 = list(initial_facts(parse_construction(ORDER_FIGURES[figure])))
    with evaluating(evaluation):
        a = saturate(d0, default_rules)
        b = saturate(d0[::-1], default_rules)
    assert a.dag.derivations() == b.dag.derivations()  # conditions included
    assert a.stop_reason == b.stop_reason and a.dag.rounds == b.dag.rounds


def test_deterministic_output(inscribed, default_rules):
    d0 = initial_facts(inscribed)
    r1 = saturate(d0, default_rules)
    r2 = saturate(d0, default_rules)
    assert [str(f) for f in sorted(r1.dag, key=str)] == \
           [str(f) for f in sorted(r2.dag, key=str)]
    assert r1.dag.derivations() == r2.dag.derivations()


def test_strict_sides_excludes_conditional_premises(inscribed, default_rules):
    d0 = initial_facts(inscribed)
    loose = saturate(d0, default_rules)
    strict = saturate(d0, default_rules, strict_sides=True)
    assert set(strict.dag) <= set(loose.dag)
    # the cyclic fact is conditional, so no eqangle may be built on it
    assert not any(f.pred == "eqangle" for f in strict.dag)


@pytest.mark.parametrize("strict_sides", ["no", 0, 1, None])
def test_strict_sides_must_be_a_bool(strict_sides, inscribed, default_rules):
    # "no" was once read as true: the run went strict, 7 graph facts instead of 19
    d0 = initial_facts(inscribed)
    with pytest.raises(ValueError, match="strict_sides must be a bool"):
        JoinState(DerivationDag(d0), default_rules, strict_sides=strict_sides)
    with pytest.raises(ValueError, match="strict_sides must be a bool"):
        saturate(d0, default_rules, strict_sides=strict_sides)


def test_reference_join_matches_the_premise_predicate_only():
    """A coll fact gives no binding to a cong premise, though its three
    arguments would fill the pattern's first three variables."""
    rule, = parse_rules("rule r: cong(X,Y,Z,W) => cong(Z,W,X,Y)\n")
    assert list(reference_join(rule, [make_fact("coll", "A", "B", "C")])) == []
    assert len(list(reference_join(rule, [make_fact("cong", "A", "B", "C", "D")]))) == 8


# fuzz figures give coll/cong/midp/para/perp; inscribed adds cyclic/eqangle
@pytest.mark.parametrize("seed", [*range(10), "inscribed"])
def test_indexed_join_equals_reference(seed, default_rules, inscribed):
    """Every round of a carried state equals the reference's, under both
    evaluations, with strict sides or not."""
    c = (inscribed if seed == "inscribed"
         else parse_construction(random_construction_text(seed)))
    for evaluation in EVALUATIONS:
        for strict_sides in (False, True):
            _check_carried_state(initial_facts(c), default_rules, evaluation, strict_sides)


def test_kernel_rows_with_spanning_distinct_and_constants():
    """Two layouts the default rules lack derive what the reference
    derives: r1 has a distinct side that spans two premises, tested at a
    loop, and r2 has point constants, in a premise, a distinct side and
    the conclusion."""
    rules = parse_rules(
        "rule r1: coll(A,B,C), coll(C,D,E), distinct(A,D) => cyclic(A,B,D,E)\n"
        "rule r2: cong(o,A,o,B), perp(A,B,C,p), distinct(C,o) => perp(A,o,C,p)\n")
    facts = [make_fact("coll", "a", "b", "c"), make_fact("coll", "c", "d", "e"),
             make_fact("coll", "a", "c", "o"), make_fact("cong", "o", "a", "o", "b"),
             make_fact("cong", "o", "b", "o", "c"), make_fact("perp", "a", "b", "c", "p"),
             make_fact("perp", "a", "b", "o", "p"), make_fact("perp", "b", "c", "a", "p")]
    for rule in rules:
        assert reference_round(DerivationDag(facts), [rule])[0], rule.name
    for evaluation in EVALUATIONS:
        _check_carried_state(facts, rules, evaluation, False)


def test_kernel_rows_with_distinct_side_repeated_in_a_fact():
    """A distinct side whose two variables one premise names, on facts that
    repeat a point at both of its positions: on_circle gives cong(O,A,O,B),
    whose variants with the apex O at X and at Z would conclude tautologies
    that naive evaluation would count."""
    rules = parse_rules("rule r: cong(X,Y,Z,W), distinct(X,Z) => coll(X,Z,W)")
    facts = [f for f in initial_facts(parse_construction(concyclic_text(4)))
             if f.pred == "cong"]
    assert any(b["X"] == b["Z"] for b, _ in reference_join(rules[0], facts))
    assert reference_round(DerivationDag(facts), rules)[0]
    for evaluation in EVALUATIONS:
        _check_carried_state(facts, rules, evaluation, False)


def test_saturate_compiles_each_rule_once(inscribed, default_rules, monkeypatch):
    calls = []
    monkeypatch.setattr(engine, "compile_rule",
                        lambda rule: calls.append(rule) or compile_rule(rule))
    res = saturate(initial_facts(inscribed), default_rules)
    assert res.dag.rounds >= 3
    # once each, and only the rules that can fire: no coll, midp, para or perp fact arises
    assert calls == [r for r in default_rules if r.name in (
        "equidist_cyclic", "inscribed_angle", "inscribed_converse", "eqangle_trans",
        "cong_trans")]


def _check_carried_state(hypotheses, rules, evaluation, strict_sides):
    """Grow the graph round by round as ``saturate`` does, with one carried
    JoinState, and check that every round returns exactly what a fresh
    state returns and derives what the reference derives (under naive
    evaluation, with its tautology count too), that each stored index
    equals a rebuild over the graph's usable facts, and that no index a
    round began with was changed; the number of rounds run."""
    hypotheses = tuple(hypotheses)
    want = reference_rounds(hypotheses, tuple(rules), strict_sides)
    dag = DerivationDag(hypotheses)
    with evaluating(evaluation):
        state = JoinState(dag, rules, strict_sides)
        for r in range(1, 11):
            before = [(index, {k: list(v) for k, v in index.items()})
                      for index in state.indexes.values()]
            got = derive_round(state)
            assert got == derive_round(JoinState(dag, rules, strict_sides)), r
            assert tuple(got[0]) == want[r - 1][0], r
            assert evaluation != "naive" or got[1] == want[r - 1][1], r
            assert all(index == copy for index, copy in before), r
            usable = [f for f in dag if not (strict_sides and dag.node(f).conditional)]
            for slot, index in state.indexes.items():
                assert index == _index(slot, shaped(f for f in usable if f.pred == slot.pred))
            if not got[0]:
                break
            dag.add(*got[0])
    assert r == len(want)
    return r


LADDER = {**{f"circle{k}": concyclic_text(k) for k in range(4, 8)},
          **{f"feet{k}": feet_text(k) for k in (2, 4, 8, 12)}, "varignon": VARIGNON}


@pytest.mark.parametrize("strict_sides", [False, True])
@pytest.mark.parametrize("evaluation", EVALUATIONS)
@pytest.mark.parametrize("figure", LADDER)
def test_carried_join_state_equals_fresh_ladder(figure, evaluation, strict_sides,
                                                default_rules):
    d0 = initial_facts(parse_construction(LADDER[figure]))
    assert _check_carried_state(d0, default_rules, evaluation, strict_sides) >= 2


@pytest.mark.parametrize("strict_sides", [False, True])
@pytest.mark.parametrize("evaluation", EVALUATIONS)
def test_carried_join_state_equals_fresh_two_circles(evaluation, strict_sides):
    """The lowercase two-circle figure under rules with a point constant in
    every premise and a distinct side that the radii facts repeat."""
    d0 = initial_facts(parse_construction(TWO_CIRCLES))
    assert _check_carried_state(d0, parse_rules(CONSTANT_RULES), evaluation,
                                strict_sides) >= 2


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10 ** 6), max_points=st.integers(4, 10),
       evaluation=st.sampled_from(EVALUATIONS), strict_sides=st.booleans())
def test_carried_join_state_equals_fresh_fuzz(seed, max_points, evaluation, strict_sides,
                                              default_rules):
    d0 = initial_facts(parse_construction(random_construction_text(seed, max_points)))
    _check_carried_state(d0, default_rules, evaluation, strict_sides)


@pytest.mark.parametrize("strict_sides", [False, True])
@pytest.mark.parametrize("figure", ["fuzz1", "circle6"])
def test_fresh_state_indexes_equal_rebuild(figure, strict_sides, default_rules,
                                           monkeypatch):
    """Over a graph saturated 1, 2 or 3 rounds, a fresh state's slot indexes
    split the usable facts as a rebuild does: OLD before the last round,
    DELTA of it, ALL every one, in graph order."""
    text = random_construction_text(1) if figure == "fuzz1" else LADDER[figure]
    d0 = initial_facts(parse_construction(text))
    take_in = JoinState.take_in
    for rounds in (1, 2, 3):
        dag = saturate(d0, default_rules, max_rounds=rounds, strict_sides=strict_sides).dag
        last = dag.rounds  # below rounds if the fixpoint came first
        usable = [f for f in dag if not (strict_sides and dag.node(f).conditional)]
        got = derive_round(JoinState(dag, default_rules, strict_sides=strict_sides))

        def rebuilt(state):
            views = take_in(state)  # writes the graph facts into state.memo as KNOWN
            out = {}
            for slot in views:
                facts = [f for f in usable if f.pred == slot.pred]
                parts = {engine.OLD: [f for f in facts if dag.node(f).round < last],
                         engine.DELTA: [f for f in facts if dag.node(f).round == last],
                         engine.ALL: facts}
                out[slot] = {part: _index(slot, shaped(fs)) for part, fs in parts.items()}
            return out

        with monkeypatch.context() as m:
            m.setattr(JoinState, "take_in", rebuilt)
            assert got == derive_round(JoinState(dag, default_rules,
                                                 strict_sides=strict_sides)), rounds
    assert last >= 2


@pytest.mark.parametrize("strict_sides", [False, True])
@pytest.mark.parametrize("evaluation", EVALUATIONS)
@pytest.mark.parametrize("figure", [*(f"fuzz{s}" for s in range(10)), "circle6", "feet8"])
def test_one_verdict_store_per_predicate(figure, evaluation, strict_sides, default_rules):
    """A run's verdict store, one per predicate and kept across its rounds,
    drops exactly the conclusions the graph holds and judges every other
    as a fresh judgment does: a whole saturation derives, round by round,
    what the reference derives and stops as it stops, and under naive
    evaluation it counts the reference's tautologies."""
    text = (random_construction_text(int(figure[4:])) if figure.startswith("fuzz")
            else LADDER[figure])
    d0 = tuple(initial_facts(parse_construction(text)))
    want = reference_rounds(d0, tuple(default_rules), strict_sides)
    with evaluating(evaluation):
        res = saturate(d0, default_rules, strict_sides=strict_sides)
    assert res.dag.derivations() == [d for new, _ in want for d in new]
    assert res.stop_reason == "fixpoint" and not want[-1][0]
    if evaluation == "naive":
        assert res.dropped_tautologies == sum(t for _, t in want)


def test_carried_state_needs_a_new_round(midline, default_rules):
    dag = DerivationDag(initial_facts(midline))
    state = JoinState(dag, default_rules)
    new, _, _ = derive_round(state)
    # its stored indexes hold the facts that DELTA would need again
    with pytest.raises(ValueError, match="gained no round since round 0"):
        derive_round(state)
    dag.add(*new)
    assert derive_round(state) == derive_round(JoinState(dag, default_rules))


@pytest.mark.parametrize("seed", [1, 10, 19])
def test_next_round_naive_equals_semi_naive(seed, default_rules):
    """On the hypotheses and on every saturate prefix, the next round
    derives the same facts under both evaluations.  These figures once split
    them when a graph was asked again for a round it already held."""
    d0 = initial_facts(parse_construction(random_construction_text(seed)))
    dag = DerivationDag(d0)
    for rounds in range(1, 11):
        with naive_plans():
            naive, _, _ = derive_round(JoinState(dag, default_rules))
        assert naive == derive_round(JoinState(dag, default_rules))[0], dag.rounds
        if not naive:
            break
        dag = saturate(d0, default_rules, max_rounds=rounds).dag
    assert rounds >= 3


def test_state_leaves_out_rules_that_cannot_fire(default_rules):
    """The feet figures give coll and perp facts; only para comes of them,
    so no rule with a midp, cong, cyclic or eqangle premise is kept."""
    dag = DerivationDag(initial_facts(parse_construction(feet_text(4))))
    assert {f.pred for f in dag} == {"coll", "perp"}
    state = JoinState(dag, default_rules)
    assert [r.name for r in state.rules] == [
        "coll_merge", "para_trans", "perp_perp_para", "para_perp_perp"]
    assert {slot.pred for slot in state.indexes} == {"coll", "para", "perp"}
    # a fact no kept rule concludes would need a rule the state left out
    dag.add(Derivation(make_fact("cong", "A", "B", "F1", "X1"), "given", (), 1))
    with pytest.raises(ValueError, match="no rule of the state concludes"):
        derive_round(state)


# --- the generated kernels ------------------------------------------------

@pytest.mark.parametrize("seed", [*range(6), "inscribed"])
def test_derive_round_equals_reference_matcher(seed, default_rules, inscribed):
    """A fresh state over the hypotheses and over saturate's first rounds,
    with strict sides or not, derives what the reference derives, from the
    same bindings, and under naive evaluation counts the same tautologies."""
    c = (inscribed if seed == "inscribed"
         else parse_construction(random_construction_text(seed)))
    d0 = initial_facts(c)
    for rounds in (0, 1, 2):
        for strict_sides in (False, True):
            dag = (saturate(d0, default_rules, max_rounds=rounds,
                            strict_sides=strict_sides).dag if rounds else DerivationDag(d0))
            want, want_taut = reference_round(dag, default_rules, strict_sides)
            state = JoinState(dag, default_rules, strict_sides)
            assert derive_round(state)[0] == want, (seed, rounds, strict_sides)
            with naive_plans():
                got, n_taut, _ = derive_round(JoinState(dag, default_rules, strict_sides))
            assert (got, n_taut) == (want, want_taut), (seed, rounds, strict_sides)


ODD = "x')\n#"  # a name that would break generated text


def test_kernel_source_holds_no_rule_text():
    """A rule's name, predicates and points reach its kernel only as values:
    a rule named and with a point constant spelt ODD derives what its
    renamed copy derives, and its kernel's source names none of them."""
    def rule(name, point):
        return Rule(name, (Fact("coll", ("A", "B", point)), Fact("cong", ("A", "C", "B", "D"))),
                    Fact("perp", ("A", point, "C", "D")),
                    (Fact("distinct", ("C", point)), Fact("non_collinear", ("A", "B", point))))

    def figure(point):
        return [make_fact("coll", "A", "B", point), make_fact("coll", "B", "C", point),
                make_fact("cong", "A", "C", "B", "D"), make_fact("cong", "B", "A", "C", point),
                make_fact("cong", "A", point, "B", "D")]

    def plain(f):
        return Fact(f.pred, tuple("q" if a == ODD else a for a in f.args))

    got = saturate(figure(ODD), [rule(ODD, ODD)]).dag.derivations()
    want = saturate(figure("q"), [rule("r", "q")]).dag.derivations()
    assert want and [Derivation(plain(d.fact), "r", tuple(map(plain, d.premises)), d.round,
                                tuple(map(plain, d.conditions))) for d in got] == want
    source = engine._source(compile_rule(rule(ODD, ODD)))
    for text in (ODD, repr(ODD)[1:-1], "coll", "cong", "perp", "distinct", "non_collinear"):
        assert text not in source, text
    # its only literals are numbers and None
    assert {type(node.value) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant)} <= {int, type(None)}


def test_each_conclusion_is_judged_once_per_run(default_rules, monkeypatch):
    """The state's memo judges each distinct conclusion once per run, and
    only for that run.  The kernels read ``_judge`` through the engine's
    globals at call time, so rebinding it after the rules were compiled,
    as the benchmark's tracer rebinds what it counts, reaches them."""
    d0 = initial_facts(parse_construction(concyclic_text(5)))
    saturate(d0, default_rules)  # compiles and memoizes the rules
    calls = []
    judge = engine._judge
    monkeypatch.setattr(engine, "_judge",
                        lambda memo, pred, args: calls.append((pred, args))
                        or judge(memo, pred, args))
    res = saturate(d0, default_rules)
    assert res.dag.rounds >= 2 and calls
    assert len(calls) == len(set(calls))
    first = len(calls)
    saturate(d0, default_rules)
    assert len(calls) == 2 * first


def _deep(n):
    """A rule of n premises, each the same coll pattern."""
    return f"rule deep: {', '.join(['coll(A,B,C)'] * n)} => cong(A,B,A,C)"


def test_premise_limit_boundary():
    """A rule of MAX_PREMISES premises saturates as its one-premise copy;
    one more premise is refused, in a rule file with its line number and
    through the API by compile_rule."""
    d0 = [make_fact("coll", "A", "B", "C"), make_fact("coll", "B", "D", "E")]
    deep, = parse_rules(_deep(MAX_PREMISES))
    one, = parse_rules(_deep(1))
    assert set(saturate(d0, [deep]).dag) == set(saturate(d0, [one]).dag) != set(d0)
    with pytest.raises(RuleParseError, match=f"line 2: rule has {MAX_PREMISES + 1} premises"):
        parse_rules("\n" + _deep(MAX_PREMISES + 1))
    too_deep = Rule("deep", deep.premises + deep.premises[:1], deep.conclusion, ())
    with pytest.raises(ValueError, match=f"at most {MAX_PREMISES}"):
        compile_rule(too_deep)
    with pytest.raises(ValueError, match=f"at most {MAX_PREMISES}"):
        saturate(d0, [too_deep])
