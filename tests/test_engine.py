"""Rule matching, saturation to a fixpoint, derivation DAG structure."""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from geodeduce import engine
from geodeduce import initial_facts, make_fact, parse_rules, saturate
from geodeduce.engine import (_compile, _index, _join, compile_rule,
                              derive_round, Derivation, DerivationDag, JoinState)
from geodeduce.facts import orbit
from geodeduce.rules import is_variable

from conftest import concyclic_text, feet_text
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
    new, _, _ = derive_round(JoinState(res.dag, default_rules, strategy="naive"))
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


def test_saturate_rejects_empty_budget(midline, default_rules):
    for budget in ({"max_rounds": 0}, {"max_facts": 0}):
        with pytest.raises(ValueError):
            saturate(initial_facts(midline), default_rules, **budget)


def test_naive_equals_semi_naive_on_bundled(bundled, default_rules):
    d0 = initial_facts(bundled)
    a = saturate(d0, default_rules, strategy="naive")
    b = saturate(d0, default_rules, strategy="semi_naive")
    assert set(a.dag) == set(b.dag)
    assert {f: a.dag.node(f).round for f in a.dag} == \
           {f: b.dag.node(f).round for f in b.dag}
    assert a.stop_reason == b.stop_reason and a.dag.rounds == b.dag.rounds


@pytest.mark.parametrize("seed", range(10))
def test_naive_equals_semi_naive_fuzz(seed, default_rules):
    c = parse_construction(random_construction_text(seed))
    d0 = initial_facts(c)
    a = saturate(d0, default_rules, strategy="naive", max_facts=400)
    b = saturate(d0, default_rules, strategy="semi_naive", max_facts=400)
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
    a = saturate(d0, default_rules, strategy="naive")
    b = saturate(d0, default_rules, strategy="semi_naive")
    assert any(f.pred == "eqangle" for f in b.dag)
    assert a.dag.derivations() == b.dag.derivations()
    assert set(a.dag) == set(b.dag)
    assert a.stop_reason == b.stop_reason and a.dag.rounds == b.dag.rounds


def test_unknown_strategy_rejected(midline, default_rules):
    d0 = initial_facts(midline)
    with pytest.raises(ValueError, match="unknown strategy 'Naive'"):
        JoinState(DerivationDag(d0), default_rules, strategy="Naive")
    with pytest.raises(ValueError, match="unknown strategy 'Naive'"):
        saturate(d0, default_rules, strategy="Naive")


ORDER_FIGURES = {**{f"fuzz{s}": random_construction_text(s) for s in range(10)},
                 "circle4": concyclic_text(4), "circle5": concyclic_text(5),
                 "feet8": feet_text(8)}


@pytest.mark.parametrize("strategy", ["naive", "semi_naive"])
@pytest.mark.parametrize("figure", ORDER_FIGURES)
def test_hypothesis_order_does_not_matter(figure, strategy, default_rules):
    d0 = list(initial_facts(parse_construction(ORDER_FIGURES[figure])))
    a = saturate(d0, default_rules, strategy=strategy)
    b = saturate(d0[::-1], default_rules, strategy=strategy)
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
    facts = saturate(initial_facts(c), default_rules, max_rounds=2).dag
    for rule in default_rules:
        lists = [sorted((f for f in facts if f.pred == p.pred), key=str)
                 for p in rule.premises]
        compiled = _compile(rule)
        indexes = [_index(s, lst) for s, lst in zip(compiled.slots, lists)]
        # tuple bindings as variable -> point, through the compiled variable order
        k = len(compiled.consts)
        got = _hashable((dict(zip(compiled.names[k:], b[k:])), used)
                        for b, used in _join(compiled, indexes))
        want = _hashable(_reference_join(rule, lists))
        assert Counter(got) == Counter(want), rule.name
        # the order decides which of two equal-ranked derivations is kept
        assert got == want, rule.name


def test_saturate_compiles_each_rule_once(inscribed, default_rules, monkeypatch):
    calls = []
    monkeypatch.setattr(engine, "compile_rule",
                        lambda rule: calls.append(rule) or compile_rule(rule))
    res = saturate(initial_facts(inscribed), default_rules)
    assert res.dag.rounds >= 3
    assert calls == default_rules


def test_orbit_calls_bounded_by_facts_per_round(inscribed, default_rules,
                                                 monkeypatch):
    calls = []
    monkeypatch.setattr(engine, "orbit", lambda f: calls.append(f) or orbit(f))
    d0 = initial_facts(inscribed)
    res = saturate(d0, default_rules)
    present = [sum(1 for f in res.dag if res.dag.node(f).round < r)
               for r in range(1, res.dag.rounds + 2)]
    assert calls and len(calls) <= sum(present)


STRATEGIES = ("naive", "semi_naive")


def _check_carried_state(text, rules, strategy, strict_sides):
    """Grow the figure's graph round by round as ``saturate`` does, with one
    carried JoinState, and check that every round returns exactly what a
    fresh state returns, that each stored index equals a rebuild over the
    graph's usable facts, and that no index a round began with was changed;
    the number of rounds run."""
    dag = DerivationDag(initial_facts(parse_construction(text)))
    state = JoinState(dag, rules, strategy, strict_sides)
    for r in range(1, 11):
        before = [(index, {k: list(v) for k, v in index.items()})
                  for index in state.indexes.values()]
        got = derive_round(state)
        assert got == derive_round(JoinState(dag, rules, strategy, strict_sides)), r
        assert all(d.round == r for d in got[0]), r
        assert all(index == copy for index, copy in before), r
        usable = [f for f in dag if not (strict_sides and dag.node(f).conditional)]
        for slot, index in state.indexes.items():
            assert index == _index(slot, [f for f in usable if f.pred == slot.pred])
        if not got[0]:
            break
        dag.add(*got[0])
    return r


LADDER = {**{f"circle{k}": concyclic_text(k) for k in range(4, 8)},
          **{f"feet{k}": feet_text(k) for k in (2, 4, 8, 12)}}


@pytest.mark.parametrize("strict_sides", [False, True])
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("figure", LADDER)
def test_carried_join_state_equals_fresh_ladder(figure, strategy, strict_sides,
                                                default_rules):
    assert _check_carried_state(LADDER[figure], default_rules, strategy,
                                strict_sides) >= 2


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10 ** 6), max_points=st.integers(4, 10),
       strategy=st.sampled_from(STRATEGIES), strict_sides=st.booleans())
def test_carried_join_state_equals_fresh_fuzz(seed, max_points, strategy, strict_sides,
                                              default_rules):
    _check_carried_state(random_construction_text(seed, max_points), default_rules,
                         strategy, strict_sides)


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
            views = take_in(state)  # fills state.known
            out = {}
            for slot in views:
                facts = [f for f in usable if f.pred == slot.pred]
                parts = {engine.OLD: [f for f in facts if dag.node(f).round < last],
                         engine.DELTA: [f for f in facts if dag.node(f).round == last],
                         engine.ALL: facts}
                out[slot] = {part: _index(slot, fs) for part, fs in parts.items()}
            return out

        with monkeypatch.context() as m:
            m.setattr(JoinState, "take_in", rebuilt)
            assert got == derive_round(JoinState(dag, default_rules,
                                                 strict_sides=strict_sides)), rounds
    assert last >= 2


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
    derives the same facts under both strategies.  These figures once split
    them when a graph was asked again for a round it already held."""
    d0 = initial_facts(parse_construction(random_construction_text(seed)))
    dag = DerivationDag(d0)
    for rounds in range(1, 11):
        naive, _, _ = derive_round(JoinState(dag, default_rules, "naive"))
        assert naive == derive_round(JoinState(dag, default_rules, "semi_naive"))[0], dag.rounds
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
