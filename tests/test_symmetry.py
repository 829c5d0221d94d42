"""Symmetry breaking in the indexed join: compile_rule's swaps, the
first-drawn binding of each orbit, and the orbit-size weights."""

import functools
import itertools
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import HealthCheck, Phase, find, given, settings, strategies as st

from geodeduce import (engine, initial_facts, make_fact, parse_construction,
                       parse_rules, saturate)
from geodeduce.engine import (DerivationDag, JoinState, _compile, _index, _join,
                              compile_rule, derive_round)
from geodeduce.facts import ARITIES, Fact, canonicalize, orbit
from geodeduce.rules import Rule, is_variable

from conftest import ROOT, concyclic_text
from fuzzing import random_construction_text

CIRCLE4 = concyclic_text(4)

# fuzz figures give coll/cong/midp/para/perp; circle figures cyclic/eqangle
FIGURES = {
    **{f"fuzz{s}": random_construction_text(s) for s in range(4)},
    "circle4": CIRCLE4,
    "circle4+midAC": CIRCLE4 + "midpoint E A C\n",
    "circle4+footAB+lineCD": CIRCLE4 + "foot E O A B\non_line F C D\n",
    "circle5": concyclic_text(5),
}

EXPECTED_PAIRS = {
    "eqangle_trans": (("A", "B"), ("C", "D"), ("E", "F"), ("G", "H"),
                      ("P", "Q"), ("R", "S")),
    **{name: (("A", "B"), ("C", "D"), ("E", "F"))
       for name in ("para_trans", "perp_perp_para", "para_perp_perp", "cong_trans")},
    "midp_split": (("A", "B"),),
    "midp_join": (("A", "B"),),
    "inscribed_angle": (("C", "D"),),
}


@functools.lru_cache(maxsize=None)
def figure_dag(name):
    """The figure's facts after two rounds of the default rules."""
    rules = parse_rules((ROOT / "rules" / "gddm-default.gr").read_text())
    c = parse_construction(FIGURES[name])
    return saturate(initial_facts(c), rules, max_rounds=2).dag


def _uncompiled(rule):
    """The rule without its symmetries: the full join, every weight 1."""
    return _compile(rule)


def _ground(args, binding):
    return tuple(binding.get(a, a) for a in args)


def _join_list(compiled, rule, facts):
    """The join's (binding, facts used), each tuple binding mapped to
    variable -> point through the compiled variable order.  The kernel's
    conclusion getter and distinct tests read the tuple; they must agree
    with grounding by name, point constants included.  A distinct side
    whose two variables share a premise is tested in that premise's slot,
    so every drawn binding satisfies it; the others are tested per
    binding, by ``compiled.distinct``."""
    lists = [sorted((f for f in facts if f.pred == p.pred), key=str)
             for p in rule.premises]
    indexes = [_index(s, lst) for s, lst in zip(compiled.slots, lists)]
    k = len(compiled.consts)
    in_slot, spanning = [], []
    for s in rule.side_conditions:
        if s.pred == "distinct":
            shared = any({*s.args} <= {*p.args} for p in rule.premises)
            (in_slot if shared and all(map(is_variable, s.args)) else spanning).append(s.args)
    out = []
    for b, used in _join(compiled, indexes):
        named = dict(zip(compiled.names[k:], b[k:]))
        assert compiled.conclusion(b) == _ground(rule.conclusion.args, named)
        assert all(len(set(_ground(args, named))) == 2 for args in in_slot)
        assert ([b[i] == b[j] for i, j in compiled.distinct]
                == [len(set(_ground(args, named))) == 1 for args in spanning])
        out.append((named, used))
    return out


def _orbit_key(binding, used, pairs):
    """The same key for every binding in one orbit of the swaps."""
    images = []
    for mask in range(1 << len(pairs)):
        b = dict(binding)
        for k, (x, y) in enumerate(pairs):
            if mask >> k & 1:
                b[x], b[y] = binding[y], binding[x]
        images.append(tuple(sorted(b.items())))
    return used, min(images)


def _conclusion(rule, binding):
    return canonicalize(Fact(rule.conclusion.pred, _ground(rule.conclusion.args, binding)))


def check_compiled_join(rule, facts):
    compiled = compile_rule(rule)
    full = _join_list(_compile(rule), rule, facts)
    got = _join_list(compiled, rule, facts)
    # the first-drawn binding of each orbit, in full-join order
    first, seen = [], set()
    for b, used in full:
        key = _orbit_key(b, used, compiled.pairs)
        if key not in seen:
            seen.add(key)
            first.append((b, used))
    assert got == first, rule
    # each kept binding stands for its whole orbit
    weights = Counter()
    for b, used in got:
        weights[used, _conclusion(rule, b)] += 1 << sum(b[x] != b[y]
                                                        for x, y in compiled.pairs)
    assert weights == Counter((used, _conclusion(rule, b)) for b, used in full), rule


def _rounds(dag, rules, strategy, rounds=3):
    """derive_round's output round by round, the dag growing as in saturate."""
    dag = dag.copy()
    state = JoinState(dag, rules, strategy)
    out = []
    for _ in range(rounds):
        new, t, g = derive_round(state)
        out.append((new, t, g))
        if not new:  # a fixpoint: the graph gains no round
            break
        dag.add(*new)
    return out


def check_derive_round(dag, rules):
    for strategy in ("naive", "semi_naive"):
        got = _rounds(dag, rules, strategy)
        # the reference state compiles each rule without its symmetries
        with mock.patch.object(engine, "compile_rule", _uncompiled):
            want = _rounds(dag, rules, strategy)
        assert got == want, (strategy, [str(r) for r in rules])


def test_default_rule_symmetries(default_rules):
    found = {r.name: compile_rule(r).pairs for r in default_rules}
    assert {n: p for n, p in found.items() if p} == EXPECTED_PAIRS


def test_side_conditions_must_be_preserved():
    # C<->D maps non_collinear(A,B,C) to non_collinear(A,B,D): no symmetry
    rule, = parse_rules("rule r: eqangle(C,A,C,B,D,A,D,B), non_collinear(A,B,C),"
                        " non_collinear(A,B,D) => cyclic(A,B,C,D)")
    assert compile_rule(rule).pairs == ()
    # distinct_lines is symmetric within each of its pairs only
    rule, = parse_rules("rule r: cong(A,B,C,D), distinct_lines(A,C,B,D) => cong(A,B,C,D)")
    assert compile_rule(rule).pairs == ()
    rule, = parse_rules("rule r: cong(A,B,C,D), distinct_lines(A,B,D,C) => cong(A,B,C,D)")
    assert compile_rule(rule).pairs == (("A", "B"), ("C", "D"))


def _shapes(n):
    """Every pattern of n arguments up to renaming its variables."""
    def grow(prefix, used):
        if len(prefix) == n:
            yield prefix
            return
        for c in range(used + 1):
            yield from grow(prefix + (c,), max(used, c + 1))
    yield from grow((), 0)


@pytest.mark.parametrize("pred", sorted(ARITIES))
def test_lex_constraint_picks_first_drawn_variant(pred):
    """For every pattern shape and every swap (x y) its binding slot breaks,
    a variant v comes before its swapped image in the fact's orbit exactly
    when v[px] < v[py]."""
    rng = random.Random(pred)
    names = "ABCDEFGH"
    for shape in _shapes(ARITIES[pred]):
        pattern = Fact(pred, tuple(names[c] for c in shape))
        n_vars = max(shape) + 1
        rule = Rule("r", (pattern,), pattern, ())
        pairs = [(names.index(x), names.index(y)) for x, y in rule.symmetries
                 if engine._breaks(rule, x, y)]
        for _ in range(12 if pairs else 0):
            values = [str(rng.randrange(n_vars)) for _ in range(n_vars)]
            v = tuple(values[c] for c in shape)
            drawn = {t: i for i, t in enumerate(dict.fromkeys(orbit(make_fact(pred, *v))))}
            for a, b in pairs:
                if values[a] != values[b]:
                    swapped = {a: values[b], b: values[a]}
                    w = tuple(swapped.get(c, values[c]) for c in shape)
                    assert (drawn[v] < drawn[w]) == (values[a] < values[b]), (pattern, v)


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_compiled_join_keeps_first_of_each_orbit(figure, default_rules):
    facts = list(figure_dag(figure))
    for rule in default_rules:
        check_compiled_join(rule, facts)


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_derive_round_equals_full_join(figure, default_rules):
    check_derive_round(figure_dag(figure), default_rules)


# --- random rules -------------------------------------------------------

VARIABLES = "ABCDEFGH"


def _lowercase(dag):
    """The figure's facts over lowercase point names, usable as constants."""
    return DerivationDag(make_fact(f.pred, *(a.lower() for a in f.args)) for f in dag)


@st.composite
def random_rules(draw, constants, preds=tuple(sorted(ARITIES))):
    # distinct variables, or few variables (so repeats) and some constants
    symbols = st.sampled_from(list(VARIABLES[:5]) * 4 + list(constants)[:5])
    premises = []
    for _ in range(draw(st.integers(1, 2))):
        pred = draw(st.sampled_from(preds))
        n = ARITIES[pred]
        if draw(st.booleans()):
            args = draw(st.permutations(VARIABLES))[:n]
        else:
            args = draw(st.lists(symbols, min_size=n, max_size=n))
        premises.append(Fact(pred, tuple(args)))
    variables = sorted({a for p in premises for a in p.args if a[0].isupper()})
    if not variables:
        premises[0] = Fact(premises[0].pred, ("A",) + premises[0].args[1:])
        variables = ["A"]
    # conclusions and side conditions name bound variables and, less
    # often, point constants, which the join keeps in its bindings
    points = st.sampled_from(variables * 4 + list(constants)[:5])
    # premise 0's arguments under a predicate of its arity keep the symmetries
    # it shares with that predicate; random arguments rarely keep any
    first = premises[0]
    same_arity = sorted(p for p, n in ARITIES.items() if n == len(first.args))
    if draw(st.booleans()):
        conclusion = Fact(draw(st.sampled_from(same_arity)), first.args)
    else:
        pred = draw(st.sampled_from(sorted(ARITIES)))
        conclusion = Fact(pred, tuple(draw(st.lists(
            points, min_size=ARITIES[pred], max_size=ARITIES[pred]))))
    sides = []
    for kind, n in (("distinct", 2), ("non_collinear", 3), ("distinct_lines", 4)):
        if draw(st.booleans()):
            sides.append(Fact(kind, tuple(draw(st.lists(
                points, min_size=n, max_size=n)))))
    return Rule("random", tuple(premises), conclusion, tuple(sides))


LOWER_FIGURES = ("fuzz0", "fuzz1", "circle4+midAC", "circle5")


def _reference_symmetries(rule):
    """Rule.symmetries by canonical forms: every swap of two premise
    variables that leaves each premise's and the conclusion's canonical
    form, and each side condition's point sets, unchanged."""
    variables = list(dict.fromkeys(a for p in rule.premises for a in p.args
                                   if a[0].isupper()))
    out = []
    for x, y in itertools.combinations(variables, 2):
        swap = {x: y, y: x}

        def image(args):
            return tuple(swap.get(a, a) for a in args)

        if any(canonicalize(Fact(p.pred, image(p.args))) != canonicalize(Fact(p.pred, p.args))
               for p in rule.premises + (rule.conclusion,)):
            continue
        sides = [(set(a[:2]), set(a[2:])) == (set(b[:2]), set(b[2:]))
                 if s.pred == "distinct_lines" else set(a) == set(b)
                 for s in rule.side_conditions for a, b in [(s.args, image(s.args))]]
        if all(sides):
            out.append((x, y))
    return tuple(out)


def test_default_rules_symmetries_equal_reference(default_rules):
    for rule in default_rules:
        assert rule.symmetries == _reference_symmetries(rule), rule.name


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_random_rule_compiled_join(data):
    name = data.draw(st.sampled_from(LOWER_FIGURES))
    dag = _lowercase(figure_dag(name))
    points = sorted({a for f in dag for a in f.args})
    rule = data.draw(random_rules(points, sorted({f.pred for f in dag})))
    assert rule.symmetries == _reference_symmetries(rule)
    check_compiled_join(rule, list(dag))
    check_derive_round(dag, [rule])


@pytest.mark.parametrize("wanted", [
    lambda r: len(compile_rule(r).pairs) >= 2,
    lambda r: any(p.pred in ("para", "perp", "cong", "eqangle") and s.lex
                  for p, s in zip(r.premises, compile_rule(r).slots)),
    lambda r: compile_rule(r).pairs and any(
        not a[0].isupper() for p in r.premises for a in p.args),
    lambda r: compile_rule(r).pairs and any(
        not a[0].isupper() for a in r.conclusion.args),
    lambda r: compile_rule(r).pairs and any(
        s.pred == "distinct" and not all(a[0].isupper() for a in s.args)
        for s in r.side_conditions),
    lambda r: any(s.distinct for s in compile_rule(r).slots),
    lambda r: len(r.premises) == 2 and compile_rule(r).distinct and all(
        a[0].isupper() for s in r.side_conditions if s.pred == "distinct" for a in s.args),
], ids=["two-swaps", "block-flip", "swap-and-constant",
        "swap-and-constant-in-conclusion", "swap-and-constant-in-distinct",
        "distinct-in-slot", "distinct-across-slots"])
def test_random_rules_reach_symmetries(wanted):
    """The generator reaches the swaps the property test is about."""
    find(random_rules(["o", "a"]), wanted,
         settings=settings(max_examples=2000, database=None, phases=[Phase.generate]))


# --- slot indexes -------------------------------------------------------

def _reference_index(slot, facts):
    """The slot's index built by testing every orbit variant of every fact,
    equal ones once: key -> [(fact, values of the new variables)]."""
    index = {}
    for f in facts:
        for v in dict.fromkeys(orbit(f)):
            if (all(v[p] == c for p, c in slot.consts)
                    and all(v[p] == v[q] for p, q in slot.repeats)
                    and all(v[p] <= v[q] for p, q in slot.lex)
                    and all(v[p] != v[q] for p, q in slot.distinct)):
                index.setdefault(tuple(v[p] for p in slot.key_pos), []).append(
                    (f, tuple(v[p] for p in slot.new_pos)))
    return index


# uppercase points, and lowercase ones that random rules name as constants
INDEX_POINTS = ("A", "B", "C", "D", "E", "a", "o")


@st.composite
def random_facts(draw, pred):
    """Facts of pred, as written or canonical: few points, so often with
    repeats, or all points distinct."""
    n = ARITIES[pred]
    points = st.sampled_from(INDEX_POINTS[:draw(st.integers(2, len(INDEX_POINTS)))])
    args = st.one_of(st.lists(points, min_size=n, max_size=n),
                     st.permutations(INDEX_POINTS + tuple("FGH")).map(lambda p: p[:n]))
    facts = [Fact(pred, tuple(a)) for a in draw(st.lists(args, max_size=10))]
    return [canonicalize(f) for f in facts] if draw(st.booleans()) else facts


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_index_equals_variant_filtering_reference(data, default_rules):
    """Slot tables decided by fact shape index the same entries, in the same
    order under each key and the same key order, as testing every variant."""
    rule = data.draw(st.one_of(st.sampled_from(default_rules),
                               random_rules(INDEX_POINTS[-2:])))
    for compiled in (compile_rule(rule), _compile(rule)):
        for slot in compiled.slots:
            facts = data.draw(random_facts(slot.pred))
            got, want = _index(slot, facts), _reference_index(slot, facts)
            assert list(got.items()) == list(want.items()), (rule, slot)


def test_distinct_sides_move_into_slots(default_rules):
    compiled = {r.name: compile_rule(r) for r in default_rules}
    assert all(not c.distinct for c in compiled.values())
    # coll_merge: coll(A,B,C), coll(A,B,D), distinct(A,B); the first slot tests it
    assert [s.distinct for s in compiled["coll_merge"].slots] == [((0, 1),), ()]
    rule, = parse_rules("rule r: coll(A,B,C), coll(C,D,E), distinct(A,D) => coll(A,B,D)")
    assert [s.distinct for s in compile_rule(rule).slots] == [(), ()]
    assert compile_rule(rule).distinct == ((0, 3),)


def test_compiled_rules_are_memoized(default_rules):
    again = parse_rules((ROOT / "rules" / "gddm-default.gr").read_text())
    assert all(compile_rule(a) is compile_rule(b) for a, b in zip(default_rules, again))
