"""Symmetry breaking in the indexed join: compile_rule's swaps and mirrored
premises, the first-drawn binding of each orbit, and the orbit-size weights."""

import functools
import itertools
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, Phase, find, given, settings, strategies as st

from geodeduce import (engine, initial_facts, make_fact, parse_construction,
                       parse_rules, saturate)
from geodeduce.engine import (DerivationDag, JoinState, _compile, _index, compile_rule,
                              derive_round)
from geodeduce.facts import PREDICATES, Fact, canonicalize, orbit
from geodeduce.rules import Rule, is_variable, mirrored_premises, symmetries

from conftest import (EVALUATIONS, ROOT, concyclic_text, evaluating, reference_round,
                      shaped)
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


def binding_names(rule):
    """The point at each position of the rule's compiled bindings: the
    rule's point constants, then its variables in premise order, the order
    the join's slots bind them."""
    atoms = rule.premises + (rule.conclusion,) + rule.side_conditions
    return (tuple(dict.fromkeys(a for p in atoms for a in p.args if not is_variable(a)))
            + tuple(dict.fromkeys(a for p in rule.premises for a in p.args if is_variable(a))))


def _pairs(rule):
    """The symmetry swaps (x y) that the rule's compiled join breaks, as
    point names."""
    names = binding_names(rule)
    return tuple((names[x], names[y]) for x, y in compile_rule(rule).swaps)


def check_rounds(dag, rules, rounds=3, strict_sides=False):
    """Grow the graph as saturate does, up to rounds rounds, with one
    carried JoinState per evaluation: every round each derives what the
    full join, the reference, derives, each fact from its first binding
    drawn, and under naive evaluation counts its tautologies, each kept
    binding weighing the bindings of its orbit."""
    grown = dag.copy()
    states = {}
    for evaluation in EVALUATIONS:
        with evaluating(evaluation):
            states[evaluation] = JoinState(grown, rules, strict_sides)
    for r in range(rounds):
        want, n_taut = reference_round(grown, rules, strict_sides)
        for evaluation, state in states.items():
            new, t, _ = derive_round(state)
            assert new == want, (evaluation, r, [str(rule) for rule in rules])
            assert evaluation != "naive" or t == n_taut, (r, [str(rule) for rule in rules])
        if not want:  # a fixpoint: the graph gains no round
            break
        grown.add(*want)


def test_default_rule_symmetries(default_rules):
    found = {r.name: _pairs(r) for r in default_rules}
    assert {n: p for n, p in found.items() if p} == EXPECTED_PAIRS


def test_side_conditions_must_be_preserved():
    # C<->D maps non_collinear(A,B,C) to non_collinear(A,B,D): no symmetry
    rule, = parse_rules("rule r: eqangle(C,A,C,B,D,A,D,B), non_collinear(A,B,C),"
                        " non_collinear(A,B,D) => cyclic(A,B,C,D)")
    assert _pairs(rule) == ()
    # distinct_lines is symmetric within each of its pairs only
    rule, = parse_rules("rule r: cong(A,B,C,D), distinct_lines(A,C,B,D) => cong(A,B,C,D)")
    assert _pairs(rule) == ()
    rule, = parse_rules("rule r: cong(A,B,C,D), distinct_lines(A,B,D,C) => cong(A,B,C,D)")
    assert _pairs(rule) == (("A", "B"), ("C", "D"))


EXPECTED_MIRRORS = {
    **dict.fromkeys(("coll_merge", "para_trans", "perp_perp_para", "midline",
                     "eqangle_trans", "cong_trans"), (0, 1)),
    "equidist_cyclic": (0, 2),
}


def test_default_rule_mirrors(default_rules):
    found = {r.name: compile_rule(r).mirror for r in default_rules}
    assert {n: m for n, m in found.items() if m} == EXPECTED_MIRRORS


def test_mirror_is_a_symmetry_of_the_whole_rule(default_rules):
    def mirror(text):
        rule, = parse_rules(text)
        return compile_rule(rule).mirror

    named = {r.name: r for r in default_rules}
    # para_perp_perp: its premises' predicates differ
    assert compile_rule(named["para_perp_perp"]).mirror == ()
    # C<->D maps distinct(A,B) onto itself but moves distinct(A,C)
    assert mirror("rule r: coll(A,B,C), coll(A,B,D), distinct(A,B) => coll(B,C,D)") == (0, 1)
    assert mirror("rule r: coll(A,B,C), coll(A,B,D), distinct(A,C) => coll(B,C,D)") == ()
    # a point constant stays put: coll_merge with A a constant keeps its
    # mirror, cong_trans with A and F constants would need a<->E
    assert mirror("rule r: coll(a,B,C), coll(a,B,D) => coll(B,C,D)") == (0, 1)
    assert mirror("rule r: cong(a,B,C,D), cong(C,D,E,b) => cong(a,B,E,b)") == ()
    # cong_trans: A<->E, B<->F maps the swaps (A B), (C D), (E F) onto
    # themselves; with (A B) alone chosen, no involution does
    cong_trans = named["cong_trans"]
    assert mirrored_premises(cong_trans, _pairs(cong_trans)) == (0, 1)
    assert mirrored_premises(cong_trans) == (0, 1)
    assert mirrored_premises(cong_trans, (("A", "B"),)) == ()


# the mirrored bindings of w and d draw two different para facts of one
# direction, and each concludes a tautology or a degenerate fact
MIRROR_RULES = parse_rules("rule w: para(A,B,C,D), para(A,B,E,F) => cong(A,B,A,B)\n"
                           "rule d: para(A,B,C,D), para(A,B,E,F) => perp(A,B,A,B)")
PARALLELS = DerivationDag(make_fact("para", *p) for p in ("ABCD", "ABEF", "CDEF", "ABAC"))


@pytest.mark.parametrize("evaluation", EVALUATIONS)
def test_mirrored_tautologies_weigh_their_mirror(evaluation):
    """A fresh state's first round counts every binding of the full join,
    those over two different facts in either slot, and over one fact."""
    rule = MIRROR_RULES[0]
    assert compile_rule(rule).mirror == (0, 1)
    with evaluating(evaluation):
        new, n_taut, _ = derive_round(JoinState(PARALLELS, [rule]))
    assert (new, n_taut) == reference_round(PARALLELS, [rule]) and n_taut > 0


@pytest.mark.parametrize("figure", ["parallels", *sorted(FIGURES)])
def test_drop_counters_equal_those_of_the_unbroken_join(figure, default_rules):
    """Each kept binding weighs the bindings its swaps and mirror stand for:
    the counters equal those of the same rules compiled with neither."""
    dag = PARALLELS if figure == "parallels" else figure_dag(figure)
    rules = default_rules + MIRROR_RULES
    broken = derive_round(JoinState(dag, rules))
    with mock.patch.object(engine, "compile_rule", _compile):
        assert derive_round(JoinState(dag, rules)) == broken
    assert figure != "parallels" or broken[2] > 0


def _shapes(n):
    """Every pattern of n arguments up to renaming its variables."""
    def grow(prefix, used):
        if len(prefix) == n:
            yield prefix
            return
        for c in range(used + 1):
            yield from grow(prefix + (c,), max(used, c + 1))
    yield from grow((), 0)


@pytest.mark.parametrize("pred", sorted(PREDICATES))
def test_lex_constraint_picks_first_drawn_variant(pred):
    """For every pattern shape and every swap (x y) its binding slot breaks,
    a variant v comes before its swapped image in the fact's orbit exactly
    when v[px] < v[py]."""
    rng = random.Random(pred)
    names = "ABCDEFGH"
    for shape in _shapes(PREDICATES[pred].arity):
        pattern = Fact(pred, tuple(names[c] for c in shape))
        n_vars = max(shape) + 1
        rule = Rule("r", (pattern,), pattern, ())
        pairs = [(names.index(x), names.index(y)) for x, y in symmetries(rule)
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
    """A fresh state's next round over the figure, with strict sides or
    not, derives what the full join derives: each fact with the side
    conditions of the first binding drawn of its orbit."""
    for strict_sides in (False, True):
        check_rounds(figure_dag(figure), default_rules, 1, strict_sides)


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_derive_round_equals_full_join(figure, default_rules):
    check_rounds(figure_dag(figure), default_rules)


# --- random rules -------------------------------------------------------

VARIABLES = "ABCDEFGH"


def _lowercase(dag):
    """The figure's facts over lowercase point names, usable as constants."""
    return DerivationDag(make_fact(f.pred, *(a.lower() for a in f.args)) for f in dag)


@st.composite
def random_rules(draw, constants, preds=tuple(sorted(PREDICATES))):
    # distinct variables, or few variables (so repeats) and some constants
    symbols = st.sampled_from(list(VARIABLES[:5]) * 4 + list(constants)[:5])
    premises = []
    for _ in range(draw(st.integers(1, 2))):
        pred = draw(st.sampled_from(preds))
        n = PREDICATES[pred].arity
        if draw(st.booleans()):
            args = draw(st.permutations(VARIABLES))[:n]
        else:
            args = draw(st.lists(symbols, min_size=n, max_size=n))
        premises.append(Fact(pred, tuple(args)))
    # or premise 1 mirrors premise 0: some of its variables swapped with fresh ones
    moved = {}
    if len(premises) == 2 and draw(st.booleans()):
        first = premises[0]
        names = sorted({a for a in first.args if a[0].isupper()})
        moved = dict(zip([v for v in names if draw(st.booleans())],
                         [v for v in VARIABLES if v not in names]))
        premises[1] = Fact(first.pred, tuple(moved.get(a, a) for a in first.args))
    variables = sorted({a for p in premises for a in p.args if a[0].isupper()})
    if not variables:
        premises[0] = Fact(premises[0].pred, ("A",) + premises[0].args[1:])
        variables = ["A"]
    # conclusions and side conditions name bound variables and, less
    # often, point constants, which the join keeps in its bindings
    points = st.sampled_from(variables * 4 + list(constants)[:5])
    # or the points a mirror fixes, so that a conclusion over them stays put
    fixed = [v for v in variables if v not in moved and v not in moved.values()]
    head = (st.sampled_from(fixed + list(constants)[:5])
            if moved and (fixed or constants) and draw(st.booleans()) else None)
    # premise 0's arguments under a predicate of its arity keep the symmetries
    # it shares with that predicate; random arguments rarely keep any
    first = premises[0]
    same_arity = sorted(p for p, r in PREDICATES.items() if r.arity == len(first.args))
    if head is None and draw(st.booleans()):
        conclusion = Fact(draw(st.sampled_from(same_arity)), first.args)
    else:
        pred = draw(st.sampled_from(sorted(PREDICATES)))
        n = PREDICATES[pred].arity
        conclusion = Fact(pred, tuple(draw(st.lists(points if head is None else head,
                                                    min_size=n, max_size=n))))
    sides = []
    for kind, n in (("distinct", 2), ("non_collinear", 3), ("distinct_lines", 4)):
        if draw(st.booleans()):
            sides.append(Fact(kind, tuple(draw(st.lists(
                points, min_size=n, max_size=n)))))
    return Rule("random", tuple(premises), conclusion, tuple(sides))


LOWER_FIGURES = ("fuzz0", "fuzz1", "circle4+midAC", "circle5")


def _reference_symmetries(rule):
    """rules.symmetries by canonical forms: every swap of two premise
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
        assert symmetries(rule) == _reference_symmetries(rule), rule.name


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_random_rule_compiled_join(data):
    name = data.draw(st.sampled_from(LOWER_FIGURES))
    dag = _lowercase(figure_dag(name))
    points = sorted({a for f in dag for a in f.args})
    rule = data.draw(random_rules(points, sorted({f.pred for f in dag})))
    assert symmetries(rule) == _reference_symmetries(rule)
    check_rounds(dag, [rule], 2, data.draw(st.booleans()))


def _distinct_in_one_premise(rule):
    """Whether a distinct side names two variables of one premise; each such
    side must be one of the compiled rule's loop tests."""
    names = binding_names(rule)
    sides = [s.args for s in rule.side_conditions if s.pred == "distinct"
             and all(a[0].isupper() for a in s.args)
             and any({*s.args} <= {*p.args} for p in rule.premises)]
    for x, y in sides:
        assert tuple(sorted((names.index(x), names.index(y)))) in compile_rule(rule).distinct
    return bool(sides)


@pytest.mark.parametrize("wanted", [
    lambda r: len(_pairs(r)) >= 2,
    lambda r: any(p.pred in ("para", "perp", "cong", "eqangle") and s.lex
                  for p, s in zip(r.premises, compile_rule(r).slots)),
    lambda r: _pairs(r) and any(
        not a[0].isupper() for p in r.premises for a in p.args),
    lambda r: _pairs(r) and any(
        not a[0].isupper() for a in r.conclusion.args),
    lambda r: _pairs(r) and any(
        s.pred == "distinct" and not all(a[0].isupper() for a in s.args)
        for s in r.side_conditions),
    _distinct_in_one_premise,
    lambda r: len(r.premises) == 2 and compile_rule(r).distinct and all(
        a[0].isupper() for s in r.side_conditions if s.pred == "distinct" for a in s.args),
    lambda r: compile_rule(r).mirror and _pairs(r) and PREDICATES[
        r.conclusion.pred].tautology(canonicalize(r.conclusion).args),
    lambda r: compile_rule(r).mirror and any(
        s.pred == "distinct" for s in r.side_conditions),
], ids=["two-swaps", "block-flip", "swap-and-constant",
        "swap-and-constant-in-conclusion", "swap-and-constant-in-distinct",
        "distinct-in-one-premise", "distinct-across-slots", "mirror-swaps-tautology",
        "mirror-and-distinct"])
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
                    and all(v[p] <= v[q] for p, q in slot.lex)):
                index.setdefault(tuple(v[p] for p in slot.key_pos), []).append(
                    (f, tuple(v[p] for p in slot.new_pos)))
    return index


# uppercase points, and lowercase ones that random rules name as constants
INDEX_POINTS = ("A", "B", "C", "D", "E", "a", "o")


@st.composite
def random_facts(draw, pred):
    """Facts of pred, as written or canonical: few points, so often with
    repeats, or all points distinct."""
    n = PREDICATES[pred].arity
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
            got, want = _index(slot, shaped(facts)), _reference_index(slot, facts)
            assert list(got.items()) == list(want.items()), (rule, slot)


def test_distinct_sides_are_loop_tests(default_rules):
    compiled = {r.name: compile_rule(r) for r in default_rules}
    # the loops test every distinct side, then the conclusions' degenerate pairs
    assert {n: c.distinct for n, c in compiled.items() if c.distinct} == {
        "coll_merge": ((0, 1),),
        "midp_join": ((1, 2),),
        "equidist_cyclic": ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)),
        "inscribed_angle": ((0, 2), (1, 2), (0, 3), (1, 3)),
        "inscribed_converse": ((1, 2), (0, 1), (1, 3), (0, 2), (2, 3), (0, 3)),
        "para_perp_perp": ((0, 1), (4, 5)),
        "eqangle_trans": ((0, 1), (2, 3), (8, 9), (10, 11))}
    # coll_merge: coll(A,B,C), coll(A,B,D), distinct(A,B); the first loop,
    # which binds both, tests it
    lines = engine._source(compiled["coll_merge"]).splitlines()
    at = next(i for i, line in enumerate(lines) if line.lstrip().startswith("for f0,"))
    assert lines[at + 1].strip() == "if v0 == v1:"
    rule, = parse_rules("rule r: coll(A,B,C), coll(C,D,E), distinct(A,D) => coll(A,B,D)")
    assert compile_rule(rule).distinct == ((0, 3),)


def test_compiled_rules_are_memoized(default_rules):
    again = parse_rules((ROOT / "rules" / "gddm-default.gr").read_text())
    assert all(compile_rule(a) is compile_rule(b) for a, b in zip(default_rules, again))
