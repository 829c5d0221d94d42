"""Canonical forms, tautology/degeneracy verdicts, symbol counting."""

import itertools

import pytest
from hypothesis import example, given, strategies as st

from geodeduce.facts import (ARITIES, SYMMETRIES, Fact, MalformedFactError,
                             canonicalize, fact_symbols, is_degenerate,
                             is_tautology, make_fact, orbit, parse_fact)
from geodeduce.numeric import eval_fact, model_from_coords

import numpy as np


def test_canonicalize_examples():
    assert make_fact("coll", "C", "A", "B") == make_fact("coll", "A", "B", "C")
    assert make_fact("para", "C", "D", "B", "A") == make_fact("para", "A", "B", "C", "D")
    assert make_fact("cong", "O", "B", "O", "A") == make_fact("cong", "O", "A", "O", "B")


def test_canonicalize_midp_keeps_midpoint_first():
    f = make_fact("midp", "M", "B", "A")
    assert f.args == ("M", "A", "B")


def test_canonicalize_eqangle_angle_swap_and_ray_flip():
    base = make_fact("eqangle", "C", "A", "C", "B", "D", "A", "D", "B")
    assert make_fact("eqangle", "D", "A", "D", "B", "C", "A", "C", "B") == base
    assert make_fact("eqangle", "A", "C", "B", "C", "A", "D", "B", "D") == base


def test_arity_mismatch():
    with pytest.raises(MalformedFactError):
        make_fact("coll", "A", "B")
    with pytest.raises(MalformedFactError):
        make_fact("nosuch", "A", "B")


def test_parse_fact_roundtrip():
    f = parse_fact("para(M,N,B,C)")
    assert str(f) == "para(B,C,M,N)"  # canonical form
    assert parse_fact("para( M , N,B,C )") == f


names = st.sampled_from(["A", "B", "C", "D", "E", "M", "N", "O"])
preds = st.sampled_from(sorted(ARITIES))


@st.composite
def raw_facts(draw, names=names):
    pred = draw(preds)
    args = tuple(draw(names) for _ in range(ARITIES[pred]))
    return Fact(pred, args)


@pytest.mark.parametrize("text", ["coll(A,B,)", "coll(A,B,C))", "coll(A, B C, D)",
                                  "coll(A,B,(C)", "coll A,B,C", "coll()"])
def test_parse_fact_rejects_malformed_atoms(text):
    with pytest.raises(MalformedFactError):
        parse_fact(text)


@given(raw_facts())
def test_parse_fact_inverts_str(f):
    assert parse_fact(str(f)) == canonicalize(f)


@given(raw_facts())
def test_canonicalize_idempotent(f):
    c = canonicalize(f)
    assert canonicalize(c) == c


@given(raw_facts())
def test_whole_orbit_maps_to_same_representative(f):
    c = canonicalize(f)
    for variant in orbit(f):
        assert canonicalize(Fact(f.pred, variant)) == c


@given(raw_facts())
def test_equal_canonical_facts_hash_equally(f):
    c1 = canonicalize(f)
    c2 = canonicalize(Fact(f.pred, next(iter(orbit(f)))))
    if c1 == c2:
        assert hash(c1) == hash(c2)


# Set iteration order, sort order and hence every report byte rest on
# these: a fact hashes and orders as the tuple (pred, args).
@given(raw_facts())
def test_fact_hashes_as_its_pred_args_tuple(f):
    assert hash(f) == hash((f.pred, f.args))


@given(st.lists(raw_facts(), max_size=12))
def test_facts_sort_by_pred_then_args(facts):
    assert sorted(facts) == sorted(facts, key=lambda f: (f.pred, f.args))


# point names that share prefixes, end in digits or '_', or differ in case
ADVERSARIAL = st.sampled_from(["A", "A0", "A1", "A10", "A_", "AB", "Ab", "Aa",
                               "B", "Z9", "a", "a1", "a_", "b"])


# the engine, scoring and the report sort facts as tuples and rely on this
@given(st.lists(raw_facts(ADVERSARIAL), max_size=12))
@example([make_fact(p, *["A", "A1", "A_", "Ab", "a", "a1", "AB", "A0"][:n])
          for p, n in ARITIES.items()])
def test_canonical_facts_sort_as_their_text(facts):
    facts = [canonicalize(f) for f in facts]
    assert sorted(facts) == sorted(facts, key=str)


def test_fact_is_immutable_with_a_stable_repr():
    f = make_fact("coll", "A", "B", "C")
    with pytest.raises(AttributeError):
        f.pred = "para"
    assert repr(f) == "Fact(pred='coll', args=('A', 'B', 'C'))"


@pytest.mark.parametrize("pred", sorted(ARITIES))
def test_canonicalize_is_orbit_minimum_exhaustive(pred):
    for args in itertools.product("ABCD", repeat=ARITIES[pred]):
        f = Fact(pred, args)
        assert canonicalize(f).args == min(orbit(f))


@given(raw_facts(st.sampled_from("ABCDEF")))
def test_canonicalize_is_orbit_minimum(f):
    assert canonicalize(f).args == min(orbit(f))


def _reference_orbit(fact):
    """The symmetry orbit as hand-written loops, one branch per predicate:
    the enumeration the permutation tables replaced."""
    a = fact.args
    if fact.pred in ("coll", "cyclic"):
        yield from itertools.permutations(a)
    elif fact.pred == "midp":
        yield a
        yield (a[0], a[2], a[1])
    elif fact.pred in ("para", "perp", "cong"):
        for s1 in ((a[0], a[1]), (a[1], a[0])):
            for s2 in ((a[2], a[3]), (a[3], a[2])):
                yield s1 + s2
                yield s2 + s1
    elif fact.pred == "eqangle":
        ang1, ang2 = (a[0:2], a[2:4]), (a[4:6], a[6:8])
        for first, second in ((ang1, ang2), (ang2, ang1)):
            rays = (first[0], first[1], second[0], second[1])
            for flips in itertools.product((False, True), repeat=4):
                out = []
                for ray, flip in zip(rays, flips):
                    out.extend((ray[1], ray[0]) if flip else ray)
                yield tuple(out)


# the loops listed para/perp/cong with segment flips outer and the pair
# swap inner; the table lists every predicate in sorted permutation order
SAME_ORDER_AS_LOOPS = ("coll", "cyclic", "midp", "eqangle")


@pytest.mark.parametrize("pred", sorted(ARITIES))
def test_orbit_table_matches_reference_loops_exhaustive(pred):
    for args in itertools.product("ABCD", repeat=ARITIES[pred]):
        f = Fact(pred, args)
        got, want = orbit(f), list(_reference_orbit(f))
        if pred in SAME_ORDER_AS_LOOPS:
            assert got == want, f
        else:  # the same multiset
            assert sorted(got) == sorted(want), f


GROUP_SIZES = {"coll": 6, "cyclic": 24, "midp": 2, "para": 8, "perp": 8,
               "cong": 8, "eqangle": 32}


@pytest.mark.parametrize("pred", sorted(ARITIES))
def test_symmetry_table_is_a_sorted_group(pred):
    n = ARITIES[pred]
    names = "ABCDEFGH"[:n]
    # on distinct points each variant spells out its index permutation
    perms = [tuple(names.index(x) for x in v) for v in orbit(Fact(pred, tuple(names)))]
    assert perms == list(SYMMETRIES[pred])
    assert perms[0] == tuple(range(n))
    assert perms == sorted(perms)
    assert len(set(perms)) == len(perms) == GROUP_SIZES[pred]
    group = set(perms)
    for p, q in itertools.product(perms, repeat=2):
        assert tuple(p[i] for i in q) in group


def test_tautology_verdicts():
    assert is_tautology(make_fact("cong", "A", "B", "A", "B"))
    assert is_tautology(make_fact("coll", "A", "A", "B"))
    assert not is_tautology(make_fact("para", "M", "N", "B", "C"))
    assert is_tautology(make_fact("midp", "A", "A", "A"))
    assert is_tautology(make_fact("eqangle", "C", "A", "C", "B", "C", "A", "C", "B"))
    # both-sides-zero cong holds everywhere
    assert is_tautology(make_fact("cong", "A", "A", "B", "B"))


def test_degenerate_is_not_tautology():
    cyc = make_fact("cyclic", "A", "A", "B", "C")
    assert is_degenerate(cyc) and not is_tautology(cyc)
    par = make_fact("para", "A", "A", "B", "C")
    assert is_degenerate(par) and not is_tautology(par)
    perp = make_fact("perp", "A", "B", "C", "C")
    assert is_degenerate(perp) and not is_tautology(perp)
    # identical sides: AB is parallel to itself but never perpendicular
    self_perp = make_fact("perp", "A", "B", "A", "B")
    assert is_degenerate(self_perp) and not is_tautology(self_perp)
    assert is_tautology(make_fact("para", "A", "B", "A", "B"))
    assert not is_degenerate(make_fact("coll", "A", "B", "C"))


def test_fact_symbols():
    ms, ds = fact_symbols(make_fact("coll", "A", "B", "C"))
    assert len(ms) == 4 and len(ds) == 4
    ms, ds = fact_symbols(make_fact("cong", "M", "A", "M", "B"))
    assert len(ms) == 5 and len(ds) == 4
    ms, ds = fact_symbols(make_fact("eqangle", "C", "A", "C", "B", "D", "A", "D", "B"))
    assert len(ms) == 9 and len(ds) == 5


@given(raw_facts(), st.integers(0, 99))
@example(Fact("eqangle", tuple("AAADAAAD")), 0)
def test_tautology_implies_numeric_truth(f, seed):
    c = canonicalize(f)
    if not is_tautology(c):
        return
    rng = np.random.default_rng(seed)
    coords = {n: tuple(rng.uniform(-5, 5, 2)) for n in set(c.args)}
    if len(coords) >= 2:
        m = model_from_coords(coords, seed=seed)
        assert eval_fact(m, c)


def test_tautologies_true_on_100_random_models():
    taut = make_fact("cong", "A", "B", "A", "B")
    for seed in range(100):
        rng = np.random.default_rng(seed)
        coords = {n: tuple(rng.uniform(-1, 1, 2)) for n in "AB"}
        assert eval_fact(model_from_coords(coords, seed=seed), taut)

