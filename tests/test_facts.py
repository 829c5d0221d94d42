"""Canonical forms, tautology/degeneracy verdicts, symbol counting."""

import itertools
import re
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from geodeduce.facts import (PREDICATES, Fact, MalformedFactError, canonicalize,
                             is_degenerate, is_tautology, make_fact, orbit, parse_fact)
from geodeduce.numeric import eval_fact, model_from_coords
from geodeduce.scoring import complexity, weight

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
    # the public verdicts and orbit check a fact as canonicalize does
    for bad in [Fact("coll", ("A",)), Fact("coll", ("A", "B")), Fact("coll", tuple("ABCD")),
                Fact("eqangle", tuple("ABCDABC")), Fact("nosuch", ("A", "B"))]:
        for judge in (canonicalize, is_tautology, is_degenerate, orbit):
            with pytest.raises(MalformedFactError):
                judge(bad)


def test_parse_fact_roundtrip():
    f = parse_fact("para(M,N,B,C)")
    assert str(f) == "para(B,C,M,N)"  # canonical form
    assert parse_fact("para( M , N,B,C )") == f


names = st.sampled_from(["A", "B", "C", "D", "E", "M", "N", "O"])
preds = st.sampled_from(sorted(PREDICATES))


@st.composite
def raw_facts(draw, names=names):
    pred = draw(preds)
    args = tuple(draw(names) for _ in range(PREDICATES[pred].arity))
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
@example([make_fact(p, *["A", "A1", "A_", "Ab", "a", "a1", "AB", "A0"][:r.arity])
          for p, r in PREDICATES.items()])
def test_canonical_facts_sort_as_their_text(facts):
    facts = [canonicalize(f) for f in facts]
    assert sorted(facts) == sorted(facts, key=str)


def _equality_patterns(n):
    """Every equality pattern of n arguments: each argument's point, numbered
    in order of first use (restricted growth strings)."""
    def grow(prefix, used):
        if len(prefix) == n:
            yield prefix
            return
        for c in range(used + 1):
            yield from grow(prefix + (c,), max(used, c + 1))
    yield from grow((), 0)


BELL = {3: 5, 4: 15, 8: 4140}  # the number of equality patterns of n arguments


@pytest.mark.parametrize("pred", sorted(PREDICATES))
def test_degenerate_pairs_are_exact(pred):
    """Equal points at one of its degenerate pairs make the fact degenerate
    and no tautology, for every equality pattern of its arguments under two
    orders of its points.  Each pair left out has a pattern where they do
    not, so the engine's loops test every such pair."""
    n, pairs = PREDICATES[pred].arity, PREDICATES[pred].degenerate_pairs
    left_out = set(itertools.combinations(range(n), 2)) - set(pairs)
    patterns = list(_equality_patterns(n))
    assert len(patterns) == BELL[n]
    for shape in patterns:
        for names in ("ABCDEFGH", "HGFEDCBA"):
            f = canonicalize(Fact(pred, tuple(names[c] for c in shape)))
            if is_degenerate(f) and not is_tautology(f):
                continue
            assert not any(shape[i] == shape[j] for i, j in pairs), (shape, names)
            left_out -= {(i, j) for i, j in left_out if shape[i] == shape[j]}
    assert not left_out


def test_fact_is_immutable_with_a_stable_repr():
    f = make_fact("coll", "A", "B", "C")
    with pytest.raises(AttributeError):
        f.pred = "para"
    assert repr(f) == "Fact(pred='coll', args=('A', 'B', 'C'))"


@pytest.mark.parametrize("pred", sorted(PREDICATES))
def test_canonicalize_is_orbit_minimum_exhaustive(pred):
    for args in itertools.product("ABCD", repeat=PREDICATES[pred].arity):
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


@pytest.mark.parametrize("pred", sorted(PREDICATES))
def test_orbit_table_matches_reference_loops_exhaustive(pred):
    for args in itertools.product("ABCD", repeat=PREDICATES[pred].arity):
        f = Fact(pred, args)
        got, want = orbit(f), list(_reference_orbit(f))
        if pred in SAME_ORDER_AS_LOOPS:
            assert got == want, f
        else:  # the same multiset
            assert sorted(got) == sorted(want), f


def _documented_sizes():
    """predicate -> (arity, group size), read from the "arity, group size"
    column of the table in docs/predicates.md."""
    text = (Path(__file__).resolve().parents[1] / "docs" / "predicates.md").read_text()
    rows = [[c.strip() for c in line.strip().strip("|").split("|")]
            for line in text.splitlines() if line.startswith("|")]
    col = rows[0].index("arity, group size")
    return {re.match(r"`(\w+)\(", row[0]).group(1): tuple(map(int, row[col].split(",")))
            for row in rows[2:]}


DOCUMENTED_SIZES = _documented_sizes()


def test_predicates_page_lists_every_predicate():
    assert sorted(DOCUMENTED_SIZES) == sorted(PREDICATES)


@pytest.mark.parametrize("pred", sorted(PREDICATES))
def test_symmetry_table_is_a_sorted_group(pred):
    n, size = DOCUMENTED_SIZES[pred]
    assert PREDICATES[pred].arity == n
    names = "ABCDEFGH"[:n]
    # on distinct points each variant spells out its index permutation
    perms = [tuple(names.index(x) for x in v) for v in orbit(Fact(pred, tuple(names)))]
    assert perms == list(PREDICATES[pred].group)
    assert perms[0] == tuple(range(n))
    assert perms == sorted(perms)
    assert len(set(perms)) == len(perms) == size
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
    # any argument order gets the verdict of its canonical form
    assert is_tautology(Fact("para", ("A", "B", "B", "A")))
    assert is_tautology(Fact("cong", ("B", "A", "A", "B")))
    assert is_degenerate(Fact("perp", ("C", "D", "D", "C")))


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


def _reference_verdicts(pred, a):
    """(tautology, degenerate) for the fact pred(a), a in any argument
    order, written from the docstrings of is_tautology and is_degenerate:
    a side is the set of its two points, and a zero-length side names one
    point twice.  An eqangle's two sides are its angles, each a pair of
    lines."""
    points = len(set(a))
    if pred in ("coll", "midp", "cyclic"):
        return {"coll": (points < 3, False), "midp": (points == 1, False),
                "cyclic": (False, points < 4)}[pred]
    side = [frozenset(a[i:i + 2]) for i in range(0, len(a), 2)]
    zero = [a[i] == a[i + 1] for i in range(0, len(a), 2)]
    return {
        "para": (side[0] == side[1], any(zero)),
        "perp": (False, any(zero) or side[0] == side[1]),
        "cong": (side[0] == side[1] or all(zero), zero[0] != zero[1]),
        "eqangle": (side[:2] == side[2:] and not any(zero), any(zero)),
    }[pred]


@pytest.mark.parametrize("pred", sorted(PREDICATES))
def test_verdicts_on_every_tuple_over_four_points(pred):
    # every argument tuple over A-D, as written and canonical: 65,536 for eqangle
    for args in itertools.product("ABCD", repeat=PREDICATES[pred].arity):
        want = _reference_verdicts(pred, args)
        for f in (Fact(pred, args), canonicalize(Fact(pred, args))):
            assert (is_tautology(f), is_degenerate(f)) == want, f


def test_fact_symbols():
    # weight counts the predicate and every argument, complexity the
    # predicate and each distinct point; a point named like a predicate
    # is a point, not the predicate again
    coll = make_fact("coll", "coll", "B", "C")
    assert weight(coll) == 4 and complexity(coll.points()) == 4
    cong = make_fact("cong", "coll", "cong", "coll", "B")
    assert weight(cong) == 5 and complexity(cong.points()) == 4


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

