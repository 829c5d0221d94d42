"""Ground geometric atoms: predicates, canonical forms, tautology/degeneracy tests.

A fact is a predicate applied to an ordered tuple of point names, e.g.
``coll(A,B,C)`` or ``eqangle(C,A,C,B,D,A,D,B)``.  Facts are stored only in
canonical form: the lexicographic minimum over the predicate's symmetry
orbit.  This makes set membership, hashing and fixpoint detection
well defined.  A rule's atoms use the same record over variable names,
as written (rules.py).  Each predicate is one ``Predicate`` record in
``PREDICATES``: its symmetry group, built from generators, its canonical
form in closed form, its two verdicts and its degenerate pairs;
docs/predicates.md lists every predicate's arity, symmetries, canonical
form and verdicts.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from typing import Callable, Dict, List, NamedTuple, Tuple

# a point name, in facts, rules and constructions alike
IDENTIFIER = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")
_ATOM = re.compile(r"\s*([a-z_]+)\s*\(\s*([^()]*?)\s*\)\s*$")


class MalformedFactError(ValueError):
    """Raised for text that is no atom, unknown predicates or arity mismatches."""


class Fact(NamedTuple):
    """An atomic geometric proposition over named points.

    A fact is a tuple equal to ``(pred, args)``: it hashes, compares and
    orders as that tuple, in C.  That order is the order of the facts'
    text: identifier characters are all >= '0', above ',' and ')', and no
    predicate name is a prefix of another.  Instances are plain records; use
    :func:`canonicalize` (or :func:`make_fact`) to obtain the canonical
    representative.
    """

    pred: str
    args: Tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.pred}({','.join(self.args)})"

    def points(self) -> frozenset:
        return frozenset(self.args)


class Predicate(NamedTuple):
    """One predicate's meaning.  :func:`_predicate` computes the first four
    fields from the generators of the symmetry group; the last four are given."""

    group: Tuple[Tuple[int, ...], ...]  # the symmetry group, sorted: identity first
    arity: int
    variants: Tuple[Callable, ...]  # an itemgetter per permutation of group
    lex: bool  # group is the whole symmetric group on the positions it moves
    canonical: Callable[[Tuple[str, ...]], Tuple[str, ...]]  # args -> min(orbit)
    tautology: Callable[[Tuple[str, ...]], bool]  # on canonical arguments
    degenerate: Callable[[Tuple[str, ...]], bool]  # on canonical arguments
    degenerate_pairs: Tuple[Tuple[int, int], ...]


def _never(a: Tuple[str, ...]) -> bool:
    return False


def _predicate(generators: List[Tuple[int, ...]], canonical, tautology=_never,
               degenerate=_never, degenerate_pairs=()) -> Predicate:
    """The record whose group the generators, index permutations, span; a
    verdict not given never holds."""
    group, size = {tuple(range(len(generators[0])))}, 0
    while len(group) > size:  # compose with the generators until nothing is new
        size = len(group)
        group |= {tuple(p[i] for i in g) for p in group for g in generators}
    moved = {i for p in group for i, j in enumerate(p) if i != j}
    perms = tuple(sorted(group))
    return Predicate(perms, len(perms[0]), tuple(operator.itemgetter(*p) for p in perms),
                     len(perms) == math.factorial(len(moved)),
                     canonical, tautology, degenerate, degenerate_pairs)


def _sort3(a: Tuple[str, ...]) -> Tuple[str, ...]:
    x, y, z = sorted(a)
    return (x, y, z)


def _sort4(a: Tuple[str, ...]) -> Tuple[str, ...]:
    w, x, y, z = sorted(a)
    return (w, x, y, z)


def _midp(a: Tuple[str, ...]) -> Tuple[str, ...]:
    m, x, y = a
    return (m, x, y) if x <= y else (m, y, x)


def _segments(a: Tuple[str, ...]) -> Tuple[str, ...]:
    w, x, y, z = a
    first, second = (w, x) if w <= x else (x, w), (y, z) if y <= z else (z, y)
    return first + second if first <= second else second + first


def _angles(a: Tuple[str, ...]) -> Tuple[str, ...]:
    p, q, r, s, t, u, v, w = a
    if q < p:
        p, q = q, p
    if s < r:
        r, s = s, r
    if u < t:
        t, u = u, t
    if w < v:
        v, w = w, v
    return (p, q, r, s, t, u, v, w) if (p, q, r, s) <= (t, u, v, w) else (t, u, v, w, p, q, r, s)


# predicate -> its record.  Symmetries: coll and cyclic are fully symmetric;
# midp swaps its endpoints; para/perp/cong flip each segment and swap the
# pair; eqangle flips each ray (lines are taken modulo orientation) and
# swaps its two angles.  The canonical form is min(orbit) in closed form,
# whose unpacking checks the arity: coll/cyclic sort all points and midp its
# endpoints; para/perp/cong/eqangle compare-swap each two-point block, then
# take the smaller of the two halves.  A degenerate pair (i, j) is two
# argument positions where one point makes the fact degenerate and never a
# tautology, whatever its other points are: any two points of a cyclic, and
# the two ends of a perp or eqangle side.  (A para's zero-length side is no
# such pair: para(A,A,A,A) is a tautology.)
PREDICATES: Dict[str, Predicate] = {
    "coll": _predicate([(1, 0, 2), (1, 2, 0)], _sort3, tautology=lambda a: len(set(a)) < 3),
    "para": _predicate([(1, 0, 2, 3), (2, 3, 0, 1)], _segments,
                       tautology=lambda a: a[0:2] == a[2:4],
                       degenerate=lambda a: a[0] == a[1] or a[2] == a[3]),
    "perp": _predicate([(1, 0, 2, 3), (2, 3, 0, 1)], _segments,
                       degenerate=lambda a: a[0] == a[1] or a[2] == a[3] or a[0:2] == a[2:4],
                       degenerate_pairs=((0, 1), (2, 3))),
    "midp": _predicate([(0, 2, 1)], _midp, tautology=lambda a: a[0] == a[1] == a[2]),
    "cong": _predicate([(1, 0, 2, 3), (2, 3, 0, 1)], _segments,
                       tautology=lambda a: a[0:2] == a[2:4] or (a[0] == a[1] and a[2] == a[3]),
                       degenerate=lambda a: (a[0] == a[1]) != (a[2] == a[3])),
    "cyclic": _predicate([(1, 0, 2, 3), (1, 2, 3, 0)], _sort4,
                         degenerate=lambda a: len(set(a)) < 4,
                         degenerate_pairs=tuple(itertools.combinations(range(4), 2))),
    # flip either ray of the first angle, swap the two angles
    "eqangle": _predicate([(1, 0, 2, 3, 4, 5, 6, 7), (0, 1, 3, 2, 4, 5, 6, 7),
                           (4, 5, 6, 7, 0, 1, 2, 3)], _angles,
                          tautology=lambda a: a[0:4] == a[4:8] and a[0] != a[1] and a[2] != a[3],
                          degenerate=lambda a: (a[0] == a[1] or a[2] == a[3]
                                                or a[4] == a[5] or a[6] == a[7]),
                          degenerate_pairs=((0, 1), (2, 3), (4, 5), (6, 7))),
}


def check_fact(fact: Fact) -> None:
    """Raise MalformedFactError unless the fact's predicate is known and
    takes as many arguments as the fact has."""
    if fact.pred not in PREDICATES:
        raise MalformedFactError(f"unknown predicate {fact.pred!r}")
    arity = PREDICATES[fact.pred].arity
    if len(fact.args) != arity:
        raise MalformedFactError(
            f"{fact.pred} expects {arity} arguments, got {len(fact.args)}"
        )


def orbit(fact: Fact) -> List[Tuple[str, ...]]:
    """Every argument tuple in the fact's symmetry class, repeats included,
    in the lexicographic order of their argument permutations (the record's
    ``group``): the order the engine's symmetry breaking relies on.  A
    malformed fact raises MalformedFactError."""
    record = PREDICATES.get(fact.pred)
    if record is None or len(fact.args) != record.arity:
        check_fact(fact)
    return [variant(fact.args) for variant in record.variants]


def canonicalize(fact: Fact) -> Fact:
    """Return the unique representative of the fact's symmetry class,
    ``min(orbit(fact))``, in closed form (docs/predicates.md)."""
    try:
        return Fact(fact.pred, PREDICATES[fact.pred].canonical(fact.args))
    except (KeyError, ValueError):  # an unknown predicate or a wrong arity
        check_fact(fact)
        raise


def make_fact(pred: str, *args: str) -> Fact:
    """Build a canonical fact from a predicate name and point names."""
    return canonicalize(Fact(pred, tuple(args)))


def parse_atom(text: str) -> Tuple[str, Tuple[str, ...]]:
    """Split ``pred(X1,...,Xn)`` into the predicate and the identifiers;
    the predicate and the arity are not checked."""
    m = _ATOM.match(text)
    if not m:
        raise MalformedFactError(f"cannot parse atom {text.strip()!r}")
    pred, argtext = m.groups()
    args = tuple(a.strip() for a in argtext.split(",")) if argtext else ()
    for a in args:
        if not IDENTIFIER.match(a):
            raise MalformedFactError(f"bad identifier {a!r} in {text.strip()!r}")
    return pred, args


def parse_fact(text: str) -> Fact:
    """Parse the textual form ``pred(P1,...,Pn)`` into a canonical fact."""
    pred, args = parse_atom(text)
    return make_fact(pred, *args)


def is_tautology(fact: Fact) -> bool:
    """True iff the fact holds under every assignment of coordinates.

    The fact is canonicalized first, so every argument order gets the same
    verdict, and a malformed fact raises MalformedFactError.  coll with a
    repeated point, midp of a point with itself, and cong/para/eqangle
    whose two sides coincide are tautologies; an eqangle only if it is not
    degenerate.  A cong whose both segments have zero length (e.g.
    cong(A,A,B,B)) also holds everywhere and is flagged here.
    Repeated-point cyclic, zero-length para/perp/eqangle sides and
    identical-sides perp (a line is never perpendicular to itself) are
    *degenerate*, not tautological (see :func:`is_degenerate`).
    """
    c = canonicalize(fact)
    return PREDICATES[c.pred].tautology(c.args)


def is_degenerate(fact: Fact) -> bool:
    """True for facts whose predicate loses meaning on these arguments: a
    cyclic with a repeated point, a para, perp or eqangle with a
    zero-length side, a perp with identical sides, and a cong with exactly
    one zero-length side, which asserts a point coincidence.  Like
    :func:`is_tautology`, it canonicalizes the fact first.

    Degeneracy is a third verdict next to tautology/ordinary so the
    engine can reject such conclusions instead of silently keeping them.
    """
    c = canonicalize(fact)
    return PREDICATES[c.pred].degenerate(c.args)
