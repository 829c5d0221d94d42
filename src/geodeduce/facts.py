"""Ground geometric atoms: predicates, canonical forms, tautology/degeneracy tests.

A fact is a predicate applied to an ordered tuple of point names, e.g.
``coll(A,B,C)`` or ``eqangle(C,A,C,B,D,A,D,B)``.  Facts are stored only in
canonical form: the lexicographic minimum over the predicate's symmetry
orbit.  This makes set membership, hashing and fixpoint detection
well defined.
"""

from __future__ import annotations

import itertools
import re
from typing import Dict, Iterator, NamedTuple, Tuple

# predicate name -> arity
ARITIES: Dict[str, int] = {
    "coll": 3,
    "para": 4,
    "perp": 4,
    "midp": 3,
    "cong": 4,
    "cyclic": 4,
    "eqangle": 8,
}


# a point name, in facts, rules and constructions alike
IDENTIFIER = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")
_ATOM = re.compile(r"\s*([a-z_]+)\s*\(\s*([^()]*?)\s*\)\s*$")


class MalformedFactError(ValueError):
    """Raised for text that is no atom, unknown predicates or arity mismatches."""


class Fact(NamedTuple):
    """An atomic geometric proposition over named points.

    A fact is a tuple equal to ``(pred, args)``: it hashes, compares and
    orders as that tuple, in C.  Instances are plain records; use
    :func:`canonicalize` (or :func:`make_fact`) to obtain the canonical
    representative.
    """

    pred: str
    args: Tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.pred}({','.join(self.args)})"

    def points(self) -> frozenset:
        return frozenset(self.args)


def _check(pred: str, args: Tuple[str, ...]) -> None:
    if pred not in ARITIES:
        raise MalformedFactError(f"unknown predicate {pred!r}")
    if len(args) != ARITIES[pred]:
        raise MalformedFactError(
            f"{pred} expects {ARITIES[pred]} arguments, got {len(args)}"
        )


# predicates whose orbit lists the variants in lexicographic order
LEX_ORBITS = ("coll", "cyclic", "midp")


def orbit(fact: Fact) -> Iterator[Tuple[str, ...]]:
    """Yield every argument tuple in the fact's symmetry class.

    coll/cyclic are fully symmetric; midp fixes the midpoint and swaps the
    endpoints; para/perp/cong flip each segment and swap the segment pair;
    eqangle swaps its two angles and flips each ray (directed lines are
    taken modulo orientation).

    The engine's symmetry breaking relies on this order (from a canonical
    fact): coll/cyclic/midp variants come in lexicographic order, and of
    two variants that differ by flipping blocks, the one whose first
    flipped block is sorted comes first.
    """
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
    else:  # pragma: no cover - guarded by _check
        raise MalformedFactError(fact.pred)


def canonicalize(fact: Fact) -> Fact:
    """Return the unique representative of the fact's symmetry class.

    This is ``min(orbit(fact))``, computed in closed form.  coll/cyclic
    sort all points and midp its endpoints.  In para/perp/cong/eqangle
    every 2-point block (segment or ray) flips independently and the two
    halves swap, so the minimum sorts each block and then takes the
    smaller of the two half orders.
    """
    _check(fact.pred, fact.args)
    a = fact.args
    if fact.pred in ("coll", "cyclic"):
        args = tuple(sorted(a))
    elif fact.pred == "midp":
        args = (a[0],) + tuple(sorted(a[1:]))
    else:  # para, perp, cong (two segments), eqangle (two pairs of rays)
        blocks = [(x, y) if x <= y else (y, x) for x, y in zip(a[0::2], a[1::2])]
        half = len(blocks) // 2
        first, second = blocks[:half], blocks[half:]
        if second < first:
            first, second = second, first
        args = tuple(itertools.chain.from_iterable(first + second))
    return Fact(fact.pred, args)


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

    coll with a repeated point, midp of a point with itself, and
    cong/para/eqangle whose two sides coincide are tautologies.  A cong
    whose both segments have zero length (e.g. cong(A,A,B,B)) also holds
    everywhere and is flagged here.  Repeated-point cyclic, zero-length
    para/perp/eqangle sides and identical-sides perp (a line is never
    perpendicular to itself) are *degenerate*, not tautological
    (see :func:`is_degenerate`).
    """
    a = fact.args
    if fact.pred == "coll":
        return len(set(a)) < 3
    if fact.pred == "midp":
        return a[0] == a[1] == a[2]
    if fact.pred in ("para", "cong"):
        # a segment is parallel/congruent to itself; a line is never
        # perpendicular to itself, so identical-sides perp is degenerate
        if a[0:2] == a[2:4]:
            return True
        return fact.pred == "cong" and a[0] == a[1] and a[2] == a[3]
    if fact.pred == "eqangle":
        return a[0:4] == a[4:8] and not is_degenerate(fact)
    return False


def is_degenerate(fact: Fact) -> bool:
    """True for facts whose predicate loses meaning on these arguments.

    Degeneracy is a third verdict next to tautology/ordinary so the
    engine can reject such conclusions instead of silently keeping them.
    """
    a = fact.args
    if fact.pred == "cyclic":
        return len(set(a)) < 4
    if fact.pred == "para":
        return a[0] == a[1] or a[2] == a[3]
    if fact.pred == "perp":
        return a[0] == a[1] or a[2] == a[3] or a[0:2] == a[2:4]
    if fact.pred == "cong":
        # exactly one zero-length side asserts a point coincidence
        return (a[0] == a[1]) != (a[2] == a[3])
    if fact.pred == "eqangle":
        return any(a[i] == a[i + 1] for i in (0, 2, 4, 6))
    return False


def fact_symbols(fact: Fact) -> Tuple[Tuple[str, ...], frozenset]:
    """Symbol multiset (predicate + one symbol per argument position) and
    the set of distinct symbols."""
    multiset = (fact.pred,) + fact.args
    return multiset, frozenset(multiset)

