"""Ground geometric atoms: predicates, canonical forms, tautology/degeneracy tests.

A fact is a predicate applied to an ordered tuple of point names, e.g.
``coll(A,B,C)`` or ``eqangle(C,A,C,B,D,A,D,B)``.  Facts are stored only in
canonical form: the lexicographic minimum over the predicate's symmetry
orbit.  This makes set membership, hashing and fixpoint detection
well defined.  A rule's atoms use the same record over variable names,
as written (rules.py).  Canonical forms and verdicts are one closed form
per predicate, each table keyed by predicate; docs/predicates.md lists
every predicate's arity, symmetries, canonical form and verdicts.
"""

from __future__ import annotations

import itertools
import operator
import re
from typing import Dict, List, NamedTuple, Tuple

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


def _check(pred: str, args: Tuple[str, ...]) -> None:
    if pred not in ARITIES:
        raise MalformedFactError(f"unknown predicate {pred!r}")
    if len(args) != ARITIES[pred]:
        raise MalformedFactError(
            f"{pred} expects {ARITIES[pred]} arguments, got {len(args)}"
        )


# predicates whose orbit lists the variants in lexicographic order
LEX_ORBITS = ("coll", "cyclic", "midp")


def _block_perms(n_blocks: int) -> List[Tuple[int, ...]]:
    """Flip any subset of the two-point blocks, then keep or swap the halves."""
    half, perms = n_blocks // 2, []
    for flips in itertools.product((0, 1), repeat=n_blocks):
        blocks = [(2 * i + f, 2 * i + 1 - f) for i, f in enumerate(flips)]
        perms += (sum(blocks, ()), sum(blocks[half:] + blocks[:half], ()))
    return perms


# predicate -> its symmetry group: index permutations in lexicographic order.
# coll/cyclic are fully symmetric; midp swaps its endpoints; para/perp/cong
# flip each segment and swap the pair; eqangle flips each ray (lines are
# taken modulo orientation) and swaps its two angles.
SYMMETRIES: Dict[str, Tuple[Tuple[int, ...], ...]] = {
    pred: tuple(sorted(perms)) for pred, perms in {
        "coll": itertools.permutations(range(3)),
        "cyclic": itertools.permutations(range(4)),
        "midp": [(0, 1, 2), (0, 2, 1)],
        **dict.fromkeys(("para", "perp", "cong"), _block_perms(2)),
        "eqangle": _block_perms(4)}.items()}
_VARIANTS = {pred: [operator.itemgetter(*p) for p in perms]
             for pred, perms in SYMMETRIES.items()}


def orbit(fact: Fact) -> List[Tuple[str, ...]]:
    """Every argument tuple in the fact's symmetry class, repeats included,
    in the lexicographic order of their argument permutations
    (``SYMMETRIES``): the order the engine's symmetry breaking relies on."""
    return [variant(fact.args) for variant in _VARIANTS[fact.pred]]


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


# predicate -> min(orbit) in closed form, whose unpacking checks the arity:
# coll/cyclic sort all points and midp its endpoints; para/perp/cong/eqangle
# compare-swap each two-point block, then take the smaller of the two halves
_CANONICAL = {"coll": _sort3, "cyclic": _sort4, "midp": _midp, "para": _segments,
              "perp": _segments, "cong": _segments, "eqangle": _angles}


def canonicalize(fact: Fact) -> Fact:
    """Return the unique representative of the fact's symmetry class,
    ``min(orbit(fact))``, in closed form (docs/predicates.md)."""
    try:
        return Fact(fact.pred, _CANONICAL[fact.pred](fact.args))
    except (KeyError, ValueError):  # an unknown predicate or a wrong arity
        _check(fact.pred, fact.args)
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


def _never(a: Tuple[str, ...]) -> bool:
    return False


# predicate -> whether a canonical fact's arguments make it a tautology
_TAUTOLOGY = {
    "coll": lambda a: len(set(a)) < 3,
    "midp": lambda a: a[0] == a[1] == a[2],
    "para": lambda a: a[0:2] == a[2:4],
    "perp": _never,
    "cong": lambda a: a[0:2] == a[2:4] or (a[0] == a[1] and a[2] == a[3]),
    "cyclic": _never,
    "eqangle": lambda a: a[0:4] == a[4:8] and a[0] != a[1] and a[2] != a[3],
}
# predicate -> whether a canonical fact's arguments make it degenerate
_DEGENERATE = {
    "coll": _never,
    "midp": _never,
    "para": lambda a: a[0] == a[1] or a[2] == a[3],
    "perp": lambda a: a[0] == a[1] or a[2] == a[3] or a[0:2] == a[2:4],
    "cong": lambda a: (a[0] == a[1]) != (a[2] == a[3]),
    "cyclic": lambda a: len(set(a)) < 4,
    "eqangle": lambda a: a[0] == a[1] or a[2] == a[3] or a[4] == a[5] or a[6] == a[7],
}


def is_tautology(fact: Fact) -> bool:
    """True iff the canonical fact holds under every assignment of coordinates.

    coll with a repeated point, midp of a point with itself, and
    cong/para/eqangle whose two sides coincide are tautologies; an eqangle
    only if it is not degenerate.  A cong whose both segments have zero
    length (e.g. cong(A,A,B,B)) also holds everywhere and is flagged here.
    Repeated-point cyclic, zero-length para/perp/eqangle sides and
    identical-sides perp (a line is never perpendicular to itself) are
    *degenerate*, not tautological (see :func:`is_degenerate`).
    """
    return _TAUTOLOGY[fact.pred](fact.args)


def is_degenerate(fact: Fact) -> bool:
    """True for canonical facts whose predicate loses meaning on these
    arguments: a cyclic with a repeated point, a para, perp or eqangle
    with a zero-length side, a perp with identical sides, and a cong with
    exactly one zero-length side, which asserts a point coincidence.

    Degeneracy is a third verdict next to tautology/ordinary so the
    engine can reject such conclusions instead of silently keeping them.
    """
    return _DEGENERATE[fact.pred](fact.args)


# predicate -> pairs (i, j) of argument positions: a fact with one point at
# both is degenerate and never a tautology, whatever its other points are.
# Any two points of a cyclic, and the two ends of a perp or eqangle side.
# (A para's zero-length side is no such pair: para(A,A,A,A) is a tautology.)
DEGENERATE_PAIRS: Dict[str, Tuple[Tuple[int, int], ...]] = {
    "cyclic": tuple(itertools.combinations(range(4), 2)),
    "perp": ((0, 1), (2, 3)),
    "eqangle": ((0, 1), (2, 3), (4, 5), (6, 7)),
}

