"""Line-oriented DSL for geometric constructions and their hypothesis facts.

One statement per line; ``#`` starts a comment.  Each statement keyword is
one ``Statement`` record in ``STATEMENTS``, its arity and its hypothesis
facts, and README's "Construction language" table, which a test holds to
the records, lists every statement, the point it defines and its facts.
A statement defines its first point (``point`` all of its points), which
must be fresh; its other points must be defined on earlier lines.  Each
kind's geometry is its branch of the model sampler, ``numeric._sample_once``.
"""

from __future__ import annotations

import itertools
import re
from typing import Dict, List, NamedTuple, Optional, Tuple

from .facts import IDENTIFIER, Fact, make_fact


class Statement(NamedTuple):
    """One statement keyword's meaning."""

    arity: Optional[int]  # points after the keyword; None: any number, each a free point
    facts: Tuple[Tuple[str, Tuple[int, ...]], ...]  # (predicate, indexes into the step's args)


STATEMENTS: Dict[str, Statement] = {
    "point": Statement(None, ()),
    "on_line": Statement(3, (("coll", (0, 1, 2)),)),
    "on_circle": Statement(3, (("cong", (1, 0, 1, 2)),)),
    "midpoint": Statement(3, (("midp", (0, 1, 2)), ("coll", (0, 1, 2)),
                              ("cong", (0, 1, 0, 2)))),
    "intersect": Statement(5, (("coll", (0, 1, 2)), ("coll", (0, 3, 4)))),
    "foot": Statement(4, (("coll", (0, 2, 3)), ("perp", (1, 0, 2, 3)))),
    "circumcenter": Statement(4, (("cong", (0, 1, 0, 2)), ("cong", (0, 2, 0, 3)))),
}


_TOKEN = re.compile(r"\S+")


def _column(line: str, i: int) -> int:
    """The 1-based column of the i-th token of line, from where it matched."""
    return next(itertools.islice(_TOKEN.finditer(line), i, None)).start() + 1


class ConstructionError(ValueError):
    """Fatal parse/validation error with source position."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


class ConstructionStep(NamedTuple):
    kind: str  # the statement keyword, a key of STATEMENTS
    args: Tuple[str, ...]  # defined point first

    @property
    def defined(self) -> str:
        return self.args[0]

    def __str__(self) -> str:
        """The step as a DSL statement (``point A`` for a free point)."""
        return f"{self.kind} {' '.join(self.args)}"


class Construction(NamedTuple):
    steps: Tuple[ConstructionStep, ...]

    def points(self) -> List[str]:
        return [s.defined for s in self.steps]

    def source(self) -> str:
        """Re-emit the script (free points one per line)."""
        return "\n".join(str(s) for s in self.steps) + "\n"


def parse_construction(text: str) -> Construction:
    """Parse a construction script; raises ConstructionError on any defect."""
    steps: List[ConstructionStep] = []
    defined = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        kw, *args = line.split()
        if kw not in STATEMENTS:
            raise ConstructionError(f"unknown statement {kw!r}", lineno,
                                    _column(line, 0))
        for i, tok in enumerate(args, start=1):
            if not IDENTIFIER.match(tok):
                raise ConstructionError(f"bad identifier {tok!r}", lineno,
                                        _column(line, i))
        arity = STATEMENTS[kw].arity
        if arity is None and not args:
            raise ConstructionError("point statement needs at least one name",
                                    lineno)
        if arity is not None and len(args) != arity:
            raise ConstructionError(
                f"{kw} expects {arity} points, got {len(args)}", lineno)
        # a point statement defines all its names, any other its first
        names, refs = (args, []) if arity is None else (args[:1], args[1:])
        for i, name in enumerate(names, start=1):
            if name in defined:
                raise ConstructionError(f"{name} redefined", lineno,
                                        _column(line, i))
            defined.add(name)
        for i, ref in enumerate(refs, start=2):
            if ref not in defined or ref in names:  # nor the point it defines
                raise ConstructionError(f"{ref} undefined", lineno,
                                        _column(line, i))
        steps += [ConstructionStep(kw, (name, *refs)) for name in names]

    if sum(s.kind == "point" for s in steps) < 2:
        raise ConstructionError("construction needs at least two free points",
                                max(1, len(text.splitlines())))
    return Construction(tuple(steps))


def initial_facts(c: Construction) -> List[Fact]:
    """The distinct hypothesis facts encoded by the steps, in step order."""
    out: Dict[Fact, None] = {}  # an ordered set
    for kind, args in c.steps:
        for pred, indexes in STATEMENTS[kind].facts:
            out[make_fact(pred, *(args[i] for i in indexes))] = None
    return list(out)
