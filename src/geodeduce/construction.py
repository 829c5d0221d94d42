"""Line-oriented DSL for geometric constructions and their hypothesis facts.

Grammar (one statement per line, ``#`` starts a comment)::

    point A B ...                free points
    on_line P A B                P somewhere on line AB
    on_circle P O A              P on the circle centred at O through A
    midpoint M A B               M = midpoint of segment AB
    intersect P A B C D          P = intersection of lines AB and CD
    foot F P A B                 F = foot of the perpendicular from P to AB
    circumcenter O A B C         O = circumcentre of triangle ABC

Every argument after the defined point must refer to a previously
defined point, and the defined point must be fresh.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .facts import IDENTIFIER, Fact, make_fact

# statement keyword -> number of point arguments (None = variadic, for "point")
_STEP_ARITY = {
    "point": None,
    "on_line": 3,
    "on_circle": 3,
    "midpoint": 3,
    "intersect": 5,
    "foot": 4,
    "circumcenter": 4,
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


@dataclass(frozen=True)
class ConstructionStep:
    kind: str  # free_point | on_line | on_circle | midpoint | intersect | foot | circumcenter
    args: Tuple[str, ...]  # defined point first

    @property
    def defined(self) -> str:
        return self.args[0]

    def __str__(self) -> str:
        """The step as a DSL statement (``point A`` for a free point)."""
        kw = "point" if self.kind == "free_point" else self.kind
        return f"{kw} {' '.join(self.args)}"


@dataclass(frozen=True)
class Construction:
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
        tokens = line.split()
        kw = tokens[0]
        if kw not in _STEP_ARITY:
            raise ConstructionError(f"unknown statement {kw!r}", lineno,
                                    _column(line, 0))
        args = tokens[1:]
        for i, tok in enumerate(args, start=1):
            if not IDENTIFIER.match(tok):
                raise ConstructionError(f"bad identifier {tok!r}", lineno,
                                        _column(line, i))
        arity = _STEP_ARITY[kw]
        if arity is None:
            if not args:
                raise ConstructionError("point statement needs at least one name",
                                        lineno)
            for i, name in enumerate(args, start=1):
                if name in defined:
                    raise ConstructionError(f"{name} redefined", lineno,
                                            _column(line, i))
                defined.add(name)
                steps.append(ConstructionStep("free_point", (name,)))
            continue
        if len(args) != arity:
            raise ConstructionError(
                f"{kw} expects {arity} points, got {len(args)}", lineno)
        name, refs = args[0], args[1:]
        if name in defined:
            raise ConstructionError(f"{name} redefined", lineno, _column(line, 1))
        for i, ref in enumerate(refs, start=2):
            if ref not in defined:
                raise ConstructionError(f"{ref} undefined", lineno,
                                        _column(line, i))
        defined.add(name)
        steps.append(ConstructionStep(kw, tuple(args)))

    if sum(s.kind == "free_point" for s in steps) < 2:
        raise ConstructionError("construction needs at least two free points",
                                max(1, len(text.splitlines())))
    return Construction(tuple(steps))


def initial_facts(c: Construction) -> List[Fact]:
    """The distinct hypothesis facts encoded by the steps, in step order."""
    out: Dict[Fact, None] = {}  # an ordered set

    def put(pred: str, *args: str) -> None:
        out[make_fact(pred, *args)] = None

    for s in c.steps:
        a = s.args
        if s.kind == "on_line":
            put("coll", a[0], a[1], a[2])
        elif s.kind == "on_circle":
            put("cong", a[1], a[0], a[1], a[2])
        elif s.kind == "midpoint":
            put("midp", a[0], a[1], a[2])
            put("coll", a[0], a[1], a[2])
            put("cong", a[0], a[1], a[0], a[2])
        elif s.kind == "intersect":
            put("coll", a[0], a[1], a[2])
            put("coll", a[0], a[3], a[4])
        elif s.kind == "foot":
            put("coll", a[0], a[2], a[3])
            put("perp", a[1], a[0], a[2], a[3])
        elif s.kind == "circumcenter":
            put("cong", a[0], a[1], a[0], a[2])
            put("cong", a[0], a[2], a[0], a[3])
    return list(out)
