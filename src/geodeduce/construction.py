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

import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .facts import Fact, make_fact

_ID = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")

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
        return f"{self.kind} {' '.join(self.args)}"


@dataclass(frozen=True)
class Construction:
    steps: Tuple[ConstructionStep, ...]

    def points(self) -> List[str]:
        return [s.defined for s in self.steps]

    def source(self) -> str:
        """Re-emit the script (free points one per line)."""
        lines = []
        for s in self.steps:
            if s.kind == "free_point":
                lines.append(f"point {s.defined}")
            else:
                lines.append(f"{s.kind} {' '.join(s.args)}")
        return "\n".join(lines) + "\n"


def parse_construction(text: str) -> Construction:
    """Parse a construction script; raises ConstructionError on any defect."""
    steps: List[ConstructionStep] = []
    defined = set()
    free_count = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        tokens = line.split()
        kw = tokens[0]
        if kw not in _STEP_ARITY:
            raise ConstructionError(f"unknown statement {kw!r}", lineno,
                                    raw.index(kw) + 1)
        args = tokens[1:]
        for tok in args:
            if not _ID.match(tok):
                raise ConstructionError(f"bad identifier {tok!r}", lineno,
                                        raw.index(tok) + 1)
        arity = _STEP_ARITY[kw]
        if arity is None:
            if not args:
                raise ConstructionError("point statement needs at least one name",
                                        lineno)
            for name in args:
                if name in defined:
                    raise ConstructionError(f"{name} redefined", lineno,
                                            raw.index(name) + 1)
                defined.add(name)
                steps.append(ConstructionStep("free_point", (name,)))
                free_count += 1
            continue
        if len(args) != arity:
            raise ConstructionError(
                f"{kw} expects {arity} points, got {len(args)}", lineno)
        name, refs = args[0], args[1:]
        if name in defined:
            raise ConstructionError(f"{name} redefined", lineno,
                                    raw.index(name) + 1)
        for ref in refs:
            if ref not in defined:
                raise ConstructionError(f"{ref} undefined", lineno,
                                        raw.index(ref) + 1)
        defined.add(name)
        steps.append(ConstructionStep(kw, tuple(args)))

    if free_count < 2:
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
