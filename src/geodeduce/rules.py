"""Rule files: named implications from fact patterns to a conclusion.

Grammar (one rule per line, ``#`` starts a comment)::

    rule <name>: atom {, atom} {, side} => atom

Atoms are ``pred(X,...)`` with uppercase identifiers as variables;
lowercase identifiers are point constants.  Side conditions are
``distinct(X,Y)``, ``non_collinear(X,Y,Z)`` and
``distinct_lines(X,Y,U,V)``: distinct is decided symbolically at match
time, the other two are attached to derived facts and checked by the
numeric run-time filter.

Every atom of a rule, premise, conclusion or side condition, is a
``facts.Fact`` over variable and constant names, kept as written: it is
never canonicalized, so ``str(rule)`` gives back its text.

A rule's symmetries, swaps of two variables that map it to an equivalent
rule, are found once, when the rule is built (``Rule.symmetries``).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .facts import ARITIES, IDENTIFIER, Fact, MalformedFactError, orbit, parse_atom

SIDE_ARITIES = {"distinct": 2, "non_collinear": 3, "distinct_lines": 4}
_BODY_ARITIES = {**ARITIES, **SIDE_ARITIES}

_HEAD = re.compile(r"\s*rule\s+(\w+)\s*:\s*(.*)$")


class RuleParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def is_variable(token: str) -> bool:
    return token[0].isupper()


def variables(atom: Fact) -> set:
    """The variables an atom names."""
    return {a for a in atom.args if is_variable(a)}


@dataclass(frozen=True)
class Rule:
    name: str
    premises: Tuple[Fact, ...]
    conclusion: Fact
    side_conditions: Tuple[Fact, ...]
    # every swap (x y) of two premise variables, x named first, that maps each
    # premise and the conclusion into its orbit and each side condition to an
    # equivalent one, in itertools.combinations order
    symmetries: Tuple[Tuple[str, str], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "symmetries", tuple(_symmetries(self)))

    @property
    def numeric_sides(self) -> Tuple[Fact, ...]:
        return tuple(s for s in self.side_conditions if s.pred != "distinct")

    def __str__(self) -> str:
        body = ", ".join([str(p) for p in self.premises]
                         + [str(s) for s in self.side_conditions])
        return f"rule {self.name}: {body} => {self.conclusion}"


def _symmetries(rule: Rule):
    atoms = rule.premises + (rule.conclusion,)
    variants = [set(orbit(p)) for p in atoms]
    # the side conditions' point sets: distinct_lines names two lines
    point_sets = [g for s in rule.side_conditions for g in
                  ((s.args[:2], s.args[2:]) if s.pred == "distinct_lines" else (s.args,))]
    names = dict.fromkeys(a for p in rule.premises for a in p.args if is_variable(a))
    for x, y in itertools.combinations(names, 2):
        swap = {x: y, y: x}
        if (all(tuple(map(swap.get, p.args, p.args)) in v for p, v in zip(atoms, variants))
                and all({*map(swap.get, g, g)} == {*g} for g in point_sets)):
            yield x, y


def _parse_atom(text: str, lineno: int, arities: Dict[str, int], what: str) -> Fact:
    """One atom whose predicate is in arities, with that many arguments."""
    try:
        pred, args = parse_atom(text)
    except MalformedFactError as e:
        raise RuleParseError(str(e), lineno) from None
    if pred not in arities:
        raise RuleParseError(f"unknown {what} {pred!r}", lineno)
    if len(args) != arities[pred]:
        raise RuleParseError(f"{pred} expects {arities[pred]} arguments", lineno)
    return Fact(pred, args)


def _split_atoms(text: str) -> List[str]:
    """Split on commas that sit outside parentheses; once a comma is seen,
    an empty last part is kept, so a trailing comma is an error."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if parts or "".join(cur).strip():
        parts.append("".join(cur))
    return parts


def parse_rules(text: str) -> List[Rule]:
    """Parse a rule file; names must be unique, conclusions range-restricted."""
    rules: List[Rule] = []
    names = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _HEAD.match(line)
        if not m or not IDENTIFIER.match(m.group(1)):
            raise RuleParseError("expected 'rule <name>: ... => ...'", lineno)
        name, rest = m.group(1), m.group(2)
        if name in names:
            raise RuleParseError(f"duplicate rule name {name!r}", lineno)
        if "=>" not in rest:
            raise RuleParseError("missing '=>'", lineno)
        body_text, concl_text = rest.split("=>", 1)

        premises: List[Fact] = []
        sides: List[Fact] = []
        for atom_text in _split_atoms(body_text):
            atom = _parse_atom(atom_text, lineno, _BODY_ARITIES, "predicate")
            (sides if atom.pred in SIDE_ARITIES else premises).append(atom)
        if not premises:
            raise RuleParseError("rule needs at least one premise", lineno)

        conclusion = _parse_atom(concl_text, lineno, ARITIES, "conclusion predicate")

        bound = set().union(*map(variables, premises))
        for v in sorted(variables(conclusion) - bound):
            raise RuleParseError(f"variable {v} in conclusion not bound by premises",
                                 lineno)
        for s in sides:
            for v in sorted(variables(s) - bound):
                raise RuleParseError(
                    f"variable {v} in side condition not bound by premises", lineno)
            a = s.args  # never holds: a repeated point, or one line named twice
            if (({*a[2:]} <= {*a[:2]} or a[0] == a[1]) if s.pred == "distinct_lines"
                    else len({*a}) < len(a)):
                raise RuleParseError(f"side condition {s} can never hold", lineno)

        names.add(name)
        rules.append(Rule(name, tuple(premises), conclusion, tuple(sides)))
    return rules
