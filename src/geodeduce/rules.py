"""Rule files: named implications from fact patterns to a conclusion.

Grammar (one rule per line, ``#`` starts a comment)::

    rule <name>: atom {, atom} {, side} => atom

A rule has 1 to MAX_PREMISES = 20 premises: the engine joins them in one
nested loop each, and CPython 3.10 to 3.12 allows 20 nested loops in one
function.
Atoms are ``pred(X,...)`` with uppercase identifiers as variables;
lowercase identifiers are point constants.  Side conditions are
``distinct(X,Y)``, ``non_collinear(X,Y,Z)`` and
``distinct_lines(X,Y,U,V)``: distinct is decided symbolically at match
time, at the join loop that binds the later of its two points; the other
two are attached to derived facts and checked by the numeric run-time
filter.

Every atom of a rule, premise, conclusion or side condition, is a
``facts.Fact`` over variable and constant names, kept as written: it is
never canonicalized, so ``str(rule)`` gives back its text.

A ``Rule`` is the parsed record and nothing more.  Its symmetries, swaps of
two variables that map it to an equivalent rule, are found by
``symmetries(rule)``, and a swap of two premises by ``mirrored_premises``;
``engine.compile_rule`` calls both once per rule.
"""

from __future__ import annotations

import itertools
import re
from typing import Dict, List, NamedTuple, Tuple

from .facts import IDENTIFIER, PREDICATES, Fact, MalformedFactError, orbit, parse_atom

MAX_PREMISES = 20  # CPython's limit on statically nested blocks (through 3.12)
SIDE_ARITIES = {"distinct": 2, "non_collinear": 3, "distinct_lines": 4}

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


class Rule(NamedTuple):
    name: str
    premises: Tuple[Fact, ...]
    conclusion: Fact
    side_conditions: Tuple[Fact, ...]

    @property
    def numeric_sides(self) -> Tuple[Fact, ...]:
        return tuple(s for s in self.side_conditions if s.pred != "distinct")

    def __str__(self) -> str:
        body = ", ".join([str(p) for p in self.premises]
                         + [str(s) for s in self.side_conditions])
        return f"rule {self.name}: {body} => {self.conclusion}"


def symmetries(rule: Rule) -> Tuple[Tuple[str, str], ...]:
    """Every swap (x y) of two premise variables, x named first, that maps
    each premise and the conclusion into its orbit and each side condition
    to an equivalent one, in itertools.combinations order."""
    atoms = rule.premises + (rule.conclusion,)
    variants = [set(orbit(p)) for p in atoms]
    # the side conditions' point sets: distinct_lines names two lines
    point_sets = [g for s in rule.side_conditions for g in
                  ((s.args[:2], s.args[2:]) if s.pred == "distinct_lines" else (s.args,))]
    names = dict.fromkeys(a for p in rule.premises for a in p.args if is_variable(a))
    found = []
    for x, y in itertools.combinations(names, 2):
        swap = {x: y, y: x}
        if (all(tuple(map(swap.get, p.args, p.args)) in v for p, v in zip(atoms, variants))
                and all({*map(swap.get, g, g)} == {*g} for g in point_sets)):
            found.append((x, y))
    return tuple(found)


def mirrored_premises(rule: Rule, pairs: Tuple[Tuple[str, str], ...] = ()) -> Tuple[int, ...]:
    """The first premise slots (i, j), i < j, that a variable involution s
    swaps up to orbit, or ().  s maps every other premise and the conclusion
    into its orbit, the distinct sides and the swaps (x y) of pairs onto
    themselves, and each point constant to itself."""
    atoms = rule.premises + (rule.conclusion,)
    variants = [set(orbit(p)) for p in atoms]
    distinct = {frozenset(s.args) for s in rule.side_conditions if s.pred == "distinct"}
    for i, j in itertools.combinations(range(len(rule.premises)), 2):
        if atoms[i].pred != atoms[j].pred:
            continue
        slot = {i: j, j: i}  # the atom each atom's image must be a variant of
        for image in variants[j]:
            s: Dict[str, str] = {}  # a -> s(a), built as an involution
            if not all((a == b or is_variable(a) and is_variable(b))
                       and s.setdefault(a, b) == b and s.setdefault(b, a) == a
                       for a, b in zip(atoms[i].args, image)):
                continue
            if (all(tuple(map(s.get, p.args, p.args)) in variants[slot.get(k, k)]
                    for k, p in enumerate(atoms))
                    and {frozenset(map(s.get, d, d)) for d in distinct} == distinct
                    and {tuple(map(s.get, p, p)) for p in pairs} == set(pairs)):
                return (i, j)
    return ()


def _parse_atom(text: str, lineno: int, sides: Dict[str, int], what: str) -> Fact:
    """One atom of a predicate of facts.PREDICATES or of sides, with its arity."""
    try:
        pred, args = parse_atom(text)
    except MalformedFactError as e:
        raise RuleParseError(str(e), lineno) from None
    arity = PREDICATES[pred].arity if pred in PREDICATES else sides.get(pred)
    if arity is None:
        raise RuleParseError(f"unknown {what} {pred!r}", lineno)
    if len(args) != arity:
        raise RuleParseError(f"{pred} expects {arity} arguments", lineno)
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
            atom = _parse_atom(atom_text, lineno, SIDE_ARITIES, "predicate")
            (sides if atom.pred in SIDE_ARITIES else premises).append(atom)
        if not premises:
            raise RuleParseError("rule needs at least one premise", lineno)
        if len(premises) > MAX_PREMISES:
            raise RuleParseError(f"rule has {len(premises)} premises, at most "
                                 f"{MAX_PREMISES} are allowed", lineno)

        conclusion = _parse_atom(concl_text, lineno, {}, "conclusion predicate")

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
