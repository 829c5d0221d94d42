"""Breadth-first forward chaining to a fixpoint, with derivation recording.

Each round applies every rule to the facts of the previous round,
canonicalizes the conclusions, drops tautologies / degenerate facts /
duplicates, and commits the survivors in canonical-form lexicographic
order.  The first derivation of a fact wins; later ones are ignored.
Both naive and semi-naive evaluation are provided and must agree.  One
``DerivationDag`` holds every fact, hypotheses and derived facts alike.

Rules are matched by one indexed join, and ``derive_round`` is its one
entry.  At the start of a round every fact's symmetry orbit is enumerated
once.  For each premise slot, the orbit variants of its candidate facts
that fit the pattern (constants and repeated variables agree) are indexed
by their values at the positions bound by earlier premises; binding a
slot is then one dict lookup.  The orbit table and the indexes are
dropped when the round ends.

Each rule is compiled once (``compile_rule``): its slot layouts plus its
slot-preserving symmetries, disjoint variable swaps (x y) that map every
premise, the conclusion and each side condition to an equivalent one.  A
swapped binding uses the same facts and gives the same conclusion, so the
join keeps only the one it would draw first (symmetry-breaking predicates,
Crawford, Ginsberg, Luks & Roy 1996): the slot binding x and y admits only
variants with v[px] <= v[py].  A kept binding stands for 2**k bindings of
the full join, k the number of its swaps whose two points differ, and the
drop counters add that weight, so they still count full-join bindings.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple

from .facts import Fact, canonicalize, is_degenerate, is_tautology, orbit
from .rules import Rule, is_variable

# a grounded numeric side condition: (kind, point names)
GroundCondition = Tuple[str, Tuple[str, ...]]


@dataclass(frozen=True)
class Derivation:
    """How one derived fact was obtained."""

    fact: Fact
    rule: str
    premises: Tuple[Fact, ...]
    round: int
    # numeric side conditions accumulated along the whole derivation
    conditions: Tuple[GroundCondition, ...] = ()

    @property
    def conditional(self) -> bool:
        return bool(self.conditions)


class DerivationDag:
    """The append-only fact store: the hypotheses (round 0) and each derived
    fact with its one derivation.  ``in``, iteration (insertion order) and
    ``len`` cover every fact; f is derived iff ``node(f) is not None``."""

    def __init__(self, hypotheses: Iterable[Fact] = ()) -> None:
        # fact -> its derivation, None for a hypothesis
        self._node: Dict[Fact, Optional[Derivation]] = dict.fromkeys(hypotheses)

    def add(self, *derivations: Derivation) -> None:
        for d in derivations:
            if d.fact in self._node:
                raise ValueError(f"{d.fact} is already in the graph")
            self._node[d.fact] = d

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._node

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._node)

    def __len__(self) -> int:
        return len(self._node)

    def copy(self) -> "DerivationDag":
        out = DerivationDag()
        out._node = dict(self._node)
        return out

    def node(self, fact: Fact) -> Optional[Derivation]:
        return self._node.get(fact)

    def generation(self, fact: Fact) -> int:
        """0 for a hypothesis, else the round that derived the fact."""
        d = self._node[fact]
        return 0 if d is None else d.round

    def derivations(self) -> List[Derivation]:
        """The derived facts' derivations, in the order they were added."""
        return [d for d in self._node.values() if d is not None]

    def closure(self, fact: Fact) -> Set[Fact]:
        """fact plus every fact reachable through premises, leaves included."""
        out: Set[Fact] = set()
        stack = [fact]
        while stack:
            f = stack.pop()
            if f in out:
                continue
            out.add(f)
            d = self._node.get(f)
            if d is not None:
                stack.extend(d.premises)
        return out

    def ancestors(self, fact: Fact) -> Set[Fact]:
        """Derived facts in the ancestor closure, fact included."""
        return {f for f in self.closure(fact) if self._node.get(f) is not None}

    def leaf_ancestors(self, fact: Fact) -> Set[Fact]:
        """Hypothesis facts reachable from fact; {fact} if it is one."""
        return {f for f in self.closure(fact) if self._node.get(f) is None}


class _Slot(NamedTuple):
    """How one premise pattern meets the variables bound before it."""

    consts: Tuple[Tuple[int, str], ...]   # (position, point constant)
    repeats: Tuple[Tuple[int, int], ...]  # (position, first position of its variable)
    key_vars: Tuple[str, ...]             # variables bound by earlier premises
    key_pos: Tuple[int, ...]              # ... and their first positions
    new_vars: Tuple[str, ...]             # variables this premise binds
    new_pos: Tuple[int, ...]              # ... and their first positions
    lex: Tuple[Tuple[int, int], ...] = ()  # (px, py): admit v[px] <= v[py] only


def _slots(rule: Rule, pairs: Tuple[Tuple[str, str], ...] = ()) -> List[_Slot]:
    """Slot layouts in premise order; premise i sees the variables of 0..i-1.
    Each swap (x y) of pairs is tested in the slot that binds x: a swap's
    two variables share every premise, so that slot binds y too."""
    slots: List[_Slot] = []
    bound: Set[str] = set()
    for pattern in rule.premises:
        first: Dict[str, int] = {}
        consts, repeats = [], []
        for pos, arg in enumerate(pattern.args):
            if not is_variable(arg):
                consts.append((pos, arg))
            elif arg in first:
                repeats.append((pos, first[arg]))
            else:
                first[arg] = pos
        key = tuple(v for v in first if v in bound)
        new = tuple(v for v in first if v not in bound)
        slots.append(_Slot(tuple(consts), tuple(repeats), key,
                           tuple(first[v] for v in key), new,
                           tuple(first[v] for v in new),
                           tuple((first[x], first[y]) for x, y in pairs if x in new)))
        bound.update(first)
    return slots


class CompiledRule(NamedTuple):
    slots: Tuple[_Slot, ...]
    pairs: Tuple[Tuple[str, str], ...]  # the symmetry swaps (x y), x bound first


# predicates whose orbit (see facts.orbit) lists the variants in
# lexicographic order
_LEX_ORBITS = ("coll", "cyclic", "midp")


def _is_symmetry(rule: Rule, x: str, y: str) -> bool:
    """Whether swapping variables x and y (x bound first) maps the rule to
    itself, with the slot that binds them drawing the variant with
    v[px] <= v[py] before its swapped image."""
    swap = {x: y, y: x}

    def image(args: Tuple[str, ...]) -> Tuple[str, ...]:
        return tuple(swap.get(a, a) for a in args)

    for p in rule.premises + (rule.conclusion,):
        if canonicalize(Fact(p.pred, image(p.args))) != canonicalize(Fact(p.pred, p.args)):
            return False
    for side in rule.side_conditions:
        a, b = side.args, image(side.args)
        if side.kind in ("distinct", "non_collinear"):
            if set(a) != set(b):
                return False
        elif side.kind == "distinct_lines":
            if set(a[:2]) != set(b[:2]) or set(a[2:]) != set(b[2:]):
                return False
        else:
            return False
    # x and y are bound by the first premise naming them.  Outside the
    # lexicographic orbits, v[px] <= v[py] picks the first-drawn variant only
    # when the swap flips whole segments or rays, i.e. each two-point block
    # naming x or y is {x, y}.
    pattern = next(p for p in rule.premises if x in p.args)
    if pattern.pred in _LEX_ORBITS:
        return True
    return all({u, v} == {x, y} for u, v in zip(pattern.args[0::2], pattern.args[1::2])
               if {u, v} & {x, y})


@functools.lru_cache(maxsize=None)
def compile_rule(rule: Rule) -> CompiledRule:
    """The rule's slot layouts and its symmetry swaps, chosen greedily in
    variable order, each disjoint from those before it."""
    variables = list(dict.fromkeys(a for p in rule.premises for a in p.args
                                   if is_variable(a)))
    pairs: List[Tuple[str, str]] = []
    taken: Set[str] = set()
    for x, y in itertools.combinations(variables, 2):
        if x not in taken and y not in taken and _is_symmetry(rule, x, y):
            pairs.append((x, y))
            taken.update((x, y))
    return CompiledRule(tuple(_slots(rule, tuple(pairs))), tuple(pairs))


def _weight(pairs: Tuple[Tuple[str, str], ...], binding: Dict[str, str]) -> int:
    """How many full-join bindings a kept binding stands for."""
    return 1 << sum(binding[x] != binding[y] for x, y in pairs)


def _orbit_table(facts: Iterable[Fact]) -> Dict[Fact, Tuple[Tuple[str, ...], ...]]:
    """Each fact's symmetry orbit without repeats, in orbit order."""
    return {f: tuple(dict.fromkeys(orbit(f))) for f in facts}


def _index(slot: _Slot, facts: Iterable[Fact], orbits) -> Dict[tuple, list]:
    """Variants of facts that fit the slot's pattern, keyed by their values
    at the already-bound positions: key -> [(fact, variant)].

    Within one fact, a consistent variant and the binding it extends to
    correspond one to one, so the orbit's own deduplication is the only
    one needed.  Entries keep fact order, then orbit order.
    """
    index: Dict[tuple, list] = {}
    consts, repeats, lex, key_pos = slot.consts, slot.repeats, slot.lex, slot.key_pos
    for f in facts:
        for v in orbits[f]:
            # an empty test costs one truth check per variant
            if consts and not all(v[i] == c for i, c in consts):
                continue
            if repeats and not all(v[i] == v[j] for i, j in repeats):
                continue
            if lex and not all(v[i] <= v[j] for i, j in lex):
                continue
            index.setdefault(tuple(v[i] for i in key_pos), []).append((f, v))
    return index


def _join(slots: List[_Slot], indexes: List[Dict[tuple, list]], i: int = 0,
          binding: Optional[Dict[str, str]] = None, used: Tuple[Fact, ...] = ()):
    """Backtracking join over premise slots i.., one index lookup per slot;
    yields (binding, facts used)."""
    # a module-level function, not a closure: a self-referencing closure
    # would keep the round's indexes alive until the cyclic GC runs
    binding = {} if binding is None else binding
    if i == len(slots):
        yield binding, used
        return
    slot = slots[i]
    key = tuple(binding[var] for var in slot.key_vars)
    for fact, variant in indexes[i].get(key, ()):
        b = dict(binding)
        for var, pos in zip(slot.new_vars, slot.new_pos):
            b[var] = variant[pos]
        yield from _join(slots, indexes, i + 1, b, used + (fact,))


def _distinct_ok(rule: Rule, binding: Dict[str, str]) -> bool:
    for side in rule.side_conditions:
        if side.kind == "distinct":
            a, b = (binding.get(x, x) for x in side.args)
            if a == b:
                return False
    return True


def _ground(args: Tuple[str, ...], binding: Dict[str, str]) -> Tuple[str, ...]:
    return tuple(binding.get(a, a) for a in args)


# which part of a predicate's facts a premise slot draws from
ALL, OLD, DELTA = "all", "old", "delta"


def _matches(rule: Rule, plans: List[Tuple[str, ...]], pools, orbits, indexes):
    """Join the premises under each plan (one part per slot); yields
    (binding, facts used, canonical conclusion) with distinct() enforced.

    pools maps (predicate, part) to facts in string order; indexes caches
    slot indexes by (predicate, part, slot shape) across calls.  Only the
    first-drawn binding of each symmetry orbit is yielded.
    """
    slots = compile_rule(rule).slots
    for plan in plans:
        lists = [pools.get((p.pred, part), ())
                 for p, part in zip(rule.premises, plan)]
        if not all(lists):
            continue
        slot_indexes = []
        for slot, pattern, part, facts in zip(slots, rule.premises, plan, lists):
            key = (pattern.pred, part, slot.consts, slot.repeats,
                   slot.key_pos, slot.new_pos, slot.lex)
            if key not in indexes:
                indexes[key] = _index(slot, facts, orbits)
            slot_indexes.append(indexes[key])
        for binding, used in _join(slots, slot_indexes):
            if not _distinct_ok(rule, binding):
                continue
            concl = canonicalize(Fact(rule.conclusion.pred,
                                      _ground(rule.conclusion.args, binding)))
            yield binding, used, concl


def _conditions(rule: Rule, binding: Dict[str, str], used: Tuple[Fact, ...],
                dag: DerivationDag) -> Tuple[GroundCondition, ...]:
    """The rule's numeric side conditions plus those of the premises."""
    conds: List[GroundCondition] = [
        (s.kind, _ground(s.args, binding)) for s in rule.numeric_sides]
    for prem in used:
        d = dag.node(prem)
        if d is not None:
            conds.extend(d.conditions)
    return tuple(sorted(set(conds)))


def derive_round(dag: DerivationDag, rules: List[Rule], round_index: int,
                 strategy: str = "semi_naive", strict_sides: bool = False):
    """Collect this round's new derivations over dag's facts plus drop
    counters; dag is not changed.

    Returns (derivations sorted by canonical form, n_tautologies, n_degenerate),
    each derivation stamped with round_index; at most one per new fact: the
    least (rule, premises), the first one drawn among equals.  The counters
    count bindings of the full join: each kept binding adds its orbit size.
    """
    semi_naive = strategy != "naive" and round_index > 1
    usable = sorted(dag, key=str)
    if strict_sides:  # conditional facts serve as no premise
        usable = [f for f in usable
                  if dag.node(f) is None or not dag.node(f).conditional]
    pools: Dict[Tuple[str, str], List[Fact]] = {}
    for f in usable:
        pools.setdefault((f.pred, ALL), []).append(f)
        if semi_naive:
            gen = dag.generation(f)
            if gen < round_index - 1:
                pools.setdefault((f.pred, OLD), []).append(f)
            elif gen == round_index - 1:
                pools.setdefault((f.pred, DELTA), []).append(f)
    # orbits and slot indexes live for this round only
    orbits = _orbit_table(usable)
    indexes: Dict[tuple, Dict[tuple, list]] = {}

    # new fact -> (tie-break key, rule, binding, premises)
    best: Dict[Fact, tuple] = {}
    n_taut = n_degen = 0
    for rule in sorted(rules, key=lambda r: r.name):
        n = len(rule.premises)
        if semi_naive:
            # slot i drawn from the previous round's delta,
            # earlier slots from strictly older facts, later slots from all
            plans = [(OLD,) * i + (DELTA,) + (ALL,) * (n - i - 1)
                     for i in range(n)]
        else:
            plans = [(ALL,) * n]
        pairs = compile_rule(rule).pairs
        for binding, used, concl in _matches(rule, plans, pools, orbits, indexes):
            if concl in dag:
                continue
            if is_tautology(concl):
                n_taut += _weight(pairs, binding)
                continue
            if is_degenerate(concl):
                n_degen += _weight(pairs, binding)
                continue
            key = (rule.name, tuple(str(p) for p in used))
            cur = best.get(concl)
            if cur is None or key < cur[0]:
                best[concl] = (key, rule, binding, used)
    ordered = []
    for f in sorted(best, key=str):
        _key, rule, binding, used = best[f]
        ordered.append(Derivation(f, rule.name, used, round_index,
                                  _conditions(rule, binding, used, dag)))
    return ordered, n_taut, n_degen


@dataclass
class SaturationResult:
    dag: DerivationDag  # the hypotheses plus every derived fact
    stop_reason: str  # fixpoint | budget
    rounds: int
    dropped_tautologies: int = 0
    dropped_degenerate: int = 0


def saturate(hypotheses: Iterable[Fact], rules: List[Rule], max_rounds: int = 10,
             max_facts: int = 100000, strategy: str = "semi_naive",
             strict_sides: bool = False) -> SaturationResult:
    """Run forward chaining from the hypotheses until a fixpoint or a
    budget is hit."""
    if max_rounds < 1 or max_facts < 1:
        raise ValueError("max_rounds and max_facts must be at least 1")
    dag = DerivationDag(hypotheses)
    n_taut = n_degen = 0
    rounds = 0
    stop = "budget"
    for r in range(1, max_rounds + 1):
        new, t, g = derive_round(dag, rules, r, strategy, strict_sides)
        n_taut += t
        n_degen += g
        if not new:
            stop = "fixpoint"
            rounds = r - 1
            break
        dag.add(*new)
        rounds = r
        if len(dag) >= max_facts:
            stop = "budget"
            break
    return SaturationResult(dag, stop, rounds, n_taut, n_degen)
