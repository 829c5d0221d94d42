"""Breadth-first forward chaining to a fixpoint, with derivation recording.

Each round applies every rule to the facts of the previous round,
canonicalizes the conclusions, drops tautologies / degenerate facts /
duplicates, and commits the survivors in canonical-form lexicographic
order.  The first derivation of a fact wins; later ones are ignored.
Both naive and semi-naive evaluation are provided and must agree.

Rules are matched by one indexed join.  At the start of a round every
fact's symmetry orbit is enumerated once.  For each premise slot, the
orbit variants of its candidate facts that fit the pattern (constants and
repeated variables agree) are indexed by their values at the positions
bound by earlier premises; binding a slot is then one dict lookup.  The
orbit table and the indexes are dropped when the round ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from .facts import (Fact, FactSet, canonicalize, is_degenerate, is_tautology,
                    orbit)
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
    """Append-only map from derived fact to its (unique) derivation."""

    def __init__(self) -> None:
        self.nodes: Dict[Fact, Derivation] = {}

    def add(self, d: Derivation) -> None:
        if d.fact in self.nodes:
            raise ValueError(f"second derivation for {d.fact}")
        self.nodes[d.fact] = d

    def __contains__(self, fact: Fact) -> bool:
        return fact in self.nodes

    def node(self, fact: Fact) -> Optional[Derivation]:
        return self.nodes.get(fact)

    def closure(self, fact: Fact) -> Set[Fact]:
        """fact plus every fact reachable through premises, leaves included."""
        out: Set[Fact] = set()
        stack = [fact]
        while stack:
            f = stack.pop()
            if f in out:
                continue
            out.add(f)
            d = self.nodes.get(f)
            if d is not None:
                stack.extend(d.premises)
        return out

    def ancestors(self, fact: Fact) -> Set[Fact]:
        """Derived facts (DAG nodes) in the ancestor closure, fact included."""
        return {f for f in self.closure(fact) if f in self.nodes}

    def leaf_ancestors(self, fact: Fact) -> Set[Fact]:
        """Hypothesis facts reachable from fact; {fact} if it is one."""
        return {f for f in self.closure(fact) if f not in self.nodes}


class _Slot(NamedTuple):
    """How one premise pattern meets the variables bound before it."""

    consts: Tuple[Tuple[int, str], ...]   # (position, point constant)
    repeats: Tuple[Tuple[int, int], ...]  # (position, first position of its variable)
    key_vars: Tuple[str, ...]             # variables bound by earlier premises
    key_pos: Tuple[int, ...]              # ... and their first positions
    new_vars: Tuple[str, ...]             # variables this premise binds
    new_pos: Tuple[int, ...]              # ... and their first positions


def _slots(rule: Rule) -> List[_Slot]:
    """Slot layouts in premise order; premise i sees the variables of 0..i-1."""
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
                           tuple(first[v] for v in new)))
        bound.update(first)
    return slots


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
    for f in facts:
        for v in orbits[f]:
            if (all(v[i] == c for i, c in slot.consts)
                    and all(v[i] == v[j] for i, j in slot.repeats)):
                key = tuple(v[i] for i in slot.key_pos)
                index.setdefault(key, []).append((f, v))
    return index


def _join(slots: List[_Slot], indexes: List[Dict[tuple, list]]):
    """Backtracking join over premise slots, one index lookup per slot;
    yields (binding, facts used)."""
    return _extend(slots, indexes, 0, {}, ())


def _extend(slots, indexes, i: int, binding: Dict[str, str],
            used: Tuple[Fact, ...]):
    # a module-level function, not a closure: a self-referencing closure
    # would keep the round's indexes alive until the cyclic GC runs
    if i == len(slots):
        yield binding, used
        return
    slot = slots[i]
    key = tuple(binding[var] for var in slot.key_vars)
    for fact, variant in indexes[i].get(key, ()):
        b = dict(binding)
        for var, pos in zip(slot.new_vars, slot.new_pos):
            b[var] = variant[pos]
        yield from _extend(slots, indexes, i + 1, b, used + (fact,))


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
    slot indexes by (predicate, part, slot shape) across calls.
    """
    slots = _slots(rule)
    for plan in plans:
        lists = [pools.get((p.pred, part), ())
                 for p, part in zip(rule.premises, plan)]
        if not all(lists):
            continue
        slot_indexes = []
        for slot, pattern, part, facts in zip(slots, rule.premises, plan, lists):
            key = (pattern.pred, part, slot.consts, slot.repeats,
                   slot.key_pos, slot.new_pos)
            if key not in indexes:
                indexes[key] = _index(slot, facts, orbits)
            slot_indexes.append(indexes[key])
        for binding, used in _join(slots, slot_indexes):
            if not _distinct_ok(rule, binding):
                continue
            concl = canonicalize(Fact(rule.conclusion.pred,
                                      _ground(rule.conclusion.args, binding)))
            yield binding, used, concl


def match_rule(rule: Rule, facts: FactSet) -> List[Dict[str, str]]:
    """All bindings satisfying the premises, deduplicated by canonical
    conclusion; symbolic distinct() conditions already enforced and
    tautological/degenerate conclusions dropped."""
    pools = {(pred, ALL): sorted(facts.by_pred(pred), key=str)
             for pred in {p.pred for p in rule.premises}}
    orbits = _orbit_table(f for pool in pools.values() for f in pool)
    out: Dict[Fact, Dict[str, str]] = {}
    plan = (ALL,) * len(rule.premises)
    for binding, _used, concl in _matches(rule, [plan], pools, orbits, {}):
        if is_tautology(concl) or is_degenerate(concl):
            continue
        out.setdefault(concl, binding)
    return [out[k] for k in sorted(out, key=str)]


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


def derive_round(facts: FactSet, dag: DerivationDag, rules: List[Rule],
                 round_index: int, strategy: str = "semi_naive",
                 strict_sides: bool = False):
    """Collect this round's new derivations plus drop counters.

    Returns (derivations sorted by canonical form, n_tautologies, n_degenerate),
    each derivation stamped with round_index; at most one per new fact: the
    least (rule, premises), the first one drawn among equals.
    """
    semi_naive = strategy != "naive" and round_index > 1
    usable = sorted(facts, key=str)
    if strict_sides:  # conditional facts serve as no premise
        usable = [f for f in usable
                  if dag.node(f) is None or not dag.node(f).conditional]
    pools: Dict[Tuple[str, str], List[Fact]] = {}
    for f in usable:
        pools.setdefault((f.pred, ALL), []).append(f)
        if semi_naive:
            gen = facts.generation(f)
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
        for binding, used, concl in _matches(rule, plans, pools, orbits, indexes):
            if concl in facts:
                continue
            if is_tautology(concl):
                n_taut += 1
                continue
            if is_degenerate(concl):
                n_degen += 1
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
    facts: FactSet
    dag: DerivationDag
    stop_reason: str  # fixpoint | budget
    rounds: int
    dropped_tautologies: int = 0
    dropped_degenerate: int = 0


def saturate(d0: FactSet, rules: List[Rule], max_rounds: int = 10,
             max_facts: int = 100000, strategy: str = "semi_naive",
             strict_sides: bool = False) -> SaturationResult:
    """Run forward chaining until a fixpoint or a budget is hit."""
    assert max_rounds > 0 and max_facts > 0
    facts = d0.copy()
    dag = DerivationDag()
    n_taut = n_degen = 0
    rounds = 0
    stop = "budget"
    for r in range(1, max_rounds + 1):
        new, t, g = derive_round(facts, dag, rules, r, strategy, strict_sides)
        n_taut += t
        n_degen += g
        if not new:
            stop = "fixpoint"
            rounds = r - 1
            break
        for d in new:
            facts.add(d.fact, r)
            dag.add(d)
        rounds = r
        if len(facts) >= max_facts:
            stop = "budget"
            break
    return SaturationResult(facts, dag, stop, rounds, n_taut, n_degen)
