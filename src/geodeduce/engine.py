"""Breadth-first forward chaining to a fixpoint, with derivation recording.

Each round applies every rule to the graph's facts, canonicalizes the
conclusions, drops tautologies / degenerate facts / duplicates, and
commits the survivors in canonical-form lexicographic order.  The first
derivation of a fact wins; later ones are ignored.  One ``DerivationDag``
holds every fact, each with one ``Derivation`` record: a hypothesis's has
no rule, no premises and round 0.  The graph enforces round order, and
``derive_round`` stamps the round after its last.  Naive and semi-naive
evaluation must agree; semi-naive joins the last round's facts with
strictly older ones (Bancilhon & Ramakrishnan 1986).

Rules are matched by one indexed join, and ``derive_round`` is its one
entry.  A binding is a tuple: the rule's point constants, then its
variables in the order the premise slots bind them.  For each premise
slot, the orbit variants of its candidate facts that fit the pattern
(constants and repeated variables agree) are indexed by their values at
the positions bound by earlier premises; an entry holds the fact and the
values it gives the slot's new variables.  The join extends the list of
partial bindings one slot at a time, one dict lookup and one tuple
concatenation per binding, which keeps the depth-first order of a
backtracking walk.

The loop that grows the graph (``saturate``, and the filtered loop of
``pipeline.run_pipeline``) builds one ``JoinState`` per run, holding all
that is fixed for it and only the rules that can fire; ``derive_round``
takes only the state.  The graph is append-only and grows one round at a
time, so each round takes in the last round's facts only: their symmetry
orbits are added to the known variants of their predicate, and the facts
are indexed in every slot of that predicate.  A slot's index over the
older facts is the one the last round left, and its index over all facts
appends the last round's entries to each key, sharing every list it leaves
alone.  Entries keep the order a rebuild would give them: graph order,
then orbit order.  A conclusion whose arguments are a known variant is a
fact the graph holds (it lies in that fact's orbit), so it is dropped
before it is canonicalized.

What depends on the rules alone is memoized once per process, with a fixed
bound.  ``compile_rule`` makes all that ``derive_round`` reads: names,
predicates, binding positions and the symmetries the join breaks, disjoint
variable swaps (x y) from ``Rule.symmetries``.  A swapped binding uses the
same facts and gives the same conclusion, so the join keeps only the one
it would draw first (symmetry-breaking predicates, Crawford, Ginsberg,
Luks & Roy 1996): the slot binding x and y admits only variants with
v[px] <= v[py].  A ``distinct`` side is tested in a slot too if one
premise names both its variables.  These tests read only a fact's shape,
its arguments as ranks among its points, so ``_admitted`` runs them once
per slot and shape, as Rete's alpha memories do (Forgy 1982); indexing a
fact compares only point constants.  A kept binding stands for 2**k
bindings of the full join, k the number of its swaps whose two points
differ, and the drop counters add that weight, so they still count
full-join bindings.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import (Callable, Dict, FrozenSet, Iterable, Iterator, List, NamedTuple,
                    Optional, Set, Tuple)

from .facts import (LEX_ORBITS, SYMMETRIES, Fact, canonicalize, is_degenerate,
                    is_tautology, orbit)
from .rules import Rule, is_variable


@dataclass(frozen=True)
class Derivation:
    """How one fact entered the graph; rule is None for a hypothesis."""

    fact: Fact
    rule: Optional[str]
    premises: Tuple[Fact, ...]
    round: int
    # the grounded numeric side conditions of the whole derivation, sorted
    conditions: Tuple[Fact, ...] = ()

    @property
    def conditional(self) -> bool:
        return bool(self.conditions)


class DerivationDag:
    """The append-only fact store: every fact with its one record, the
    hypotheses' first.  ``in``, iteration (insertion order) and ``len``
    cover every fact; f is derived iff ``node(f).rule is not None``, and a
    fact the graph lacks raises KeyError.  A fact enters after its premises,
    which fix its closure, stored then; its round is at least 1, at least
    the round added last and above each of its premises'."""

    def __init__(self, hypotheses: Iterable[Fact] = ()) -> None:
        self._node: Dict[Fact, Derivation] = {
            h: Derivation(h, None, (), 0) for h in hypotheses}
        self._hypotheses = frozenset(self._node)
        self._closure = {h: frozenset((h,)) for h in self._node}  # fact -> closure(fact)
        self._rounds = 0

    @property
    def rounds(self) -> int:
        """The round of the fact added last; 0 for hypotheses only."""
        return self._rounds

    def add(self, *derivations: Derivation) -> None:
        for d in derivations:
            if d.fact in self._node:
                raise ValueError(f"{d.fact} is already in the graph")
            missing = [p for p in d.premises if p not in self._node]
            if missing:
                raise ValueError(f"premise {missing[0]} of {d.fact} is not in the graph")
            least = max([self._rounds, 1] + [self._node[p].round + 1 for p in d.premises])
            if d.round < least:
                raise ValueError(f"round {d.round} of {d.fact} is below round {least}")
            self._rounds = d.round
            self._node[d.fact] = d
            self._closure[d.fact] = frozenset((d.fact,)).union(
                *map(self._closure.__getitem__, d.premises))

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._node

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._node)

    def __len__(self) -> int:
        return len(self._node)

    def copy(self) -> "DerivationDag":
        out = DerivationDag()
        out._node = dict(self._node)
        out._hypotheses = self._hypotheses
        out._closure = dict(self._closure)
        out._rounds = self._rounds
        return out

    def node(self, fact: Fact) -> Derivation:
        return self._node[fact]

    def derivations(self) -> List[Derivation]:
        """The derived facts' derivations, in the order they were added."""
        return [d for d in self._node.values() if d.rule is not None]

    def closure(self, fact: Fact) -> FrozenSet[Fact]:
        """fact plus every fact reachable through premises, leaves included."""
        return self._closure[fact]

    def ancestors(self, fact: Fact) -> FrozenSet[Fact]:
        """Derived facts in the ancestor closure, fact included."""
        return self._closure[fact] - self._hypotheses

    def leaf_ancestors(self, fact: Fact) -> FrozenSet[Fact]:
        """Hypothesis facts reachable from fact; {fact} if it is one."""
        return self._closure[fact] & self._hypotheses


def _getter(positions: Tuple[int, ...]) -> Callable[[tuple], tuple]:
    """An itemgetter for positions that always returns a tuple, so that
    index keys and join keys have the same shape."""
    if len(positions) == 1:  # itemgetter(i) would return the bare value
        return operator.itemgetter(slice(positions[0], positions[0] + 1))
    return operator.itemgetter(*positions) if positions else lambda t: ()


# which part of a predicate's facts a premise slot draws from
ALL, OLD, DELTA = "all", "old", "delta"


class _Slot(NamedTuple):
    """How one premise meets the variables bound before it.  Plain data, so
    that slots of one shape share one index in a round."""

    pred: str                             # the premise's predicate
    consts: Tuple[Tuple[int, str], ...]   # (position, point constant)
    repeats: Tuple[Tuple[int, int], ...]  # (position, first position of its variable)
    key_pos: Tuple[int, ...]              # first positions of variables bound before
    new_pos: Tuple[int, ...]              # first positions of variables bound here
    lex: Tuple[Tuple[int, int], ...] = ()  # (px, py): admit v[px] <= v[py] only
    distinct: Tuple[Tuple[int, int], ...] = ()  # (p, q): admit v[p] != v[q] only


class CompiledRule(NamedTuple):
    name: str
    pred: str                           # the conclusion's predicate
    slots: Tuple[_Slot, ...]
    keys: Tuple[Callable[[tuple], tuple], ...]  # per slot: binding -> its key_pos values
    plans: Tuple[Tuple[str, ...], ...]  # semi-naive plans: one part of the facts per slot
    pairs: Tuple[Tuple[str, str], ...]  # the symmetry swaps (x y), x bound first
    names: Tuple[str, ...]              # the point at each binding position
    consts: Tuple[str, ...]             # the binding's prefix: the rule's constants
    swaps: Tuple[Tuple[int, int], ...]     # pairs as binding positions
    distinct: Tuple[Tuple[int, int], ...]  # distinct sides no slot tests, as binding positions
    conclusion: Callable[[tuple], tuple]   # binding -> the conclusion's arguments
    # numeric side conditions: (predicate, binding -> their points)
    numeric: Tuple[Tuple[str, Callable[[tuple], tuple]], ...]


def _compile(rule: Rule, pairs: Tuple[Tuple[str, str], ...] = ()) -> CompiledRule:
    """Slot layouts in premise order; premise i sees the variables of 0..i-1.
    Binding positions number the rule's point constants, then its variables
    in the order the slots bind them.  Each swap (x y) of pairs is tested
    in the slot that binds x: a swap's two variables share every premise,
    so that slot binds y too.  A distinct side is tested in the first slot
    that names both its variables."""
    atoms = rule.premises + (rule.conclusion,) + rule.side_conditions
    sides = [s.args for s in rule.side_conditions if s.pred == "distinct"]
    consts = tuple(dict.fromkeys(a for p in atoms for a in p.args if not is_variable(a)))
    at = {c: i for i, c in enumerate(consts)}  # point -> binding position
    slots: List[_Slot] = []
    keys = []
    for pattern in rule.premises:
        first: Dict[str, int] = {}
        fixed, repeats = [], []
        for pos, arg in enumerate(pattern.args):
            if not is_variable(arg):
                fixed.append((pos, arg))
            elif arg in first:
                repeats.append((pos, first[arg]))
            else:
                first[arg] = pos
        key = [v for v in first if v in at]
        new = [v for v in first if v not in at]
        inside = [(x, y) for x, y in sides if x in first and y in first]
        sides = [side for side in sides if side not in inside]
        slots.append(_Slot(pattern.pred, tuple(fixed), tuple(repeats),
                           tuple(first[v] for v in key), tuple(first[v] for v in new),
                           tuple((first[x], first[y]) for x, y in pairs if x in new),
                           tuple((first[x], first[y]) for x, y in inside)))
        keys.append(_getter(tuple(at[v] for v in key)))
        for v in new:
            at[v] = len(at)
    n = len(slots)  # plan i: slot i from the last round's facts, earlier ones older
    plans = tuple((OLD,) * i + (DELTA,) + (ALL,) * (n - i - 1) for i in range(n))
    return CompiledRule(rule.name, rule.conclusion.pred, tuple(slots), tuple(keys), plans,
                        pairs, tuple(at), consts, tuple((at[x], at[y]) for x, y in pairs),
                        tuple((at[a], at[b]) for a, b in sides),
                        _getter(tuple(at[a] for a in rule.conclusion.args)),
                        tuple((s.pred, _getter(tuple(at[a] for a in s.args)))
                              for s in rule.numeric_sides))


def _breaks(rule: Rule, x: str, y: str) -> bool:
    """Whether the slot binding the symmetry (x y), the first premise that
    names x, draws the variant with v[px] <= v[py] before its swapped image.
    Outside the lexicographic orbits only a swap of whole segments or rays
    does: each two-point block naming x or y is {x, y}."""
    pattern = next(p for p in rule.premises if x in p.args)
    return pattern.pred in LEX_ORBITS or all(
        {u, v} == {x, y} for u, v in zip(pattern.args[0::2], pattern.args[1::2])
        if {u, v} & {x, y})


@functools.lru_cache(maxsize=256)
def compile_rule(rule: Rule) -> CompiledRule:
    """The rule's slot layouts and the symmetries its join breaks, chosen
    greedily in the order of ``rule.symmetries``, each disjoint from those
    before it; memoized, as it depends on the rule alone."""
    pairs: List[Tuple[str, str]] = []
    taken: Set[str] = set()
    for x, y in rule.symmetries:
        if x not in taken and y not in taken and _breaks(rule, x, y):
            pairs.append((x, y))
            taken.update((x, y))
    return _compile(rule, tuple(pairs))


@functools.lru_cache(maxsize=4096)
def _admitted(slot: _Slot, shape: Tuple[int, ...]) -> Tuple[Tuple[Callable, ...], ...]:
    """The orbit permutations whose variant of a fact of this shape passes the
    slot's repeat, lex and distinct tests, in orbit order and the first of
    equal variants only, each as getters of the fact's arguments at the
    variant's constant, key and new positions."""
    tests = ([(operator.eq, p, q) for p, q in slot.repeats]
             + [(operator.le, p, q) for p, q in slot.lex]
             + [(operator.ne, p, q) for p, q in slot.distinct])
    at = [i for i, _ in slot.consts]
    out, seen = [], set()
    for perm in SYMMETRIES[slot.pred]:
        v = operator.itemgetter(*perm)(shape)
        if v not in seen and all([test(v[p], v[q]) for test, p, q in tests]):
            out.append(tuple(_getter(tuple(map(perm.__getitem__, pos)))
                             for pos in (at, slot.key_pos, slot.new_pos)))
        seen.add(v)
    return tuple(out)


def _index(slot: _Slot, facts: Iterable[Fact]) -> Dict[tuple, list]:
    """Variants of facts that fit the slot's pattern, keyed by their values
    at the already-bound positions: key -> [(fact, values of the new
    variables)].

    Within one fact, a consistent variant and the binding it extends to
    correspond one to one, so dropping equal variants is the only
    deduplication needed.  Entries keep the order of facts, then orbit order.
    """
    index: Dict[tuple, list] = {}
    want = tuple(c for _, c in slot.consts)
    for f in facts:
        args = f.args  # its shape: each argument's rank among its points
        for at, key, new in _admitted(slot, tuple(map(sorted(set(args)).index, args))):
            if want and at(args) != want:
                continue
            index.setdefault(key(args), []).append((f, new(args)))
    return index


def _extend(index: Dict[tuple, list], more: Dict[tuple, list]) -> Dict[tuple, list]:
    """index with more's entries after its own under each key.  Neither is
    changed, and the result shares every list it does not lengthen."""
    if not index or not more:
        return index or more
    out = dict(index)
    for key, entries in more.items():
        old = out.get(key)
        out[key] = old + entries if old else entries
    return out


class JoinState:
    """One run of the join: the graph, grown by the state's derivations only,
    the predicates it can reach, the compiled rules that can fire, the
    strategy and ``strict_sides``, and what it keeps across rounds: the known
    variants of every graph fact by predicate, and per slot of the rules its
    index over every usable fact taken in, in graph order."""

    def __init__(self, dag: DerivationDag, rules: Iterable[Rule],
                 strategy: str = "semi_naive", strict_sides: bool = False) -> None:
        if strategy not in ("naive", "semi_naive"):
            raise ValueError(f"unknown strategy {strategy!r}")
        if not isinstance(strict_sides, bool):  # "no" would run strict
            raise ValueError(f"strict_sides must be a bool, got {strict_sides!r}")
        self.dag = dag
        rules = [compile_rule(rule) for rule in rules]
        self.preds, n = {f.pred for f in dag}, -1
        while n < len(self.preds):  # close the graph's predicates under the conclusions
            n = len(self.preds)
            self.preds.update(r.pred for r in rules
                              if all(s.pred in self.preds for s in r.slots))
        self.rules = [r for r in rules if all(s.pred in self.preds for s in r.slots)]
        self.strategy = strategy
        self.strict_sides = strict_sides
        self.rounds = -1  # the graph's last round at the last call
        self.taken = 0  # graph facts taken in, a prefix of graph order
        self.known: Dict[str, Set[Tuple[str, ...]]] = {}
        self.indexes: Dict[_Slot, Dict[tuple, list]] = {
            slot: {} for rule in self.rules for slot in rule.slots}

    def take_in(self) -> Dict[_Slot, Dict[str, Dict[tuple, list]]]:
        """Take in the graph facts added since the last call and index them
        in every slot of their predicate; returns each slot's OLD, DELTA and
        ALL index.  DELTA holds the facts of the graph's last round."""
        dag = self.dag
        if dag.rounds <= self.rounds:  # the stored indexes would hold DELTA facts
            raise ValueError(f"the graph gained no round since round {self.rounds}")
        self.rounds = dag.rounds
        new = list(itertools.islice(dag, self.taken, None))
        self.taken = len(dag)
        for f in new:
            self.known.setdefault(f.pred, set()).update(orbit(f))
        if not self.preds.issuperset(self.known):  # a rule left out could fire
            raise ValueError("the graph gained a fact that no rule of the state concludes")
        groups: Dict[Tuple[str, str], List[Fact]] = {}  # (part, predicate) -> usable facts
        for f in new:
            d = dag.node(f)
            if not (self.strict_sides and d.conditional):  # conditional facts serve as no premise
                groups.setdefault((DELTA if d.round == dag.rounds else OLD, f.pred),
                                  []).append(f)
        views = {}
        for slot, old in self.indexes.items():
            older, delta = groups.get((OLD, slot.pred)), groups.get((DELTA, slot.pred))
            if older:
                old = _extend(old, _index(slot, older))
            delta = _index(slot, delta) if delta else {}
            self.indexes[slot] = full = _extend(old, delta)
            views[slot] = {OLD: old, DELTA: delta, ALL: full}
        return views


def _join(rule: CompiledRule, indexes: List[Dict[tuple, list]]) -> List[tuple]:
    """Every (binding, facts used) of the rule over the slot indexes, in the
    order of a depth-first walk: the partial bindings are extended one
    slot at a time, each in place of the one it extends."""
    rows = [(rule.consts, ())]
    for key, index in zip(rule.keys, indexes):
        get = index.get
        rows = [(b + new, used + (f,))
                for b, used in rows for f, new in get(key(b), ())]
    return rows


def derive_round(state: JoinState):
    """Collect the next round over the state's graph: its new derivations
    plus drop counters; the graph is not changed.

    Returns (derivations sorted by canonical form, n_tautologies, n_degenerate),
    each derivation stamped with round ``dag.rounds + 1``; at most one per
    new fact: the least (rule name, premises), the first one drawn among
    equals, which orbit order alone decides.  So the result depends on
    neither the order of rules (their names are unique) nor graph order.
    The counters count bindings of the full join: each kept binding adds
    its orbit size.

    Semi-naive evaluation joins each rule under every plan: one slot over
    DELTA, the facts of round ``dag.rounds``, the slots before it over OLD,
    and those after over ALL; naive joins every slot over ALL.  Slots of
    one shape share their indexes, and a plan with an empty one is skipped.
    The state carries the indexes from its last call, whose graph has since
    gained one round; a fresh state takes in the whole graph, and the
    result is the same.
    """
    dag = state.dag
    views = state.take_in()

    # new fact -> ((rule name, premises), rule, binding)
    best: Dict[Fact, tuple] = {}
    n_taut = n_degen = 0
    for rule in state.rules:
        plans = rule.plans if state.strategy == "semi_naive" else [(ALL,) * len(rule.slots)]
        slots, swaps, distinct = rule.slots, rule.swaps, rule.distinct
        pred, conclusion = rule.pred, rule.conclusion
        known = state.known.get(pred, ())
        for plan in plans:
            indexes = [views[slot][part] for slot, part in zip(slots, plan)]
            if not all(indexes):  # a join over an empty index yields no row
                continue
            for b, used in _join(rule, indexes):
                if distinct and any(b[i] == b[j] for i, j in distinct):
                    continue
                args = conclusion(b)
                if args in known:  # in the orbit of a fact the graph holds
                    continue
                concl = canonicalize(Fact(pred, args))
                # a kept binding stands for 2**k full-join bindings
                if is_tautology(concl):
                    n_taut += 1 << sum(b[x] != b[y] for x, y in swaps)
                    continue
                if is_degenerate(concl):
                    n_degen += 1 << sum(b[x] != b[y] for x, y in swaps)
                    continue
                # facts order as their text does (facts.Fact)
                key = (rule.name, used)
                cur = best.get(concl)
                if cur is None or key < cur[0]:
                    best[concl] = (key, rule, b)
    ordered = []
    for f in sorted(best):
        (name, used), rule, b = best[f]
        # the rule's numeric side conditions plus those of the premises
        conds = {Fact(pred, points(b)) for pred, points in rule.numeric}
        for prem in used:
            conds.update(dag.node(prem).conditions)
        ordered.append(Derivation(f, name, used, dag.rounds + 1, tuple(sorted(conds))))
    return ordered, n_taut, n_degen


@dataclass
class SaturationResult:
    dag: DerivationDag  # the hypotheses plus every derived fact
    stop_reason: str  # fixpoint | budget
    dropped_tautologies: int = 0


def saturate(hypotheses: Iterable[Fact], rules: List[Rule], max_rounds: int = 10,
             max_facts: int = 100000, strategy: str = "semi_naive",
             strict_sides: bool = False) -> SaturationResult:
    """Run forward chaining from the hypotheses until a fixpoint or a
    budget is hit."""
    if max_rounds < 1 or max_facts < 1:
        raise ValueError("max_rounds and max_facts must be at least 1")
    dag = DerivationDag(hypotheses)
    state = JoinState(dag, rules, strategy, strict_sides)  # for this run only
    n_taut = 0
    for _ in range(max_rounds):
        new, t, _ = derive_round(state)
        n_taut += t
        if not new:
            break
        dag.add(*new)
        if len(dag) >= max_facts:
            break
    stop = "budget" if new else "fixpoint"  # fixpoint: the last round derived nothing
    return SaturationResult(dag, stop, n_taut)
