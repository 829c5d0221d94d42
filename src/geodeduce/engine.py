"""Breadth-first forward chaining to a fixpoint, with derivation recording.

Each round applies every rule to the graph's facts, canonicalizes the
conclusions, drops tautologies / degenerate facts / duplicates, and
commits the survivors in canonical-form lexicographic order.  The first
derivation of a fact wins; later ones are ignored.  One ``DerivationDag``
holds every fact, each with one ``Derivation`` record: a hypothesis's has
no rule, no premises and round 0.  The graph enforces round order, and
``derive_round`` stamps the round after its last.  Evaluation is
semi-naive: each round joins the last round's facts with strictly older
ones (Bancilhon & Ramakrishnan 1986).  The tests hold it to naive
evaluation, which joins every fact with every fact, as the reference it
must agree with.

Rules are matched by one indexed join, and ``derive_round`` is its one
entry.  A binding is a tuple: the rule's point constants, then its
variables in the order the premise slots bind them.  For each premise
slot, the orbit variants of its candidate facts that fit the pattern
(constants and repeated variables agree) are indexed by their values at
the positions bound by earlier premises; an entry holds the fact and the
values it gives the slot's new variables.  Each rule's join is a kernel,
one loop nest generated for the rule once per process, as compiled
Datalog engines specialize each rule (Soufflé; Jordan, Scholz & Subotić
2016): one ``for`` loop per slot over that slot's index, the binding's
points as locals, and index keys and the conclusion as tuple displays.
The loops keep the depth-first order of a backtracking walk, and no list
of rows or partial bindings is built.  A pair of points that must differ
is tested at the loop that binds the later one: every ``distinct`` side,
and each pair of conclusion arguments whose equality makes the fact
degenerate and never a tautology (its ``facts.PREDICATES`` record's
``degenerate_pairs``: any two points of a cyclic, a zero-length side of a
perp or eqangle).  Innermost, the kernel does the whole per-binding work:
one lookup in the verdict store, the drop counters and the choice of the
least derivation.  The generated text holds only local names and numbers;
the rule's name, predicates and points reach the kernel as values.  Join
tests read ``derive_round``'s derivations and counters and ``saturate``'s
graph, held to a naive reference (tests/conftest.py); the degenerate
counter, read only by the benchmark's tracer, is compared engine to engine.

The loop that grows the graph (``saturate``, and the filtered loop of
``pipeline.run_pipeline``) builds one ``JoinState`` per run, holding all
that is fixed for it and only the rules that can fire; ``derive_round``
takes only the state.  The graph is append-only and grows one round at a
time, so each round takes in the last round's facts only: their symmetry
orbits are written into their predicate's verdict store as KNOWN, and the
facts are indexed in every slot of that predicate.  A slot's index over the
older facts is the one the last round left, and its index over all facts
appends the last round's entries to each key, sharing every list it leaves
alone.  Entries keep the order a rebuild would give them: graph order,
then orbit order.  Each fact's shape is computed once, when it is taken
in.  The state's memo is one verdict store per predicate: it maps a
conclusion's arguments to KNOWN (a fact the graph holds, dropped before it
is canonicalized), TAUTOLOGY, DEGENERATE or its canonical fact, and judges
any conclusion that is not KNOWN once per run.

What depends on the rules alone is memoized once per process, with a fixed
bound.  ``compile_rule`` makes all that ``derive_round`` reads from a
parsed rule: predicates, binding positions, the kernel and the symmetries
it breaks, disjoint variable swaps (x y) that ``rules.symmetries`` finds
and the premise slots (i, j) that ``rules.mirrored_premises`` finds.
A ``JoinState`` compiles only the rules that can fire, found once per rule
tuple and set of graph predicates, and rules of one layout share one
kernel.  A swapped binding uses the same facts and gives the same
conclusion, so the join keeps only the one it would draw first
(symmetry-breaking predicates, Crawford, Ginsberg, Luks & Roy 1996): the
slot binding x and y admits only variants with v[px] <= v[py].  This test
and a slot's repeated variables read only a fact's shape, its arguments as
ranks among its points, so ``_admitted`` runs them once per slot and
shape; indexing a fact compares only point constants.  A binding's mirror
holds its facts f_i and f_j in swapped slots, passes the same loop tests
and gives the same conclusion, so loop j skips a binding with f_j < f_i,
whose mirror has the smaller premises.  A kept binding stands for 2**k
bindings of the full join, k the number of its swaps whose two points
differ, plus 1 if its facts f_i and f_j differ, and the drop counters add
that weight, so they still count full-join bindings; the degenerate
counter counts only the bindings that no loop test rules out.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import (Callable, Dict, FrozenSet, Iterable, Iterator, List, NamedTuple,
                    Optional, Set, Tuple)

from .facts import PREDICATES, Fact, canonicalize, orbit
from .rules import MAX_PREMISES, Rule, is_variable, mirrored_premises, symmetries


class Derivation(NamedTuple):
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

    def restricted(self, kept: Iterable[Fact]) -> "DerivationDag":
        """The graph of the hypotheses and the kept derived facts, in graph
        order, sharing their closures; a kept fact's premises must be kept."""
        out = DerivationDag()
        keep = self._hypotheses.union(kept)
        out._node = {f: d for f, d in self._node.items() if f in keep}
        for d in out._node.values():
            if not all(p in out._node for p in d.premises):
                raise ValueError(f"a premise of {d.fact} is not kept")
            out._rounds = d.round  # graph order is round order
        out._hypotheses = self._hypotheses
        out._closure = {f: self._closure[f] for f in out._node}
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

# a conclusion's verdict in JoinState.memo, unless it is a canonical fact
KNOWN, TAUTOLOGY, DEGENERATE = "known", "tautology", "degenerate"


class _Slot(NamedTuple):
    """How one premise meets the variables bound before it.  Plain data, so
    that slots of one shape share one index in a round."""

    pred: str                             # the premise's predicate
    consts: Tuple[Tuple[int, str], ...]   # (position, point constant)
    repeats: Tuple[Tuple[int, int], ...]  # (position, first position of its variable)
    key_pos: Tuple[int, ...]              # first positions of variables bound before
    new_pos: Tuple[int, ...]              # first positions of variables bound here
    lex: Tuple[Tuple[int, int], ...] = ()  # (px, py): admit v[px] <= v[py] only


class CompiledRule(NamedTuple):
    name: str
    pred: str                           # the conclusion's predicate
    slots: Tuple[_Slot, ...]
    keys: Tuple[Tuple[int, ...], ...]   # per slot: the binding positions of its key
    plans: Tuple[Tuple[str, ...], ...]  # a round's joins: per slot, the part of the facts
    consts: Tuple[str, ...]             # the binding's prefix: the rule's constants
    swaps: Tuple[Tuple[int, int], ...]     # symmetry swaps (x y) as binding positions, x first
    mirror: Tuple[int, ...]             # premise slots (i, j) that a symmetry swaps, or ()
    # binding positions that must differ: the distinct sides and the
    # conclusion's degenerate pairs, each tested at the loop that binds it
    distinct: Tuple[Tuple[int, int], ...]
    conclusion: Tuple[int, ...]         # the binding positions of the conclusion's arguments
    # numeric side conditions: (predicate, binding -> their points)
    numeric: Tuple[Tuple[str, Callable[[tuple], tuple]], ...]
    kernel: Optional[Callable] = None   # (indexes, memo, best, rule) -> counters


def _compile(rule: Rule, pairs: Tuple[Tuple[str, str], ...] = (),
             mirror: Tuple[int, ...] = ()) -> CompiledRule:
    """Slot layouts in premise order; premise i sees the variables of 0..i-1.
    Binding positions number the rule's point constants, then its variables
    in the order the slots bind them.  Each swap (x y) of pairs is tested
    in the slot that binds x: a swap's two variables share every premise,
    so that slot binds y too.  Each distinct side is tested at the loop that
    binds the later of its points, as is each pair of conclusion arguments
    in its predicate's ``degenerate_pairs``.  The kernel is generated last."""
    if len(rule.premises) > MAX_PREMISES:  # one nested loop per premise
        raise ValueError(f"rule {rule.name!r} has {len(rule.premises)} premises; "
                         f"the join takes at most {MAX_PREMISES}")
    atoms = rule.premises + (rule.conclusion,) + rule.side_conditions
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
        slots.append(_Slot(pattern.pred, tuple(fixed), tuple(repeats),
                           tuple(first[v] for v in key), tuple(first[v] for v in new),
                           tuple((first[x], first[y]) for x, y in pairs if x in new)))
        keys.append(tuple(at[v] for v in key))
        for v in new:
            at[v] = len(at)
    n = len(slots)  # plan i: slot i from the last round's facts, earlier ones older
    plans = tuple((OLD,) * i + (DELTA,) + (ALL,) * (n - i - 1) for i in range(n))
    head = tuple(at[a] for a in rule.conclusion.args)
    differ = [tuple(at[a] for a in s.args) for s in rule.side_conditions
              if s.pred == "distinct"]
    differ += [(head[i], head[j]) for i, j in PREDICATES[rule.conclusion.pred].degenerate_pairs]
    compiled = CompiledRule(
        rule.name, rule.conclusion.pred, tuple(slots), tuple(keys), plans, consts,
        tuple((at[x], at[y]) for x, y in pairs), mirror,
        tuple(dict.fromkeys((min(p), max(p)) for p in differ)), head,
        tuple((s.pred, _getter(tuple(at[a] for a in s.args))) for s in rule.numeric_sides))
    return compiled._replace(kernel=_kernel(_source(compiled)))


def _breaks(rule: Rule, x: str, y: str) -> bool:
    """Whether the slot binding the symmetry (x y), the first premise that
    names x, draws the variant with v[px] <= v[py] before its swapped image.
    Outside the lexicographic groups (the record's ``lex``) only a swap of
    whole segments or rays does: each two-point block naming x or y is {x, y}."""
    pattern = next(p for p in rule.premises if x in p.args)
    return PREDICATES[pattern.pred].lex or all(
        {u, v} == {x, y} for u, v in zip(pattern.args[0::2], pattern.args[1::2])
        if {u, v} & {x, y})


@functools.lru_cache(maxsize=256)
def compile_rule(rule: Rule) -> CompiledRule:
    """The rule's slot layouts and kernel, and the symmetries its join
    breaks, chosen greedily in the order of ``symmetries(rule)``, each
    disjoint from those before it; memoized, as it depends on the rule
    alone.  A rule of more than MAX_PREMISES premises raises ValueError."""
    pairs: List[Tuple[str, str]] = []
    taken: Set[str] = set()
    for x, y in symmetries(rule):
        if x not in taken and y not in taken and _breaks(rule, x, y):
            pairs.append((x, y))
            taken.update((x, y))
    return _compile(rule, tuple(pairs), mirrored_premises(rule, tuple(pairs)))


def _tuple(prefix: str, items: Iterable[int]) -> str:
    """A tuple display of the names prefix + item."""
    names = [f"{prefix}{i}" for i in items]
    return f"({names[0]},)" if len(names) == 1 else f"({', '.join(names)})"


def _source(rule: CompiledRule) -> str:
    """The source of the rule's loop nest, a function ``kernel``.  Loop i
    walks slot i's index under the key of the variables bound before it;
    binding position p is the local ``vp``, and slot i's fact is ``fi``.
    A pair of positions that must differ is tested at the loop that binds
    the later of the two, at the first loop if both are constants.  Loop j
    of a mirror's slots (i, j) keeps only fi <= fj, and ``(fi != fj)``
    joins the exponent of the weight of a binding.  The
    text holds only these names and numbers: the rule's name, predicates
    and points reach the kernel through its ``rule`` argument and the
    indexes.

    The kernel ``(indexes, memo, best, rule)`` does the whole per-binding
    work of ``derive_round`` innermost, one lookup per row in ``memo``, and
    returns its (tautology, degenerate) counters.  No test reads the rows
    it draws: they are seen only through ``derive_round``'s result."""
    k, n = len(rule.consts), len(rule.slots)
    depth = [0] * k  # binding position -> the loop that binds it
    for i, slot in enumerate(rule.slots):
        depth += [i] * len(slot.new_pos)
    tests: List[List[str]] = [[] for _ in range(n)]
    for x, y in rule.distinct:
        tests[max(depth[x], depth[y])].append(f"v{x} == v{y}")
    terms = [f"(v{x} != v{y})" for x, y in rule.swaps]
    if rule.mirror:
        i, j = rule.mirror
        tests[j].append(f"f{j} < f{i}")
        terms.append(f"(f{i} != f{j})")
    binding, used = _tuple("v", range(len(depth))), _tuple("f", range(n))
    lines = ["def kernel(indexes, memo, best, rule):",
             "    name, pred = rule.name, rule.pred",
             "    memo_get, best_get = memo.get, best.get",
             "    n_taut = n_degen = 0"]
    if k:
        lines.append(f"    {_tuple('v', range(k))} = rule.consts")
    lines.append(f"    {_tuple('get', range(n))} = [index.get for index in indexes]")
    pad = "    "
    for i in range(n):
        new = [p for p in range(k, len(depth)) if depth[p] == i]
        lines.append(f"{pad}for f{i}, {_tuple('v', new) if new else '_'} in "
                     f"get{i}({_tuple('v', rule.keys[i])}, ()):")
        pad += "    "
        if tests[i]:
            lines += [f"{pad}if {' or '.join(tests[i])}:", f"{pad}    continue"]
    # a kept binding stands for 2**s full-join bindings, s the number of its
    # swaps whose two points differ, plus 1 if its mirrored facts differ
    weight = f"1 << ({' + '.join(terms)})" if terms else "1"
    lines += [f"{pad}args = {_tuple('v', rule.conclusion)}",
              f"{pad}verdict = memo_get(args)",
              f"{pad}if verdict is KNOWN:",
              f"{pad}    continue",
              f"{pad}if verdict is None:",
              f"{pad}    verdict = _judge(memo, pred, args)",
              f"{pad}if verdict is TAUTOLOGY:",
              f"{pad}    n_taut += {weight}",
              f"{pad}elif verdict is DEGENERATE:",
              f"{pad}    n_degen += {weight}",
              f"{pad}else:  # facts order as their text does (facts.Fact)",
              f"{pad}    key = (name, {used})",
              f"{pad}    old = best_get(verdict)",
              f"{pad}    if old is None or key < old[0]:",
              f"{pad}        best[verdict] = (key, rule, {binding})",
              "    return n_taut, n_degen"]
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=256)
def _kernel(source: str) -> Callable:
    """The function a generated source defines; rules of one layout share
    it.  Its globals are this module's, so it reads ``_judge`` and, through
    it, ``canonicalize`` at call time."""
    namespace: Dict[str, Callable] = {}
    exec(compile(source, "<join kernel>", "exec"), globals(), namespace)
    return namespace["kernel"]


def _judge(memo: Dict[tuple, object], pred: str, args: Tuple[str, ...]) -> object:
    """The verdict on a conclusion's arguments, stored in the memo: its
    canonical fact, TAUTOLOGY or DEGENERATE."""
    fact = canonicalize(Fact(pred, args))
    verdict = (TAUTOLOGY if PREDICATES[pred].tautology(fact.args) else
               DEGENERATE if PREDICATES[pred].degenerate(fact.args) else fact)
    memo[args] = verdict
    return verdict


@functools.lru_cache(maxsize=4096)
def _admitted(slot: _Slot, shape: Tuple[int, ...]) -> Tuple[Tuple[Callable, ...], ...]:
    """The orbit permutations whose variant of a fact of this shape passes the
    slot's repeat and lex tests, in orbit order and the first of equal
    variants only, each as getters of the fact's arguments at the variant's
    constant, key and new positions."""
    tests = ([(operator.eq, p, q) for p, q in slot.repeats]
             + [(operator.le, p, q) for p, q in slot.lex])
    at = [i for i, _ in slot.consts]
    out, seen = [], set()
    for perm in PREDICATES[slot.pred].group:
        v = operator.itemgetter(*perm)(shape)
        if v not in seen and all([test(v[p], v[q]) for test, p, q in tests]):
            out.append(tuple(_getter(tuple(map(perm.__getitem__, pos)))
                             for pos in (at, slot.key_pos, slot.new_pos)))
        seen.add(v)
    return tuple(out)


def _shape(args: Tuple[str, ...]) -> Tuple[int, ...]:
    """A fact's shape: each argument's rank among its points."""
    return tuple(map(sorted(set(args)).index, args))


def _index(slot: _Slot, shaped: Iterable[Tuple[Fact, Tuple[int, ...]]]) -> Dict[tuple, list]:
    """Variants of facts that fit the slot's pattern, keyed by their values
    at the already-bound positions: key -> [(fact, values of the new
    variables)].  ``shaped`` holds (fact, its shape) pairs.

    Within one fact, a consistent variant and the binding it extends to
    correspond one to one, so dropping equal variants is the only
    deduplication needed.  Entries keep the order of facts, then orbit order.
    """
    index: Dict[tuple, list] = {}
    want = tuple(c for _, c in slot.consts)
    for f, shape in shaped:
        args = f.args
        for at, key, new in _admitted(slot, shape):
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


@functools.lru_cache(maxsize=256)
def _reachable(rules: Tuple[Rule, ...], preds: FrozenSet[str]
               ) -> Tuple[FrozenSet[str], Tuple[Rule, ...]]:
    """preds closed under the rules' conclusions, and the rules whose
    premises it covers: those that can fire."""
    reached, n = set(preds), -1
    while n < len(reached):
        n = len(reached)
        reached.update(r.conclusion.pred for r in rules
                       if all(p.pred in reached for p in r.premises))
    return frozenset(reached), tuple(r for r in rules
                                     if all(p.pred in reached for p in r.premises))


class JoinState:
    """One run of the join: the graph, grown by the state's derivations only,
    the predicates it can reach, the compiled rules that can fire,
    ``strict_sides``, and what it keeps across rounds: per slot of the
    rules its index over every usable fact taken in, in graph order, and
    per predicate one verdict store: KNOWN for every orbit variant of every
    graph fact, else the verdict on each conclusion judged so far."""

    def __init__(self, dag: DerivationDag, rules: Iterable[Rule],
                 strict_sides: bool = False) -> None:
        if not isinstance(strict_sides, bool):  # "no" would run strict
            raise ValueError(f"strict_sides must be a bool, got {strict_sides!r}")
        self.dag = dag
        preds, firing = _reachable(tuple(rules), frozenset(f.pred for f in dag))
        # only these rules are compiled, so only their kernels are built
        self.rules = [compile_rule(r) for r in firing]
        self.strict_sides = strict_sides
        self.rounds = -1  # the graph's last round at the last call
        self.taken = 0  # graph facts taken in, a prefix of graph order
        # predicate -> conclusion arguments -> KNOWN, canonical fact, TAUTOLOGY or DEGENERATE
        self.memo: Dict[str, Dict[tuple, object]] = {pred: {} for pred in preds}
        self.indexes: Dict[_Slot, Dict[tuple, list]] = {
            slot: {} for rule in self.rules for slot in rule.slots}

    def take_in(self) -> Dict[_Slot, Dict[str, Dict[tuple, list]]]:
        """Take in the graph facts added since the last call and index them
        in every slot of their predicate; returns each slot's OLD, DELTA and
        ALL index.  DELTA holds the facts of the graph's last round.  A fact's
        orbit holds every tuple it is the canonical form of, so KNOWN replaces
        only verdicts naming it: hypotheses precede all verdicts."""
        dag = self.dag
        if dag.rounds <= self.rounds:  # the stored indexes would hold DELTA facts
            raise ValueError(f"the graph gained no round since round {self.rounds}")
        self.rounds = dag.rounds
        new = list(itertools.islice(dag, self.taken, None))
        self.taken = len(dag)
        if any(f.pred not in self.memo for f in new):  # a rule left out could fire
            raise ValueError("the graph gained a fact that no rule of the state concludes")
        for f in new:
            self.memo[f.pred].update(dict.fromkeys(orbit(f), KNOWN))
        # (part, predicate) -> usable facts with their shapes, each computed once
        groups: Dict[Tuple[str, str], List[Tuple[Fact, Tuple[int, ...]]]] = {}
        for f in new:
            d = dag.node(f)
            if not (self.strict_sides and d.conditional):  # conditional facts serve as no premise
                groups.setdefault((DELTA if d.round == dag.rounds else OLD, f.pred),
                                  []).append((f, _shape(f.args)))
        views = {}
        for slot, old in self.indexes.items():
            older, delta = groups.get((OLD, slot.pred)), groups.get((DELTA, slot.pred))
            if older:
                old = _extend(old, _index(slot, older))
            delta = _index(slot, delta) if delta else {}
            self.indexes[slot] = full = _extend(old, delta)
            views[slot] = {OLD: old, DELTA: delta, ALL: full}
        return views


def derive_round(state: JoinState):
    """Collect the next round over the state's graph: its new derivations
    plus drop counters; the graph is not changed.

    Returns (derivations sorted by canonical form, n_tautologies, n_degenerate),
    each derivation stamped with round ``dag.rounds + 1``; at most one per
    new fact: the least (rule name, premises), the first one drawn among
    equals, which orbit order alone decides.  So the result depends on
    neither the order of rules (their names are unique) nor graph order.
    The counters count bindings of the full join: each kept binding adds
    its orbit size.  The degenerate counter leaves out the bindings that a
    loop test rules out: a conclusion with equal points at one of its
    predicate's ``degenerate_pairs`` is degenerate, so it is never drawn.

    Each rule is joined under every plan of its compiled form, semi-naive:
    one slot over DELTA, the facts of round ``dag.rounds``, the slots before
    it over OLD, and those after over ALL.  Slots of one shape share their
    indexes, and a plan with an empty one is skipped.  A plan runs the
    rule's kernel, one generated loop nest per rule: one loop per slot,
    the distinct and degenerate-pair tests at the loop that binds their
    second point, and innermost the verdict from the state's store (KNOWN
    drops the row; each other distinct conclusion is judged once per run),
    the counters and the choice of the least derivation.
    No list of rows is built.
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
        memo = state.memo[rule.pred]
        for plan in rule.plans:
            indexes = [views[slot][part] for slot, part in zip(rule.slots, plan)]
            if all(indexes):  # a join over an empty index yields no row
                t, g = rule.kernel(indexes, memo, best, rule)
                n_taut += t
                n_degen += g
    ordered = []
    for f in sorted(best):
        (name, used), rule, b = best[f]
        # the rule's numeric side conditions plus those of the premises
        conds = {Fact(pred, points(b)) for pred, points in rule.numeric}
        for prem in used:
            conds.update(dag.node(prem).conditions)
        ordered.append(Derivation(f, name, used, dag.rounds + 1, tuple(sorted(conds))))
    return ordered, n_taut, n_degen


class SaturationResult(NamedTuple):
    dag: DerivationDag  # the hypotheses plus every derived fact
    stop_reason: str  # fixpoint | budget
    dropped_tautologies: int = 0


def saturate(hypotheses: Iterable[Fact], rules: List[Rule], max_rounds: int = 10,
             max_facts: int = 100000, strict_sides: bool = False) -> SaturationResult:
    """Run forward chaining from the hypotheses until a fixpoint or a
    budget is hit."""
    if max_rounds < 1 or max_facts < 1:
        raise ValueError("max_rounds and max_facts must be at least 1")
    dag = DerivationDag(hypotheses)
    state = JoinState(dag, rules, strict_sides)  # for this run only
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
