"""Eight interestingness metrics over facts and their derivation DAG.

Raw metrics are min-max normalized over the derived facts, direction
flags orient every metric so that larger means more interesting, and a
weighted sum yields the aggregate in [0,1].  Usefulness needs an
interesting set to count against, so scoring runs in two passes: a
provisional pass with usefulness = 0 that computes only the derived facts'
aggregates, then a final pass with usefulness computed against the
provisional interesting set.

Cost model.  A fact's derivation never changes once the fact is scored:
the graph is append-only, and a fact that a filtered round blocks never
comes back.  The graph stores each fact's closure when the fact enters.
Per run: ``ScoreMemo.of(dag)`` keeps the hypotheses' point pairs and,
per fact, one raw row, the seven metrics other than usefulness.  Per
call: ``_units`` turns each metric column of the derived facts into unit
values and ``_add_terms`` adds their weighted, directed terms in METRICS
order; both passes share the first seven sums and redo only the
usefulness counts, one Counter over the stored closures.  ``score_all``
builds the derived facts' cards from the passes' unit values and
aggregates.  Only the hypotheses get unit values and sums of their own,
clamped into [0, 1], as a hypothesis may lie outside the derived facts'
range; the clamp would leave a derived fact's unit values unchanged.

Formulas and defaults are documented in docs/metrics.md; weights,
directions and the threshold are user-configurable.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from .engine import DerivationDag
from .facts import Fact

METRICS = ("obviousness", "weight", "complexity", "surprisingness",
           "intensity", "adaptivity", "focus", "usefulness")

# direction flag: True = higher raw value is more interesting
DEFAULT_DIRECTIONS = {
    "obviousness": True,
    "weight": False,
    "complexity": False,
    "surprisingness": True,
    "intensity": True,
    "adaptivity": True,
    "focus": True,
    "usefulness": True,
}


@dataclass(frozen=True)
class MetricConfig:
    weights: Dict[str, float] = field(
        default_factory=lambda: {m: 1.0 for m in METRICS})
    directions: Dict[str, bool] = field(
        default_factory=lambda: dict(DEFAULT_DIRECTIONS))
    threshold: float = 0.5
    top_k: int = 0  # 0 = unlimited

    def __post_init__(self) -> None:
        try:  # np.int64(3) is stored as 3; 2.0 would fail as a slice index mid-run
            object.__setattr__(self, "top_k", operator.index(self.top_k))
        except TypeError:
            raise ValueError(f"top_k must be an integer, got {self.top_k!r}") from None
        # a negative top_k would cut ranked facts off the end of the list
        if self.top_k < 0:
            raise ValueError(f"top_k must be >= 0, got {self.top_k}")
        # a nan threshold would star no fact
        if math.isnan(self.threshold):
            raise ValueError("threshold must be a number, got nan")
        for m in [*self.weights, *self.directions]:  # a misspelt name would weigh 0
            if m not in METRICS:
                raise ValueError(f"unknown metric {m!r}; known: {', '.join(METRICS)}")
        for m, w in self.weights.items():
            # an infinite weight would make every aggregate nan
            if not 0 <= w < math.inf:  # also rejects nan
                raise ValueError(f"weight of {m} must be finite and >= 0, got {w}")
        total = sum(self.weights.get(m, 0.0) for m in METRICS)  # normalized_weights' divisor
        if not total:  # else caught only after saturation
            raise ValueError("metric weights must not all be zero")
        if total == math.inf:  # would scale every weight, so every aggregate, to 0
            raise ValueError("metric weights must have a finite sum, got inf")
        for m, d in self.directions.items():  # "lower" is truthy and would read higher
            if not isinstance(d, bool):
                raise ValueError(f"direction of {m} must be a bool, got {d!r}")

    def normalized_weights(self) -> Dict[str, float]:
        total = sum(self.weights.get(m, 0.0) for m in METRICS)
        return {m: self.weights.get(m, 0.0) / total for m in METRICS}


class ScoreCard(NamedTuple):
    raw: Dict[str, float]
    normalized: Dict[str, float]
    aggregate: float
    hypothesis: bool


def obviousness(f: Fact, dag: DerivationDag) -> int:
    """Number of inference steps in the derivation (ancestor DAG nodes)."""
    return len(dag.ancestors(f))


def weight(f: Fact) -> int:
    """Symbol count of the formula (predicate + argument positions)."""
    return 1 + len(f.args)


def complexity(points: FrozenSet[str]) -> int:
    """Number of distinct symbols of a fact of these points: the predicate
    plus the distinct points."""
    return 1 + len(points)


def hypothesis_pairs(d0: Iterable[Fact]) -> Set[Tuple[str, str]]:
    """Point pairs, as sorted tuples, that co-occur in some hypothesis."""
    return {pq for h in d0 for pq in itertools.combinations(sorted(h.points()), 2)}


def surprisingness(points: FrozenSet[str], hyp_pairs: Set[Tuple[str, str]]) -> float:
    """Fraction of a fact's point pairs that co-occur in no single hypothesis."""
    k = len(points)
    if k < 2:
        return 0.0
    n = k * (k - 1) // 2
    return (n - len(hyp_pairs.intersection(itertools.combinations(sorted(points), 2)))) / n


def hypotheses_used(f: Fact, dag: DerivationDag) -> Set[Fact]:
    """The leaf ancestors of a derived fact; empty for a hypothesis, whose
    focus is then 1.0."""
    return dag.leaf_ancestors(f) if dag.node(f).rule is not None else set()


def intensity(points: FrozenSet[str], leaves: Set[Fact]) -> float:
    """How much a fact of these points condenses the points of its leaves
    (hypotheses_used)."""
    leaf_pts = frozenset().union(*[leaf.args for leaf in leaves])
    if not leaf_pts:
        return 0.0
    v = 1.0 - len(points) / len(leaf_pts)
    return min(1.0, max(0.0, v))


def adaptivity(f: Fact) -> float:
    """Argument repetition as a proxy for constraint tightness."""
    return 1.0 - len(set(f.args)) / len(f.args)


def focus(f: Fact, leaves: Set[Fact]) -> float:
    """Literal balance of the clause (not h1 or ... or not hn or f)."""
    n = len(leaves)
    return abs(1 - n) / (1 + n)


def usefulness(dag: DerivationDag, interesting: Set[Fact]) -> Counter:
    """Per fact, how many other derived interesting facts have it in their
    ancestor closure."""
    count = Counter(itertools.chain.from_iterable(map(dag.closure, interesting)))
    count.subtract(interesting)  # each closure holds its own fact
    return count


@dataclass
class ScoreMemo:
    """The scoring work that stays fixed for a fact within one run.

    Valid only while every fact keeps the derivation it was first scored
    with, as on the one growing graph of a pipeline run; never share a memo
    between runs.
    """

    # point pairs of the run's hypotheses, for surprisingness
    hyp_pairs: Set[Tuple[str, str]]
    # fact -> its raw metrics but usefulness, in METRICS order
    raw: Dict[Fact, Tuple[float, ...]] = field(default_factory=dict)

    @classmethod
    def of(cls, dag: DerivationDag) -> "ScoreMemo":
        """A fresh memo for a run on dag's hypotheses."""
        return cls(hypothesis_pairs(f for f in dag if dag.node(f).rule is None))

    def rows(self, facts: List[Fact], dag: DerivationDag) -> List[Tuple[float, ...]]:
        """The raw rows of facts, each computed the first time it is asked for."""
        raw = self.raw
        for f in [f for f in facts if f not in raw]:
            leaves, points = hypotheses_used(f, dag), f.points()
            raw[f] = (float(obviousness(f, dag)), float(weight(f)),
                      float(complexity(points)), surprisingness(points, self.hyp_pairs),
                      intensity(points, leaves), adaptivity(f), focus(f, leaves))
        return list(map(raw.__getitem__, facts))


def _range(column: Sequence[float]) -> Tuple[float, float]:
    """A metric's min and max over the derived facts; 0.0 and 0.0 if none."""
    return (min(column), max(column)) if column else (0.0, 0.0)


def _units(column: Sequence[float], lo: float, hi: float) -> List[float]:
    """Each value's unit value (v - lo) / (hi - lo), or 0.5 for a metric
    constant over the derived facts; in [0, 1] for values in [lo, hi]."""
    if hi == lo:
        return [0.5] * len(column)
    span = hi - lo
    return [(v - lo) / span for v in column]


def _add_terms(sums: List[float], units: Iterable[Sequence[float]], cfg: MetricConfig,
               metrics: Sequence[str] = METRICS) -> List[float]:
    """Each sum plus its fact's weighted, directed terms, one unit-value
    column per metric of metrics, added in that order."""
    w = cfg.normalized_weights()
    for m, column in zip(metrics, units):
        wm = w[m]
        if cfg.directions.get(m, True):
            sums = [s + wm * n for s, n in zip(sums, column)]
        else:
            sums = [s + wm * (1.0 - n) for s, n in zip(sums, column)]
    return sums


def _passes(dag: DerivationDag, cfg: MetricConfig, memo: ScoreMemo
            ) -> Tuple[List[Fact], List[float], List[Tuple[float, float]], Counter,
                       List[List[float]]]:
    """The core of both passes: dag's derived facts, their final aggregates,
    each metric's min and max over them, the usefulness counts and each
    metric's column of their unit values."""
    derived = [d.fact for d in dag.derivations()]
    # one column per metric but usefulness; none at all when nothing is derived
    columns = list(zip(*memo.rows(derived, dag))) or [()] * (len(METRICS) - 1)
    ranges = [_range(column) for column in columns]
    units = [_units(c, lo, hi) for c, (lo, hi) in zip(columns, ranges)]
    partial = _add_terms([0.0] * len(derived), units, cfg)  # the first seven terms
    last = METRICS[-1:]  # usefulness

    # pass 1: usefulness is 0.0 everywhere, a constant column
    provisional = _add_terms(partial, [_units([0.0] * len(derived), 0.0, 0.0)], cfg, last)
    useful = usefulness(dag, {f for f, a in zip(derived, provisional) if a >= cfg.threshold})

    # pass 2: only the usefulness column and its range change
    column = [float(useful[f]) for f in derived]
    ranges.append(_range(column))
    units.append(_units(column, *ranges[-1]))
    aggregates = _add_terms(partial, units[-1:], cfg, last)
    return derived, aggregates, ranges, useful, units


def score_all(dag: DerivationDag, cfg: MetricConfig,
              memo: Optional[ScoreMemo] = None) -> Dict[Fact, ScoreCard]:
    """Two-pass scoring of every fact in dag; normalization over derived
    facts only.  Pass the same memo to every call on one growing graph;
    without one, every fact is scored afresh."""
    memo = memo or ScoreMemo.of(dag)
    derived, aggregates, ranges, useful, units = _passes(dag, cfg, memo)
    facts = list(dag)  # the hypotheses, then the derived facts
    n = len(facts) - len(derived)
    rows = [r + (float(useful[f]),) for f, r in zip(facts, memo.rows(facts, dag))]
    # clamped: a hypothesis may lie outside the derived facts' range
    hyp_units = [[min(1.0, max(0.0, u)) for u in _units(column, lo, hi)]
                 for column, (lo, hi) in zip(zip(*rows[:n]), ranges)]
    normalized = [*zip(*hyp_units), *zip(*units)]
    aggregates = _add_terms([0.0] * n, hyp_units, cfg) + aggregates
    return {f: ScoreCard(raw=dict(zip(METRICS, r)), normalized=dict(zip(METRICS, u)),
                         aggregate=a, hypothesis=i < n)
            for i, (f, r, u, a) in enumerate(zip(facts, rows, normalized, aggregates))}


def interesting_among(dag: DerivationDag, facts: Iterable[Fact], cfg: MetricConfig,
                      memo: Optional[ScoreMemo] = None) -> Set[Fact]:
    """The facts of ``facts`` that filter_interesting(score_all(dag, cfg, memo),
    cfg) picks, found from the derived facts' aggregates alone, without
    score cards."""
    derived, aggregates, *_ = _passes(dag, cfg, memo or ScoreMemo.of(dag))
    wanted = set(facts)
    pool = zip(derived, aggregates)
    if not cfg.top_k:  # only a ranking needs the facts not asked about
        pool = ((f, a) for f, a in pool if f in wanted)
    return wanted.intersection(_best(dict(pool), cfg))


def _config_number(convert, key: str, value: str, lineno: int):
    """value converted by int or float; a ValueError naming the config line
    if it is no number (nan included)."""
    try:
        x = convert(value)
        if not math.isnan(x):
            return x
    except ValueError:
        pass
    kind = "an integer" if convert is int else "a number"
    raise ValueError(f"metric config line {lineno}: {key} must be {kind}")


def parse_metric_config(text: str, threshold: float = 0.5,
                        top_k: int = 0) -> MetricConfig:
    """Parse the key-value metric config format (see docs/metrics.md).

    Recognized keys: ``threshold``, ``top_k``, ``weight.<metric>`` and
    ``direction.<metric>`` (values ``higher`` / ``lower``).
    """
    weights = {m: 1.0 for m in METRICS}
    directions = dict(DEFAULT_DIRECTIONS)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"metric config line {lineno}: expected key = value")
        key, value = (s.strip() for s in line.split("=", 1))
        if key == "threshold":
            threshold = _config_number(float, key, value, lineno)
        elif key == "top_k":
            top_k = _config_number(int, key, value, lineno)
            if top_k < 0:
                raise ValueError(f"metric config line {lineno}: top_k must be >= 0")
        elif key.startswith("weight."):
            m = key[len("weight."):]
            if m not in METRICS:
                raise ValueError(f"metric config line {lineno}: unknown metric {m!r}")
            weights[m] = _config_number(float, key, value, lineno)
            if not 0 <= weights[m] < math.inf:
                raise ValueError(f"metric config line {lineno}: weight must be finite and >= 0")
        elif key.startswith("direction."):
            m = key[len("direction."):]
            if m not in METRICS or value not in ("higher", "lower"):
                raise ValueError(f"metric config line {lineno}: bad direction entry")
            directions[m] = value == "higher"
        else:
            raise ValueError(f"metric config line {lineno}: unknown key {key!r}")
    return MetricConfig(weights=weights, directions=directions,
                        threshold=threshold, top_k=top_k)


def _best(aggregates: Dict[Fact, float], cfg: MetricConfig) -> List[Fact]:
    """The facts reaching the threshold, best first; the top_k best if set."""
    picked = sorted((f for f, a in aggregates.items() if a >= cfg.threshold),
                    key=lambda f: (-aggregates[f], f))
    return picked[:cfg.top_k] if cfg.top_k else picked


def filter_interesting(scores: Dict[Fact, ScoreCard],
                       cfg: MetricConfig) -> List[Tuple[Fact, ScoreCard]]:
    """Derived facts above threshold, best first; top_k truncation if set."""
    aggregates = {f: s.aggregate for f, s in scores.items() if not s.hypothesis}
    return [(f, scores[f]) for f in _best(aggregates, cfg)]
