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
A ``ScoreMemo`` that lives for one run keeps, per fact, the seven raw
metrics other than usefulness, each computed once per fact per run.  It
is built with the run's hypothesis point pairs.  Every call redoes pass 1
over the derived facts and the usefulness counts and scale.  ``score_all``
builds every fact's card; ``interesting_among`` builds none and computes
final aggregates only for the facts asked about (all when top_k ranks).

Formulas and defaults are documented in docs/metrics.md; weights,
directions and the threshold are user-configurable.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .engine import DerivationDag
from .facts import Fact, fact_symbols

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
        if not any(self.weights.values()):  # else caught only after saturation
            raise ValueError("metric weights must not all be zero")
        for m, d in self.directions.items():  # "lower" is truthy and would read higher
            if not isinstance(d, bool):
                raise ValueError(f"direction of {m} must be a bool, got {d!r}")

    def normalized_weights(self) -> Dict[str, float]:
        total = sum(self.weights.get(m, 0.0) for m in METRICS)
        return {m: self.weights.get(m, 0.0) / total for m in METRICS}


@dataclass
class ScoreCard:
    raw: Dict[str, float]
    normalized: Dict[str, float]
    aggregate: float
    hypothesis: bool


def obviousness(f: Fact, dag: DerivationDag) -> int:
    """Number of inference steps in the derivation (ancestor DAG nodes)."""
    return len(dag.ancestors(f))


def weight(f: Fact) -> int:
    """Symbol count of the formula (predicate + argument positions)."""
    multiset, _ = fact_symbols(f)
    return len(multiset)


def complexity(f: Fact) -> int:
    """Number of distinct symbols (predicate + distinct points)."""
    _, distinct = fact_symbols(f)
    return len(distinct)


def hypothesis_pairs(d0: Iterable[Fact]) -> Set[FrozenSet[str]]:
    """Point pairs that co-occur in some hypothesis."""
    return {frozenset(pq) for h in d0
            for pq in itertools.combinations(sorted(h.points()), 2)}


def surprisingness(f: Fact, hyp_pairs: Set[FrozenSet[str]]) -> float:
    """Fraction of f's point pairs that co-occur in no single hypothesis."""
    pairs = list(itertools.combinations(sorted(f.points()), 2))
    if not pairs:
        return 0.0
    new = sum(1 for pq in pairs if frozenset(pq) not in hyp_pairs)
    return new / len(pairs)


def hypotheses_used(f: Fact, dag: DerivationDag) -> Set[Fact]:
    """The leaf ancestors of a derived fact; empty for a hypothesis, whose
    focus is then 1.0."""
    return dag.leaf_ancestors(f) if dag.node(f).rule is not None else set()


def intensity(f: Fact, leaves: Set[Fact]) -> float:
    """How much f condenses the points of its leaves (hypotheses_used)."""
    leaf_pts: Set[str] = set()
    for leaf in leaves:
        leaf_pts.update(leaf.points())
    if not leaf_pts:
        return 0.0
    v = 1.0 - len(f.points()) / len(leaf_pts)
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
    count: Counter = Counter()
    for g in interesting:  # a hypothesis's closure is itself alone
        count.update(dag.closure(g) - {g})
    return count


@dataclass
class ScoreMemo:
    """The scoring work that stays fixed for a fact within one run.

    Valid only while every fact keeps the derivation it was first scored
    with, as on the one growing graph of a pipeline run; never share a memo
    between runs.
    """

    # point pairs of the run's hypotheses, for surprisingness
    hyp_pairs: Set[FrozenSet[str]]
    # fact -> raw metrics, usefulness left at 0.0
    raw: Dict[Fact, Dict[str, float]] = field(default_factory=dict)


def _raw_scores(facts: Iterable[Fact], dag: DerivationDag,
                hyp_pairs: Set[FrozenSet[str]]) -> Dict[Fact, Dict[str, float]]:
    out = {}
    for f in facts:
        leaves = hypotheses_used(f, dag)
        out[f] = {
            "obviousness": float(obviousness(f, dag)),
            "weight": float(weight(f)),
            "complexity": float(complexity(f)),
            "surprisingness": surprisingness(f, hyp_pairs),
            "intensity": intensity(f, leaves),
            "adaptivity": adaptivity(f),
            "focus": focus(f, leaves),
            "usefulness": 0.0,
        }
    return out


Scale = Tuple[str, float, float, float, bool]


def _scales(raw: Dict[Fact, Dict[str, float]], derived: List[Fact],
            cfg: MetricConfig, metrics: Tuple[str, ...] = METRICS) -> List[Scale]:
    """Per metric: its name, its min and max over the derived facts, its
    normalized weight and its direction flag."""
    w = cfg.normalized_weights()
    out = []
    for m in metrics:
        column = [raw[f][m] for f in derived]
        out.append((m, min(column, default=0.0), max(column, default=0.0),
                    w[m], cfg.directions.get(m, True)))
    return out


def _unit(v: float, lo: float, hi: float) -> float:
    """v mapped onto [0, 1] by a metric's min and max over the derived facts
    and clamped there; 0.5 for a metric constant over them."""
    return 0.5 if hi == lo else min(1.0, max(0.0, (v - lo) / (hi - lo)))


def _aggregate(r: Dict[str, float], scales: List[Scale]) -> float:
    """The weighted sum of r's normalized values, oriented so that larger
    is more interesting."""
    agg = 0.0
    for m, lo, hi, w, up in scales:
        n = _unit(r[m], lo, hi)
        agg += w * (n if up else 1.0 - n)
    return agg


def _normalize(raw: Dict[Fact, Dict[str, float]], derived: List[Fact],
               scales: List[Scale]) -> Dict[Fact, ScoreCard]:
    derived_set = set(derived)
    cards = {}
    for f, r in raw.items():
        norm = {m: _unit(r[m], lo, hi) for m, lo, hi, _, _ in scales}
        cards[f] = ScoreCard(raw=r, normalized=norm, aggregate=_aggregate(r, scales),
                             hypothesis=f not in derived_set)
    return cards


def _final_scales(dag: DerivationDag, cfg: MetricConfig, memo: Optional[ScoreMemo]
                  ) -> Tuple[List[Fact], List[Scale], Callable[[Fact], Dict[str, float]]]:
    """The core of both passes: dag's derived facts, the final scales and a
    function giving a fact's final raw metrics."""
    if memo is None:
        memo = ScoreMemo(hypothesis_pairs(f for f in dag if dag.node(f).rule is None))
    raw = memo.raw
    new = [f for f in dag if f not in raw]
    if new:
        raw.update(_raw_scores(new, dag, memo.hyp_pairs))
    derived = [f for f in dag if dag.node(f).rule is not None]

    # pass 1: usefulness is 0.0 everywhere; only derived aggregates count
    scales = _scales(raw, derived, cfg)
    provisional = {f for f in derived if _aggregate(raw[f], scales) >= cfg.threshold}

    # pass 2: only the usefulness column (the last metric) and its scale change
    useful = usefulness(dag, provisional)
    column = {f: {"usefulness": float(useful[f])} for f in derived}
    scales[-1:] = _scales(column, derived, cfg, METRICS[-1:])
    return derived, scales, lambda f: dict(raw[f], usefulness=float(useful[f]))


def score_all(dag: DerivationDag, cfg: MetricConfig,
              memo: Optional[ScoreMemo] = None) -> Dict[Fact, ScoreCard]:
    """Two-pass scoring of every fact in dag; normalization over derived
    facts only.  Pass the same memo to every call on one growing graph;
    without one, every fact is scored afresh."""
    derived, scales, final = _final_scales(dag, cfg, memo)
    return _normalize({f: final(f) for f in dag}, derived, scales)


def interesting_among(dag: DerivationDag, facts: Iterable[Fact], cfg: MetricConfig,
                      memo: Optional[ScoreMemo] = None) -> Set[Fact]:
    """The facts of ``facts`` that filter_interesting(score_all(dag, cfg, memo),
    cfg) picks, found without score cards: final aggregates are computed for
    those facts alone, or for every derived fact when top_k ranks them."""
    derived, scales, final = _final_scales(dag, cfg, memo)
    wanted = set(facts)
    pool = derived if cfg.top_k else [f for f in derived if f in wanted]
    return wanted.intersection(_best({f: _aggregate(final(f), scales) for f in pool}, cfg))


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
