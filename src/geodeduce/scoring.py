"""Eight interestingness metrics over facts and their derivation DAG.

Raw metrics are min-max normalized over the derived facts, direction
flags orient every metric so that larger means more interesting, and a
weighted sum yields the aggregate in [0,1].  Usefulness needs an
interesting set to count against, so scoring runs in two passes: a
provisional pass with usefulness = 0, then a final pass with usefulness
computed against the provisional interesting set.

Formulas and defaults are documented in docs/metrics.md; weights,
directions and the threshold are user-configurable.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from .engine import DerivationDag
from .facts import Fact, FactSet, fact_symbols

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

    def normalized_weights(self) -> Dict[str, float]:
        total = sum(self.weights.get(m, 0.0) for m in METRICS)
        if total <= 0:
            raise ValueError("metric weights must not all be zero")
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


def intensity(f: Fact, dag: DerivationDag) -> float:
    """How much f condenses the points of its leaf ancestors."""
    if f not in dag:
        return 0.0
    leaf_pts: Set[str] = set()
    for leaf in dag.leaf_ancestors(f):
        leaf_pts.update(leaf.points())
    if not leaf_pts:
        return 0.0
    v = 1.0 - len(f.points()) / len(leaf_pts)
    return min(1.0, max(0.0, v))


def adaptivity(f: Fact) -> float:
    """Argument repetition as a proxy for constraint tightness."""
    return 1.0 - len(set(f.args)) / len(f.args)


def focus(f: Fact, dag: DerivationDag) -> float:
    """Literal balance of the clause (not h1 or ... or not hn or f)."""
    if f not in dag:
        return 1.0
    n = len(dag.leaf_ancestors(f))
    return abs(1 - n) / (1 + n)


def usefulness(dag: DerivationDag, interesting: Set[Fact]) -> Counter:
    """Per fact, how many other derived interesting facts have it in their
    ancestor closure."""
    count: Counter = Counter()
    for g in interesting:
        if g in dag:
            count.update(dag.closure(g) - {g})
    return count


def _raw_scores(facts: Iterable[Fact], dag: DerivationDag,
                hyp_pairs: Set[FrozenSet[str]]) -> Dict[Fact, Dict[str, float]]:
    out = {}
    for f in facts:
        out[f] = {
            "obviousness": float(obviousness(f, dag)),
            "weight": float(weight(f)),
            "complexity": float(complexity(f)),
            "surprisingness": surprisingness(f, hyp_pairs),
            "intensity": intensity(f, dag),
            "adaptivity": adaptivity(f),
            "focus": focus(f, dag),
            "usefulness": 0.0,
        }
    return out


def _normalize(raw: Dict[Fact, Dict[str, float]], derived: List[Fact],
               cfg: MetricConfig) -> Dict[Fact, ScoreCard]:
    w = cfg.normalized_weights()
    lo = {m: min((raw[f][m] for f in derived), default=0.0) for m in METRICS}
    hi = {m: max((raw[f][m] for f in derived), default=0.0) for m in METRICS}
    derived_set = set(derived)
    cards = {}
    for f, r in raw.items():
        norm = {}
        agg = 0.0
        for m in METRICS:
            if hi[m] == lo[m]:
                n = 0.5
            else:
                n = (r[m] - lo[m]) / (hi[m] - lo[m])
                n = min(1.0, max(0.0, n))
            norm[m] = n
            directed = n if cfg.directions.get(m, True) else 1.0 - n
            agg += w[m] * directed
        cards[f] = ScoreCard(raw=dict(r), normalized=norm, aggregate=agg,
                             hypothesis=f not in derived_set)
    return cards


def score_all(facts: FactSet, dag: DerivationDag, d0: Iterable[Fact],
              cfg: MetricConfig) -> Dict[Fact, ScoreCard]:
    """Two-pass scoring of every fact; normalization over derived facts only."""
    all_facts = facts.sorted_facts()
    derived = [f for f in all_facts if f in dag]

    raw = _raw_scores(all_facts, dag, hypothesis_pairs(d0))
    cards = _normalize(raw, derived, cfg)
    provisional = {f for f in derived if cards[f].aggregate >= cfg.threshold}

    useful = usefulness(dag, provisional)
    for f in all_facts:
        raw[f]["usefulness"] = float(useful[f])
    return _normalize(raw, derived, cfg)


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
            threshold = float(value)
        elif key == "top_k":
            top_k = int(value)
        elif key.startswith("weight."):
            m = key[len("weight."):]
            if m not in METRICS:
                raise ValueError(f"metric config line {lineno}: unknown metric {m!r}")
            weights[m] = float(value)
        elif key.startswith("direction."):
            m = key[len("direction."):]
            if m not in METRICS or value not in ("higher", "lower"):
                raise ValueError(f"metric config line {lineno}: bad direction entry")
            directions[m] = value == "higher"
        else:
            raise ValueError(f"metric config line {lineno}: unknown key {key!r}")
    return MetricConfig(weights=weights, directions=directions,
                        threshold=threshold, top_k=top_k)


def filter_interesting(scores: Dict[Fact, ScoreCard],
                       cfg: MetricConfig) -> List[Tuple[Fact, ScoreCard]]:
    """Derived facts above threshold, best first; top_k truncation if set."""
    picked = [(f, s) for f, s in scores.items()
              if not s.hypothesis and s.aggregate >= cfg.threshold]
    picked.sort(key=lambda fs: (-fs[1].aggregate, str(fs[0])))
    if cfg.top_k:
        picked = picked[:cfg.top_k]
    return picked
