"""Interestingness metrics, normalization, aggregation and filtering."""

import pytest
from hypothesis import assume, example, given, strategies as st

from geodeduce import initial_facts, make_fact, saturate
from geodeduce.engine import Derivation, DerivationDag
from geodeduce.scoring import (METRICS, MetricConfig, ScoreCard, ScoreMemo,
                               adaptivity, complexity, filter_interesting, focus,
                               hypothesis_pairs, hypotheses_used, intensity,
                               interesting_among, obviousness, parse_metric_config,
                               score_all, surprisingness, usefulness, weight)


@pytest.fixture(scope="session")
def midline_sat(midline, default_rules):
    return saturate(initial_facts(midline), default_rules)


PARA = make_fact("para", "M", "N", "B", "C")
HYP = make_fact("midp", "M", "A", "B")


def test_obviousness(midline_sat):
    assert obviousness(HYP, midline_sat.dag) == 0
    assert obviousness(PARA, midline_sat.dag) == 1


def test_fact_not_in_graph_raises_key_error():
    """An unknown fact is neither a hypothesis nor derived: every question
    about its derivation fails alike."""
    h, f = make_fact("coll", "A", "B", "C"), make_fact("coll", "A", "B", "D")
    for dag in (DerivationDag(), DerivationDag([h])):
        for ask in (dag.node, lambda g: hypotheses_used(g, dag),
                    lambda g: obviousness(g, dag)):
            with pytest.raises(KeyError):
                ask(f)


def test_obviousness_closure_counts_shared_nodes():
    h1, h2 = make_fact("coll", "A", "B", "C"), make_fact("coll", "A", "B", "D")
    dag = DerivationDag([h1, h2])
    f1 = make_fact("coll", "B", "C", "D")
    f2 = make_fact("coll", "A", "C", "D")
    top = make_fact("coll", "C", "D", "E")
    dag.add(Derivation(f1, "r", (h1, h2), 1))
    dag.add(Derivation(f2, "r", (h1, h2), 1))
    dag.add(Derivation(top, "r", (f1, f2), 2))
    assert obviousness(top, dag) == 3  # two premise nodes + own node


def test_weight_and_complexity():
    assert weight(make_fact("coll", "A", "B", "C")) == 4
    assert complexity(make_fact("coll", "A", "B", "C")) == 4
    assert weight(make_fact("cong", "M", "A", "M", "B")) == 5
    assert complexity(make_fact("cong", "M", "A", "M", "B")) == 4
    eq = make_fact("eqangle", "C", "A", "C", "B", "D", "A", "D", "B")
    assert weight(eq) == 9 and complexity(eq) == 5


def test_surprisingness_midline(midline):
    d0 = list(initial_facts(midline))
    assert surprisingness(PARA, hypothesis_pairs(d0)) == pytest.approx(4 / 6)
    for h in d0:
        assert surprisingness(h, hypothesis_pairs(d0)) == 0.0


def test_intensity(midline_sat):
    dag = midline_sat.dag
    assert intensity(HYP, hypotheses_used(HYP, dag)) == 0.0
    assert intensity(PARA, hypotheses_used(PARA, dag)) == pytest.approx(0.2)


def test_intensity_full_coverage_is_zero():
    # a derived fact mentioning every leaf point scores 0
    h = make_fact("coll", "A", "B", "C")
    dag = DerivationDag([h])
    g = make_fact("midp", "A", "B", "C")
    dag.add(Derivation(g, "r", (h,), 1))
    assert intensity(g, hypotheses_used(g, dag)) == 0.0


def test_adaptivity():
    assert adaptivity(PARA) == 0.0
    assert adaptivity(make_fact("cong", "M", "A", "M", "B")) == pytest.approx(0.25)
    # 4 distinct points over 8 positions
    eq = make_fact("eqangle", "C", "A", "C", "B", "D", "A", "D", "B")
    assert adaptivity(eq) == pytest.approx(0.5)


def test_focus(midline_sat):
    sat_dag = midline_sat.dag
    assert focus(HYP, hypotheses_used(HYP, sat_dag)) == 1.0
    assert focus(PARA, hypotheses_used(PARA, sat_dag)) == pytest.approx(1 / 3)
    h = make_fact("midp", "M", "A", "B")
    dag = DerivationDag([h])
    f = make_fact("cong", "A", "M", "B", "M")
    dag.add(Derivation(f, "midp_split", (h,), 1))
    assert focus(f, hypotheses_used(f, dag)) == 0.0  # single leaf: |1-1|/2


def test_usefulness():
    h = make_fact("midp", "M", "A", "B")
    dag = DerivationDag([h])
    f = make_fact("cong", "A", "M", "B", "M")
    dag.add(Derivation(f, "midp_split", (h,), 1))
    assert usefulness(dag, set())[h] == 0
    assert usefulness(dag, {f})[h] == 1
    assert usefulness(dag, {f})[f] == 0


def test_score_all_midline(midline, midline_sat):
    cfg = MetricConfig()
    scores = score_all(midline_sat.dag, cfg)
    card = scores[PARA]
    assert not card.hypothesis
    # single derived fact: every metric is constant, normalized to 0.5
    assert all(v == 0.5 for v in card.normalized.values())
    assert card.aggregate == pytest.approx(0.5)
    for f, c in scores.items():
        assert 0.0 <= c.aggregate <= 1.0
        assert all(0.0 <= v <= 1.0 for v in c.normalized.values())
    picked = filter_interesting(scores, cfg)
    assert [f for f, _ in picked] == [PARA]
    # hypotheses never enter the ranking
    assert all(not s.hypothesis for _, s in picked)


def test_lighter_fact_ranks_higher():
    h = make_fact("midp", "M", "A", "B")
    dag = DerivationDag([h])
    light = make_fact("cong", "A", "M", "B", "M")
    heavy = make_fact("eqangle", "A", "M", "A", "B", "B", "M", "B", "A")
    for f in (light, heavy):
        dag.add(Derivation(f, "r", (h,), 1))
    cfg = MetricConfig(weights={"weight": 1.0})
    scores = score_all(dag, cfg)
    assert scores[light].aggregate > scores[heavy].aggregate


def test_threshold_edges(midline, midline_sat):
    d0 = initial_facts(midline)
    all_cfg = MetricConfig(threshold=0.0)
    none_cfg = MetricConfig(threshold=1.0 + 1e-9)
    scores = score_all(midline_sat.dag, all_cfg)
    assert len(filter_interesting(scores, all_cfg)) == 1
    assert filter_interesting(scores, none_cfg) == []
    top = MetricConfig(threshold=0.0, top_k=1)
    assert [f for f, _ in filter_interesting(scores, top)] == [PARA]


def test_ranking_invariant_under_point_renaming(midline, default_rules):
    from geodeduce import parse_construction
    renamed = parse_construction(
        "point P Q R\nmidpoint S P Q\nmidpoint T P R\n")
    cfg = MetricConfig(threshold=0.0)
    out = {}
    for c in (midline, renamed):
        sat = saturate(initial_facts(c), default_rules)
        scores = score_all(sat.dag, cfg)
        out[id(c)] = sorted(s.aggregate for _, s in filter_interesting(scores, cfg))
    a, b = out.values()
    assert a == pytest.approx(b)


def _reference_normalize(raw, derived, cfg):
    """Full ScoreCards for every fact, one metric at a time, as scoring did
    before the provisional pass computed aggregates only."""
    w = cfg.normalized_weights()
    lo = {m: min((raw[f][m] for f in derived), default=0.0) for m in METRICS}
    hi = {m: max((raw[f][m] for f in derived), default=0.0) for m in METRICS}
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
                             hypothesis=f not in derived)
    return cards


def _reference_surprisingness(f, hypotheses):
    """The share of f's point pairs that no single hypothesis names both of."""
    pts = sorted(f.points())
    pairs = [(p, q) for i, p in enumerate(pts) for q in pts[i + 1:]]
    if not pairs:
        return 0.0
    old = sum(any({p, q} <= h.points() for h in hypotheses) for p, q in pairs)
    return (len(pairs) - old) / len(pairs)


def _reference_rows(dag):
    """Every fact's raw metrics but usefulness, in METRICS order, computed afresh."""
    hypotheses = [f for f in dag if dag.node(f).rule is None]
    rows = {}
    for f in dag:
        leaves = hypotheses_used(f, dag)
        rows[f] = (float(obviousness(f, dag)), float(weight(f)), float(complexity(f)),
                   _reference_surprisingness(f, hypotheses), intensity(f, leaves),
                   adaptivity(f), focus(f, leaves))
    return rows


def _reference_score_all(dag, cfg, rows=None):
    """Both passes on full ScoreCards, from rows (fact -> raw metrics but
    usefulness), or from every raw metric computed afresh."""
    all_facts = sorted(dag, key=str)
    derived = [f for f in all_facts if dag.node(f).rule is not None]
    rows = _reference_rows(dag) if rows is None else rows
    raw = {f: dict(zip(METRICS, rows[f] + (0.0,))) for f in all_facts}
    cards = _reference_normalize(raw, derived, cfg)
    provisional = {f for f in derived if cards[f].aggregate >= cfg.threshold}
    useful = usefulness(dag, provisional)
    for f in all_facts:
        raw[f]["usefulness"] = float(useful[f])
    return _reference_normalize(raw, derived, cfg)


_VALUES = st.one_of(st.sampled_from([0.0, 1.0, 2.0]),
                    st.floats(0.0, 100.0, allow_nan=False))
_POINTS = "CDEFGHIJKLMN"


def _table(n_hyp, premises, values, weights, directions, threshold=0.5, top_k=0):
    """(dag, rows, cfg): n_hyp hypotheses, then one derived fact per entry of
    premises, derived from the earlier facts at those indexes; values[i] is
    the raw row (all metrics but usefulness) of the i-th fact."""
    facts = [make_fact("coll", "A", "B", p) for p in _POINTS[:n_hyp + len(premises)]]
    dag = DerivationDag(facts[:n_hyp])
    for i, picks in enumerate(premises, n_hyp):
        ps = tuple(facts[j] for j in picks)
        dag.add(Derivation(facts[i], "r", ps,
                           max([dag.rounds] + [dag.node(p).round + 1 for p in ps])))
    cfg = MetricConfig(weights=dict(zip(METRICS, weights)),
                       directions=dict(zip(METRICS, directions)),
                       threshold=threshold, top_k=top_k)
    return dag, dict(zip(facts, map(tuple, values))), cfg


@st.composite
def raw_tables(draw):
    """_table's (dag, rows, cfg) for up to 4 hypotheses and 7 derived facts,
    some metrics constant, some weights zero, random directions, thresholds
    and top_k."""
    n_hyp = draw(st.integers(1, 4))
    premises = [draw(st.lists(st.integers(0, n_hyp + i - 1), min_size=1, max_size=3,
                              unique=True)) for i in range(draw(st.integers(0, 7)))]
    n = n_hyp + len(premises)
    columns = [[draw(_VALUES)] * n if draw(st.booleans())
               else [draw(_VALUES) for _ in range(n)] for _ in METRICS[:-1]]
    weights = [draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 10.0)) for _ in METRICS]
    assume(any(weights))
    return _table(n_hyp, premises, list(zip(*columns)), weights,
                  [draw(st.booleans()) for _ in METRICS],
                  draw(st.sampled_from([0.0, 0.3, 0.5, 0.7])), draw(st.integers(0, 3)))


_UP = [True] * len(METRICS)
_FLIPPED = [False] * len(METRICS)


# hypotheses outside the derived facts' range in every metric: the clamp path
@example(_table(2, [[0], [1], [0, 2]],
                [[-5.0] * 7, [1e3] * 7, [1.0, 2.0, 3.0, 0.0, 0.5, 0.25, 1.0],
                 [2.0, 1.0, 0.0, 1.0, 0.25, 0.5, 0.0], [1.5] * 7],
                [1.0] * 8, _UP))
# a column constant over the derived facts but not the hypotheses: the 0.5 path
@example(_table(1, [[0], [1], [1, 2]],
                [[9.0] * 7, [3.0, 1.0, 2.0, 0.0, 0.5, 0.1, 0.2],
                 [3.0, 2.0, 1.0, 1.0, 0.5, 0.2, 0.3], [3.0, 0.0, 4.0, 0.5, 0.5, 0.3, 0.1]],
                [1.0] * 8, _UP, threshold=0.3))
# zero weights with flipped directions
@example(_table(2, [[0, 1], [2], [3, 0]],
                [[0.0] * 7, [1.0] * 7, [1.0, 4.0, 2.0, 0.5, 0.1, 0.0, 1.0],
                 [2.0, 3.0, 1.0, 0.25, 0.7, 0.5, 0.5], [4.0, 1.0, 5.0, 1.0, 0.3, 0.25, 0.0]],
                [0.0, 2.0, 0.0, 1.0, 0.0, 3.0, 0.0, 1.0], _FLIPPED, threshold=0.4))
@given(raw_tables())
def test_column_core_equals_reference(table):
    """The column-wise core gives the reference's score cards, aggregates bit
    for bit, and interesting_among picks what filter_interesting picks."""
    dag, rows, cfg = table
    memo = ScoreMemo(set(), raw=dict(rows))  # every row given: no metric is computed
    cards = score_all(dag, cfg, memo)
    assert cards == _reference_score_all(dag, cfg, rows)
    picked = {f for f, _ in filter_interesting(cards, cfg)}
    derived = [d.fact for d in dag.derivations()]
    for asked in (derived, derived[::2], derived[1:2]):
        assert interesting_among(dag, asked, cfg, memo) == picked & set(asked)
    assert memo.raw == rows


@pytest.mark.parametrize("case", [*range(10), "midline", "pappus", "inscribed"])
@pytest.mark.parametrize("cfg", [
    MetricConfig(),
    MetricConfig(weights={"weight": 2.0, "focus": 0.0, "usefulness": 3.0},
                 directions={"obviousness": False, "complexity": True},
                 threshold=0.3)])
def test_score_all_equals_reference(case, cfg, default_rules):
    from conftest import load_construction
    from fuzzing import random_construction_text
    from geodeduce import parse_construction
    c = (parse_construction(random_construction_text(case))
         if isinstance(case, int) else load_construction(case))
    dag = saturate(initial_facts(c), default_rules).dag
    assert score_all(dag, cfg) == _reference_score_all(dag, cfg)


def test_parse_metric_config():
    cfg = parse_metric_config(
        "threshold = 0.4\n"
        "top_k = 3\n"
        "weight.obviousness = 2\n"
        "direction.obviousness = lower\n"
        "# comment\n")
    assert cfg.threshold == 0.4 and cfg.top_k == 3
    assert cfg.weights["obviousness"] == 2.0
    assert cfg.directions["obviousness"] is False
    w = cfg.normalized_weights()
    assert sum(w.values()) == pytest.approx(1.0)


def test_parse_metric_config_errors():
    with pytest.raises(ValueError, match="unknown metric"):
        parse_metric_config("weight.nope = 1\n")
    with pytest.raises(ValueError, match="direction"):
        parse_metric_config("direction.weight = sideways\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_metric_config("threshold 0.5\n")
    for text in ("weight.weight = -3\n", "weight.focus = nan\n", "top_k = -1\n",
                 "threshold = nan\n", "threshold = abc\n", "top_k = 1.5\n",
                 "weight.focus = x\n", "weight.focus = inf\n"):
        with pytest.raises(ValueError, match="line 2"):
            parse_metric_config("threshold = 0.4\n" + text)


@pytest.mark.parametrize("kwargs", [{"top_k": -1},
                                    {"weights": {"weight": -0.5}},
                                    {"weights": {"focus": float("nan")}},
                                    {"weights": {"focus": float("inf")}},
                                    {"threshold": float("nan")},
                                    {"weights": {"obviousnes": 1.0, "weight": 1.0}},
                                    # all zero once failed only in scoring
                                    {"weights": {}}, {"weights": {"weight": 0.0}},
                                    {"weights": dict.fromkeys(METRICS, 0.0)}])
def test_metric_config_rejects_bad_fields(kwargs):
    with pytest.raises(ValueError):
        MetricConfig(**kwargs)


@pytest.mark.parametrize("direction", ["lower", "higher", 0, 1, None])
def test_metric_config_rejects_a_non_bool_direction(direction):
    # "lower" is truthy: it was once accepted and read as higher
    with pytest.raises(ValueError, match="direction of weight must be a bool"):
        MetricConfig(directions={"weight": direction})


@pytest.mark.parametrize("top_k", [1.5, 2.0, "2"])
def test_metric_config_rejects_a_non_integer_top_k(top_k):
    # a float top_k once passed and crashed filter_interesting's slice mid-run
    with pytest.raises(ValueError, match="top_k must be an integer"):
        MetricConfig(top_k=top_k)


def test_metric_config_stores_an_integer_top_k_as_int():
    np = pytest.importorskip("numpy")
    cfg = MetricConfig(top_k=np.int64(2))
    assert cfg.top_k == 2 and type(cfg.top_k) is int


def test_metric_config_names_an_unknown_metric():
    # a misspelt weight would otherwise weigh 0, a misspelt direction be ignored
    for kwargs, name in (({"weights": {"obviousnes": 1.0, "weight": 1.0}}, "obviousnes"),
                         ({"directions": {"focus": True, "surprise": False}}, "surprise")):
        with pytest.raises(ValueError, match=f"unknown metric '{name}'"):
            MetricConfig(**kwargs)


def _reference_closure(dag, fact):
    """The stack walk the stored closures replaced."""
    out, stack = set(), [fact]
    while stack:
        f = stack.pop()
        if f in out:
            continue
        out.add(f)
        stack.extend(dag.node(f).premises)
    return out


def _reference_ancestors(dag, fact):
    """The two separate walks the shared closure replaced."""
    out, stack = set(), [fact]
    while stack:
        f = stack.pop()
        node = dag.node(f)
        if node.rule is None or f in out:
            continue
        out.add(f)
        stack.extend(node.premises)
    return out


def _reference_leaf_ancestors(dag, fact):
    if dag.node(fact).rule is None:
        return {fact}
    leaves, seen, stack = set(), set(), [fact]
    while stack:
        f = stack.pop()
        if f in seen:
            continue
        seen.add(f)
        node = dag.node(f)
        if node.rule is None:
            leaves.add(f)
        else:
            stack.extend(node.premises)
    return leaves


def _reference_usefulness(f, dag, interesting):
    """The pairwise count the one-walk-per-interesting-fact Counter replaced."""
    count = 0
    for g in interesting:
        if g == f or dag.node(g).rule is None:
            continue
        if f in _reference_ancestors(dag, g) or f in _reference_leaf_ancestors(dag, g):
            count += 1
    return count


@pytest.mark.parametrize("case", [*range(10), "midline", "pappus", "inscribed"])
def test_closure_walks_equal_reference(case, default_rules):
    from conftest import load_construction
    from fuzzing import random_construction_text
    from geodeduce import parse_construction
    c = (parse_construction(random_construction_text(case))
         if isinstance(case, int) else load_construction(case))
    res = saturate(initial_facts(c), default_rules)
    dag = res.dag
    facts = sorted(dag, key=str)
    derived = [f for f in facts if dag.node(f).rule is not None]
    for interesting in (set(facts), set(derived), set(derived[::2])):
        useful = usefulness(dag, interesting)
        for f in facts:
            assert useful[f] == _reference_usefulness(f, dag, interesting), f
    for f in facts:
        assert dag.closure(f) == _reference_closure(dag, f), f
        assert dag.ancestors(f) == _reference_ancestors(dag, f), f
        assert dag.leaf_ancestors(f) == _reference_leaf_ancestors(dag, f), f
