"""Acceptance suite: one test per criterion, printing a pass line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.
"""

import json
import pathlib
import time

import pytest

from geodeduce import (initial_facts, make_fact, parse_construction,
                       parse_rules, saturate, verify)
from geodeduce.engine import JoinState, derive_round
from geodeduce.facts import is_tautology
from geodeduce.numeric import DegenerateModelError, eval_fact, sample_models
from geodeduce.pipeline import (PipelineConfig, SoundnessViolationError,
                                emit_report, run_pipeline)
from geodeduce.scoring import (MetricConfig, adaptivity, complexity,
                               filter_interesting, focus, hypothesis_pairs,
                               hypotheses_used, intensity, obviousness, score_all,
                               surprisingness, weight)

from conftest import naive_plans
from fuzzing import random_construction_text

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _ok(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_pappus(pappus):
    start = time.time()
    v = verify(make_fact("coll", "G", "H", "I"), pappus, n_models=100,
               tol_rel=1e-8, master_seed=0)
    elapsed = time.time() - start
    assert v.kind == "holds"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _ok(1, f"coll(G,H,I) holds on 100 models in {elapsed * 1000:.0f} ms")


def test_criterion_2_fixpoint_chain(default_rules):
    from conftest import BUNDLED, load_construction
    for name in BUNDLED:
        c = load_construction(name)
        res = saturate(initial_facts(c), default_rules, max_rounds=10)
        assert res.stop_reason == "fixpoint", name
        assert res.dag.rounds <= 10
        # chain is monotone: every fact keeps its entry round, premises older
        for node in res.dag.derivations():
            assert res.dag.node(node.fact) is node
            for p in node.premises:
                assert res.dag.node(p).round < node.round
        with naive_plans():
            extra, _, _ = derive_round(JoinState(res.dag, default_rules))
        assert extra == [], name
    _ok(2, "all bundled examples reach a stable fixpoint within 10 rounds")


def test_criterion_3_midline(midline, default_rules):
    res = saturate(initial_facts(midline), default_rules)
    target = make_fact("para", "M", "N", "B", "C")
    assert target in res.dag and res.dag.node(target).round == 1
    assert obviousness(target, res.dag) == 1
    rep = run_pipeline(midline, default_rules, PipelineConfig())
    assert emit_report(rep, "text") == (GOLDEN / "midline_report.txt").read_text()
    _ok(3, "midline theorem at round 1, obviousness 1, trace matches golden file")


def test_criterion_4_inscribed_angle_chain(inscribed, default_rules):
    res = saturate(initial_facts(inscribed), default_rules)
    cyc = make_fact("cyclic", "A", "B", "C", "D")
    assert cyc in res.dag
    eqangles = [f for f in res.dag if f.pred == "eqangle"]
    assert eqangles
    assert verify(cyc, inscribed, n_models=100).kind == "holds"
    for f in eqangles:
        assert verify(f, inscribed, n_models=100).kind == "holds", str(f)
    _ok(4, f"cyclic(A,B,C,D) + {len(eqangles)} eqangle facts hold on 100 models")


def test_criterion_5_soundness_sweep(default_rules):
    checked = skipped = 0
    for seed in range(200):
        c = parse_construction(random_construction_text(seed, max_points=8))
        res = saturate(initial_facts(c), default_rules, max_facts=500)
        try:
            models = sample_models(c, 5, master_seed=seed)
        except DegenerateModelError:
            skipped += 1
            continue
        for f in res.dag:
            node = res.dag.node(f)
            if node.rule is None or node.conditional:
                continue
            checked += 1
            for m in models:
                assert eval_fact(m, f), \
                    f"soundness violation: {f} (rule {node.rule}) seed {m.seed}"
    assert checked > 500  # the sweep must actually exercise the rules
    _ok(5, f"{checked} unconditional derived facts hold on 5 models "
           f"({skipped} degenerate constructions skipped)")


def test_criterion_6_oracle_equivalence(default_rules):
    from conftest import BUNDLED, load_construction
    cases = [load_construction(n) for n in BUNDLED]
    cases += [parse_construction(random_construction_text(1000 + s))
              for s in range(50)]
    for c in cases:
        d0 = initial_facts(c)
        with naive_plans():
            a = saturate(d0, default_rules, max_facts=400)
        b = saturate(d0, default_rules, max_facts=400)
        assert {f: a.dag.node(f).round for f in a.dag} == \
               {f: b.dag.node(f).round for f in b.dag}
        assert a.dag.rounds == b.dag.rounds and a.stop_reason == b.stop_reason
    _ok(6, "semi-naive equals naive on 3 bundled + 50 fuzz cases")


def test_criterion_7_runtime_filter(midline, default_rules):
    # tautology-producing rule: conclusions never reach any report
    taut_rule = parse_rules(
        "rule taut_inject: midp(M,A,B) => cong(M,A,M,A)\n")
    rep = run_pipeline(midline, default_rules + taut_rule, PipelineConfig())
    assert not any(is_tautology(r.fact) for r in rep.records)
    assert rep.discarded["tautologies"] > 0

    # unsound rule: empirical filter reports a witnessing seed
    unsound = parse_rules("rule unsound: midp(M,A,B) => perp(A,M,A,B)\n")
    with pytest.raises(SoundnessViolationError) as err:
        run_pipeline(midline, default_rules + unsound, PipelineConfig())
    assert err.value.seed is not None and err.value.rule == "unsound"
    _ok(7, f"tautologies filtered; unsound rule caught with seed {err.value.seed}")


def test_criterion_8_metric_suite(midline, default_rules):
    d0 = initial_facts(midline)
    res = saturate(d0, default_rules)
    para = make_fact("para", "M", "N", "B", "C")
    cong = make_fact("cong", "M", "A", "M", "B")
    assert weight(cong) == 5
    assert complexity(cong.points()) == 4
    assert surprisingness(para.points(), hypothesis_pairs(d0)) == pytest.approx(4 / 6)
    assert intensity(para.points(), hypotheses_used(para, res.dag)) == pytest.approx(0.2)
    assert focus(para, hypotheses_used(para, res.dag)) == pytest.approx(1 / 3)
    assert adaptivity(cong) == pytest.approx(0.25)
    for h in d0:
        assert obviousness(h, res.dag) == 0

    cfg = MetricConfig()
    scores = score_all(res.dag, cfg)
    for card in scores.values():
        assert all(0.0 <= v <= 1.0 for v in card.normalized.values())
        assert 0.0 <= card.aggregate <= 1.0

    # ranking invariance under consistent renaming
    renamed = parse_construction("point X Y Z\nmidpoint U X Y\nmidpoint V X Z\n")
    res2 = saturate(initial_facts(renamed), default_rules)
    scores2 = score_all(res2.dag, cfg)
    r1 = sorted(s.aggregate for _, s in filter_interesting(scores, cfg))
    r2 = sorted(s.aggregate for _, s in filter_interesting(scores2, cfg))
    assert r1 == pytest.approx(r2)
    _ok(8, "all metric values exact; normalization bounded; ranking "
           "renaming-invariant")


def test_criterion_9_determinism(default_rules):
    from conftest import BUNDLED, load_construction
    cfg = PipelineConfig(master_seed=17)
    for name in BUNDLED:
        c = load_construction(name)
        a = emit_report(run_pipeline(c, default_rules, cfg), "json")
        b = emit_report(run_pipeline(c, default_rules, cfg), "json")
        assert a.encode() == b.encode(), name
        json.loads(a)
    _ok(9, "byte-identical JSON reports for identical inputs + master seed")


def test_criterion_10_filtered_subset(default_rules):
    from conftest import BUNDLED, load_construction
    for name in BUNDLED:
        c = load_construction(name)
        fix = run_pipeline(c, default_rules, PipelineConfig(mode="fixpoint"))
        fil = run_pipeline(c, default_rules, PipelineConfig(mode="filtered"))
        assert {r.fact for r in fil.records} <= {r.fact for r in fix.records}, name
    _ok(10, "filtered-mode fact lists are subsets of fixpoint mode")
