"""End-to-end pipeline behaviour and report serialization."""

import functools
import hashlib
import json
import pathlib
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import BUNDLED, VARIGNON, concyclic_text, feet_text, naive_plans
from geodeduce import make_fact, parse_construction, parse_rules
from geodeduce.facts import Fact
from geodeduce.pipeline import (MODES, FactRecord, PipelineConfig, Report,
                                SoundnessViolationError, emit_report, run_pipeline)
from geodeduce.scoring import DEFAULT_DIRECTIONS, METRICS, MetricConfig, ScoreCard

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_midline_fixpoint_report(midline, default_rules):
    rep = run_pipeline(midline, default_rules, PipelineConfig())
    para = next(r for r in rep.records if r.fact == make_fact("para", "M", "N", "B", "C"))
    assert para.interesting
    assert para.rule == "midline" and para.round == 1
    assert rep.discarded["empirically_false"] == 0
    assert rep.stop_reason == "fixpoint"


# a tolerance of 1 or more holds every coll, para, perp, midp, cong and
# eqangle test on every model; nan holds none
@pytest.mark.parametrize("kwargs", [{"mode": "filtered", "max_rounds": 0},
                                    {"max_facts": 0}, {"seeds": 0},
                                    {"mode": "exhaustive"},
                                    {"tol": -1.0}, {"tol": 0.0}, {"tol": 1.0},
                                    {"tol": float("inf")}, {"tol": float("nan")},
                                    {"master_seed": -1},
                                    {"seeds": 2.5}, {"master_seed": 0.5},
                                    {"max_rounds": 3.0}, {"max_facts": 2.5},
                                    {"seeds": "5"}, {"master_seed": None},
                                    {"strict_sides": "no"}, {"strict_sides": 1}])
def test_pipeline_config_rejects_bad_fields(kwargs):
    with pytest.raises(ValueError, match=[*kwargs][-1]):  # names the field
        PipelineConfig(**kwargs)


def test_pipeline_config_stores_numpy_integers_as_int(midline):
    cfg = PipelineConfig(seeds=np.int64(3), master_seed=np.int64(2))
    assert type(cfg.seeds) is int and type(cfg.master_seed) is int
    report = json.loads(emit_report(run_pipeline(midline, [], cfg), "json"))
    assert (report["seeds"], report["master_seed"]) == (3, 2)


def test_empty_rules(midline):
    rep = run_pipeline(midline, [], PipelineConfig())
    assert all(r.rule is None for r in rep.records)
    assert rep.rounds == 0 and rep.stop_reason == "fixpoint"


def test_rule_set_memo_checks_each_run(midline, default_rules):
    # the digest and each rule's unbound points are kept per rule tuple, but
    # every run checks them against its own construction's points
    rules = parse_rules("rule r: coll(A,B,C), non_collinear(A,B,z) => para(A,B,y,C)")
    with_y = parse_construction(midline.source() + "point y z\n")
    run = functools.partial(run_pipeline, rules=rules, cfg=PipelineConfig())
    for construction in (midline, with_y, midline):
        if construction is with_y:
            run(construction)
        else:
            with pytest.raises(ValueError, match="^rule r: point y is not in the construction$"):
                run(construction)
    # two rule lists in one process: one digest each, that of the rules' text by name
    for rule_list in (default_rules, default_rules[:-1], default_rules):
        text = "\n".join(str(r) for r in sorted(rule_list, key=lambda r: r.name))
        digest = run_pipeline(midline, rule_list, PipelineConfig()).rules_digest
        assert digest == hashlib.sha256(text.encode()).hexdigest()[:16]


def test_pappus_all_verdicts_hold(pappus, default_rules):
    rep = run_pipeline(pappus, default_rules, PipelineConfig())
    facts = json.loads(emit_report(rep, "json"))["facts"]
    assert facts and all(f["verdict"] == "holds" for f in facts)


def test_inscribed_pipeline(inscribed, default_rules):
    rep = run_pipeline(inscribed, default_rules, PipelineConfig())
    facts = {r.fact for r in rep.records}
    assert make_fact("cyclic", "A", "B", "C", "D") in facts
    assert any(f.pred == "eqangle" for f in facts)


def test_unsound_rule_aborts_with_seed(midline, default_rules):
    # AM lies along AB, so this perp conclusion is plainly unsound
    bad = parse_rules("rule bogus: midp(M,A,B) => perp(A,M,A,B)\n")
    with pytest.raises(SoundnessViolationError) as err:
        run_pipeline(midline, default_rules + bad, PipelineConfig())
    assert err.value.seed is not None
    assert err.value.rule == "bogus"


def test_tautologies_never_reported(bundled, default_rules):
    from geodeduce.facts import is_tautology
    rep = run_pipeline(bundled, default_rules, PipelineConfig())
    assert not any(is_tautology(r.fact) for r in rep.records)


def _case(name):
    """A bundled example by name, or fuzz figure s as ``fuzz<s>``."""
    from conftest import load_construction
    from fuzzing import random_construction_text
    if name.startswith("fuzz"):
        s = int(name[len("fuzz"):])
        return parse_construction(random_construction_text(s, max_points=8 + s % 5))
    return load_construction(name)


@pytest.mark.parametrize("name", BUNDLED + tuple(f"fuzz{s}" for s in range(20)))
def test_filtered_subset_of_fixpoint(name, default_rules):
    from geodeduce.numeric import DegenerateModelError
    c = _case(name)
    cfg_fix = PipelineConfig(mode="fixpoint")
    cfg_fil = PipelineConfig(mode="filtered")
    try:
        fix = run_pipeline(c, default_rules, cfg_fix)
    except DegenerateModelError:
        # both modes sample the same models before anything else
        with pytest.raises(DegenerateModelError):
            run_pipeline(c, default_rules, cfg_fil)
        return
    fil = run_pipeline(c, default_rules, cfg_fil)
    assert {r.fact for r in fil.records} <= {r.fact for r in fix.records}


@pytest.mark.parametrize("name", BUNDLED + tuple(f"fuzz{s}" for s in range(30)))
def test_memoised_scoring_equals_fresh_scoring(name, default_rules, monkeypatch):
    """The final scores, computed with the memo that every round filled,
    equal the scores of the same graph computed afresh, exactly: a fact
    never comes back with another derivation within a run."""
    from geodeduce import pipeline
    from geodeduce.numeric import DegenerateModelError
    real = pipeline.score_all
    calls = []

    def checked(dag, cfg, memo):
        scores = real(dag, cfg, memo)
        assert scores == real(dag, cfg)
        calls.append(len(dag))
        return scores

    monkeypatch.setattr(pipeline, "score_all", checked)
    try:
        run_pipeline(_case(name), default_rules, PipelineConfig(mode="filtered"))
    except DegenerateModelError:
        assert not calls  # no model could be sampled, so nothing was scored
        return
    assert calls


def test_raw_metrics_once_per_fact(default_rules, monkeypatch):
    """A filtered run computes each fact's raw metrics once, however many
    rounds score it again: one ancestor walk per fact that entered a trial
    graph or the final ranking."""
    from geodeduce import pipeline
    from geodeduce.engine import DerivationDag
    from geodeduce.numeric import DegenerateModelError
    walks, scored = Counter(), set()
    ancestors, real = DerivationDag.ancestors, pipeline.interesting_among
    trial_facts = 0  # facts scored by a round, counted once per round

    def counted(dag, fact):
        walks[fact] += 1
        return ancestors(dag, fact)

    def among(trial, facts, cfg, memo):
        nonlocal trial_facts
        scored.update(trial)
        trial_facts += len(trial)
        return real(trial, facts, cfg, memo)

    monkeypatch.setattr(DerivationDag, "ancestors", counted)
    monkeypatch.setattr(pipeline, "interesting_among", among)
    walked = 0
    for s in range(10):
        walks.clear()
        scored.clear()
        try:
            rep = run_pipeline(_case(f"fuzz{s}"), default_rules, PipelineConfig(mode="filtered"))
        except DegenerateModelError:
            continue
        scored.update(r.fact for r in rep.records)
        assert walks == Counter(scored), s
        walked += len(scored)
    assert trial_facts > walked  # later rounds score the earlier facts again


# the default, top_k ranking, lower thresholds, flipped directions and a heavy usefulness
ROUND_CONFIGS = {
    "default": MetricConfig(),
    "top2": MetricConfig(top_k=2),
    "t0.3-top3": MetricConfig(threshold=0.3, top_k=3),
    "t0.35": MetricConfig(threshold=0.35),
    "flipped": MetricConfig(directions={m: not up for m, up in DEFAULT_DIRECTIONS.items()}),
    "useful5-top1": MetricConfig(weights={**dict.fromkeys(METRICS, 1.0), "usefulness": 5.0},
                                 top_k=1),
}


@pytest.mark.parametrize("metrics", ROUND_CONFIGS.values(), ids=ROUND_CONFIGS.keys())
@pytest.mark.parametrize("name", BUNDLED + tuple(f"fuzz{s}" for s in range(30)))
def test_round_picks_what_full_ranking_picks(name, metrics, default_rules, monkeypatch):
    """Every filtered round keeps exactly the survivors that the full ranking,
    score cards for the trial graph computed afresh, judges interesting."""
    from geodeduce import pipeline
    from geodeduce.numeric import DegenerateModelError
    from geodeduce.scoring import filter_interesting, score_all
    real = pipeline.interesting_among
    rounds = []

    def checked(trial, facts, cfg, memo):
        got = real(trial, facts, cfg, memo)
        picked = {f for f, _ in filter_interesting(score_all(trial, cfg), cfg)}
        assert got == picked & set(facts)
        rounds.append(got)
        return got

    monkeypatch.setattr(pipeline, "interesting_among", checked)
    try:
        rep = run_pipeline(_case(name), default_rules,
                           PipelineConfig(mode="filtered", metrics=metrics))
    except DegenerateModelError:
        assert not rounds  # no model could be sampled, so nothing was scored
        return
    assert len(rounds) == rep.rounds  # one call per round that had survivors


NAIVE_LADDER = {"circle6": concyclic_text(6), "feet8": feet_text(8)}


@pytest.mark.parametrize("metrics", [MetricConfig(), MetricConfig(top_k=2)],
                         ids=["default", "top2"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", BUNDLED + tuple(f"fuzz{s}" for s in range(20))
                         + tuple(NAIVE_LADDER))
def test_naive_equals_semi_naive_pipeline(name, mode, metrics, default_rules):
    """A whole run, either mode, reports the same under the naive reference
    as under the engine's semi-naive join; in filtered mode the graph grows
    only by each round's interesting survivors.  Only the tautology counter
    may differ: naive joins old facts with old facts again every round."""
    from geodeduce.numeric import DegenerateModelError
    c = parse_construction(NAIVE_LADDER[name]) if name in NAIVE_LADDER else _case(name)
    cfg = PipelineConfig(mode=mode, metrics=metrics)
    try:
        semi = run_pipeline(c, default_rules, cfg)
    except DegenerateModelError:
        return
    with naive_plans():
        naive = run_pipeline(c, default_rules, cfg)
    assert naive.records == semi.records
    assert (naive.rounds, naive.stop_reason) == (semi.rounds, semi.stop_reason)
    del naive.discarded["tautologies"], semi.discarded["tautologies"]
    assert naive.discarded == semi.discarded


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", BUNDLED)
def test_cold_memos_give_the_warm_report(name, mode, default_rules):
    """The process-level memos (compiled rules, kernel code, slot tables, draw prefixes)
    change no report byte: a run after clearing them equals a warm run."""
    from geodeduce import engine, numeric

    def report():
        return emit_report(run_pipeline(_case(name), default_rules,
                                        PipelineConfig(mode=mode)), "json")

    for memo in (engine.compile_rule, engine._kernel, engine._admitted, numeric._prefix):
        memo.cache_clear()
    cold = report()
    assert engine._admitted.cache_info().currsize > 0
    assert report() == cold


def test_filtered_run_compiles_each_rule_once(default_rules, monkeypatch):
    from geodeduce import engine
    calls = []

    def counted(rule, compile_rule=engine.compile_rule):
        calls.append(rule)
        return compile_rule(rule)

    monkeypatch.setattr(engine, "compile_rule", counted)
    rep = run_pipeline(_case("inscribed"), default_rules, PipelineConfig(mode="filtered"))
    assert rep.rounds >= 2
    # once each, and only the rules that can fire: no coll, midp, para or perp fact arises
    assert calls == [r for r in default_rules if r.name in (
        "equidist_cyclic", "inscribed_angle", "inscribed_converse", "eqangle_trans",
        "cong_trans")]


@pytest.mark.parametrize("strict_sides", [False, True])
@pytest.mark.parametrize("name", BUNDLED + tuple(f"fuzz{s}" for s in range(20)))
def test_carried_join_state_equals_fresh_in_filtered_run(name, strict_sides,
                                                         default_rules, monkeypatch):
    """Each round of a filtered run, which scores a trial copy of the graph
    between rounds and keeps only the interesting facts, derives with the
    run's one JoinState exactly what a fresh state derives."""
    from geodeduce import pipeline
    from geodeduce.engine import JoinState
    from geodeduce.numeric import DegenerateModelError
    real = pipeline.derive_round
    states = []

    def checked(state):
        got = real(state)
        fresh = JoinState(state.dag, default_rules, strict_sides=strict_sides)
        assert got == real(fresh), state.dag.rounds
        states.append(state)
        return got

    monkeypatch.setattr(pipeline, "derive_round", checked)
    try:
        run_pipeline(_case(name), default_rules,
                     PipelineConfig(mode="filtered", strict_sides=strict_sides))
    except DegenerateModelError:
        assert not states  # no model could be sampled, so nothing was derived
        return
    assert states and all(s is states[0] for s in states)


def test_blocked_fact_keeps_its_verdict_in_filtered_run(default_rules, monkeypatch):
    """A fact the run-time filter blocks never enters the graph, so the
    join keeps judging it a new fact.  Every round of a filtered run
    derives over the run's graph what the reference derives: under naive
    evaluation blocked facts again included, and under semi-naive, which
    joins only with the last round's facts, all but those blocked before."""
    from geodeduce import pipeline
    from conftest import EVALUATIONS, evaluating, reference_round
    real = pipeline.derive_round
    for evaluation in EVALUATIONS:
        derived, again = set(), set()

        def checked(state):
            got = real(state)
            want = reference_round(state.dag, default_rules)[0]
            blocked = derived - set(state.dag)
            if evaluation == "naive":
                assert got[0] == want, state.dag.rounds
            assert ([d for d in got[0] if d.fact not in blocked]
                    == [d for d in want if d.fact not in blocked]), state.dag.rounds
            assert {d.fact for d in got[0]} <= {d.fact for d in want}
            again.update(d.fact for d in got[0] if d.fact in blocked)
            derived.update(d.fact for d in got[0])
            return got

        with monkeypatch.context() as m, evaluating(evaluation):
            m.setattr(pipeline, "derive_round", checked)
            run_pipeline(_case("fuzz10"), default_rules, PipelineConfig(mode="filtered"))
        assert evaluation != "naive" or again


@pytest.mark.parametrize("strict_sides", [False, True])
@pytest.mark.parametrize("mode", ["fixpoint", "filtered"])
@pytest.mark.parametrize("name", BUNDLED)
def test_one_orbit_enumeration_per_graph_fact(name, mode, strict_sides, default_rules,
                                              monkeypatch):
    """A run takes each graph fact in once, as the join's state keeps its
    indexes across rounds: it computes the shape of each usable graph fact
    once, and under strict_sides none of a conditional one."""
    from geodeduce import engine, pipeline
    from geodeduce.construction import initial_facts
    calls, graphs = [], []
    shape, real = engine._shape, pipeline.derive_round
    monkeypatch.setattr(engine, "_shape", lambda args: calls.append(args) or shape(args))
    monkeypatch.setattr(pipeline, "derive_round",
                        lambda state: graphs.append(state.dag) or real(state))
    c = _case(name)
    rep = run_pipeline(c, default_rules, PipelineConfig(mode=mode, strict_sides=strict_sides))
    monkeypatch.undo()
    assert rep.stop_reason == "fixpoint"
    if mode == "fixpoint":  # the saturated graph, before the run-time filter
        dag = engine.saturate(initial_facts(c), default_rules, strict_sides=strict_sides).dag
    else:
        dag = graphs[-1]
        assert set(dag) == {r.fact for r in rep.records}
    assert Counter(calls) == Counter(f.args for f in dag
                                     if not (strict_sides and dag.node(f).conditional))


def _outcome(c, rules, mode):
    """The JSON report, or "degenerate" if no model could be sampled."""
    from geodeduce.numeric import DegenerateModelError
    try:
        return emit_report(run_pipeline(c, rules, PipelineConfig(mode=mode)), "json")
    except DegenerateModelError:
        return "degenerate"


@pytest.mark.parametrize("mode", ["fixpoint", "filtered"])
@pytest.mark.parametrize("name", BUNDLED + tuple(f"fuzz{s}" for s in range(10)))
def test_rule_order_does_not_change_the_report(name, mode, default_rules):
    c = _case(name)
    # with each rule twice under two names, every derived fact has two
    # derivations that tie but for the rule name
    twice = default_rules + [r._replace(name=f"{r.name}_again")
                             for r in default_rules]
    for rules in (default_rules, twice):
        want = _outcome(c, rules, mode)
        # reversed swaps every two rules that compete for one fact
        for order in (rules[::-1], random.Random(name).sample(rules, len(rules))):
            assert _outcome(c, order, mode) == want


def test_filtered_rounds_count_rounds_without_reported_facts(default_rules):
    # fuzz seed 26: round 2 derives a fact that passes the run-time filter
    # but is judged uninteresting, so no fact of round 2 is reported
    rep = run_pipeline(_case("fuzz26"), default_rules, PipelineConfig(mode="filtered"))
    assert rep.rounds == 2 and rep.stop_reason == "fixpoint"
    assert max(r.round for r in rep.records) == 1


@pytest.mark.parametrize("mode", MODES)
def test_varignon_rule_coverage(mode, default_rules):
    """On the Varignon figure midline makes each side of PQRS parallel to a
    diagonal, and para_trans, which wins on no bundled example, pairs the
    opposite sides."""
    rep = run_pipeline(parse_construction(VARIGNON), default_rules, PipelineConfig(mode=mode))
    assert Counter(r.rule for r in rep.records) == {None: 12, "midline": 4, "para_trans": 2}
    assert {str(r.fact) for r in rep.records if r.rule == "para_trans"} == {
        "para(P,Q,R,S)", "para(P,S,Q,R)"}


def test_json_report_deterministic(midline, default_rules):
    cfg = PipelineConfig()
    a = emit_report(run_pipeline(midline, default_rules, cfg), "json")
    b = emit_report(run_pipeline(midline, default_rules, cfg), "json")
    assert a == b
    payload = json.loads(a)
    assert payload["rounds"] == 1
    assert payload["facts"][0]["verdict"] == "holds"


def test_empty_report_is_valid_json(default_rules):
    from geodeduce import parse_construction
    c = parse_construction("point A B\n")
    rep = run_pipeline(c, default_rules, PipelineConfig())
    payload = json.loads(emit_report(rep, "json"))
    assert payload["facts"] == []


def test_text_report_matches_golden(midline, default_rules):
    rep = run_pipeline(midline, default_rules, PipelineConfig())
    assert emit_report(rep, "text") == (GOLDEN / "midline_report.txt").read_text()


def test_text_report_contains_trace(midline, default_rules):
    rep = run_pipeline(midline, default_rules, PipelineConfig())
    text = emit_report(rep, "text")
    assert "para(B,C,M,N) <= midline[midp(M,A,B), midp(N,A,C)]" in text


def test_master_seed_changes_models_not_facts(midline, default_rules):
    a = run_pipeline(midline, default_rules, PipelineConfig(master_seed=0))
    b = run_pipeline(midline, default_rules, PipelineConfig(master_seed=99))
    assert {r.fact for r in a.records} == {r.fact for r in b.records}


def test_filtered_report_matches_golden(inscribed, default_rules):
    rep = run_pipeline(inscribed, default_rules, PipelineConfig(mode="filtered"))
    golden = (GOLDEN / "inscribed_filtered.json").read_text()
    assert emit_report(rep, "json") == golden


# sha256 of the fixpoint JSON report on k concyclic points: the scaling
# ladder's figures, where rule symmetries multiply the join's bindings
LADDER_SHA256 = {
    5: "1c8146b8f2cfee619ae5138ba37f08fc4c4d5bbfe11c1bb4f1ecf207101017f0",
    6: "0e0fabae0df31bf6c70a87b56c41aaeff5be61d3b5a090f114b6c77c2e5cb23c",
    7: "95e5997712e56d0b305810ed51a56739b154a3debfc92226d8d0652a65b05de3",
}


@pytest.mark.parametrize("k", sorted(LADDER_SHA256))
def test_concyclic_ladder_reports_pinned(k, default_rules):
    from conftest import concyclic_text
    rep = run_pipeline(parse_construction(concyclic_text(k)), default_rules,
                       PipelineConfig())
    digest = hashlib.sha256(emit_report(rep, "json").encode()).hexdigest()
    assert digest == LADDER_SHA256[k]


def test_concyclic_text_names_every_point():
    from conftest import concyclic_text
    # the names once stopped at J, so k = 12 gave the k = 10 figure
    for k in (12, 25):  # k points on the circle, and its centre O
        points = parse_construction(concyclic_text(k)).points()
        assert len(set(points)) == len(points) == k + 1
    for k in range(2, 11):  # the pinned texts keep their bytes
        assert concyclic_text(k) == "point O A\n" + "".join(
            f"on_circle {p} O A\n" for p in "BCDEFGHIJ"[:k - 1])
    with pytest.raises(ValueError, match="at most 25 concyclic points"):
        concyclic_text(26)


# sha256 of the JSON report on the feet family, in both modes: para, perp
# and coll facts, whose orbits the matcher walks; at k = 14 one fact is
# conditional_failed
FEET_SHA256 = {
    ("fixpoint", 8): "5f6fde764d268e39600692fda9906e892be536380839dae8817578410b809f10",
    ("fixpoint", 12): "e3b4ced7b5c1693688e6cdb45e84f864e199f60ec1f0a5d8108504b19edcaa15",
    ("fixpoint", 14): "e9e975d7fe60607f9d118bbe8e36a14f945361784fb66dc5fb977bde5c4559d8",
    ("filtered", 8): "0ed7988f0b81cab4705ee48f919f13f5e0b04f6f126a0f097e18f9069d037277",
    ("filtered", 12): "fd4d0c96a75130c2471d51a7fa9932682737ef3c150a08fe7848573de8a4be62",
    ("filtered", 14): "7cee27e6637cec9e1291b7fafd7191859f663136604efcebbf64bd5c3bac679a",
}


@pytest.mark.parametrize("mode, k", sorted(FEET_SHA256))
def test_feet_reports_pinned(mode, k, default_rules):
    from conftest import feet_text
    rep = run_pipeline(parse_construction(feet_text(k)), default_rules,
                       PipelineConfig(mode=mode))
    digest = hashlib.sha256(emit_report(rep, "json").encode()).hexdigest()
    assert digest == FEET_SHA256[mode, k]


# unsound but conditional: perp is numerically false, so it is discarded;
# lift then derives the true para from it
BOGUS_MIDLINE = """\
rule bogus: midp(M,A,B), midp(N,A,C), non_collinear(A,B,C) => perp(M,N,B,C)
rule lift: perp(M,N,B,C), midp(M,A,B), midp(N,A,C) => para(M,N,B,C)
"""

# the same shape on any isosceles triangle: a false perp between the legs,
# and the true base-angle equality lifted from it
BOGUS_ISOSCELES = """\
rule bogus: cong(O,A,O,B), non_collinear(O,A,B) => perp(O,A,O,B)
rule lift: perp(O,A,O,B), cong(O,A,O,B) => eqangle(A,O,A,B,B,A,B,O)
"""


def _orphans(rep):
    """Premises of reported facts that are not reported themselves."""
    reported = {r.fact for r in rep.records}
    return [(r.fact, p) for r in rep.records for p in r.premises
            if p not in reported]


def test_fixpoint_discards_facts_derived_from_discarded(midline):
    rep = run_pipeline(midline, parse_rules(BOGUS_MIDLINE), PipelineConfig())
    assert _orphans(rep) == []
    assert rep.discarded["empirically_false"] == 1  # perp(B,C,M,N)
    assert rep.discarded["conditional_failed"] == 1  # para(B,C,M,N)
    assert all(r.rule is None for r in rep.records)


@pytest.mark.parametrize("mode", ["fixpoint", "filtered"])
def test_reported_premises_are_reported(mode, default_rules):
    from conftest import BUNDLED, load_construction
    from fuzzing import random_construction_text
    from geodeduce import parse_construction
    from geodeduce.numeric import DegenerateModelError
    cases = [load_construction(n) for n in BUNDLED]
    cases += [parse_construction(random_construction_text(seed, max_points=8))
              for seed in range(40)]
    rules = default_rules + parse_rules(BOGUS_ISOSCELES)
    cfg = PipelineConfig(mode=mode, max_facts=400)
    discarded = 0
    for c in cases:
        try:
            rep = run_pipeline(c, rules, cfg)
        except DegenerateModelError:
            continue
        assert _orphans(rep) == [], c.source()
        discarded += rep.discarded["empirically_false"]
    assert discarded > 0  # the injected rule must actually fire


@pytest.mark.parametrize("mode", ["fixpoint", "filtered"])
@pytest.mark.parametrize("k", [4, 5, 6])
def test_side_condition_that_held_is_not_evaluated_again(k, mode, default_rules,
                                                         monkeypatch):
    """A run evaluates a side condition that holds on every model once per
    model, however many derivations carry it: the models and tol are fixed
    for the run, so its verdict cannot change."""
    from geodeduce import pipeline
    real = pipeline.eval_condition
    log = []

    def logged(m, kind, args, tol):
        held = real(m, kind, args, tol)
        log.append(((kind, args), held))
        return held

    monkeypatch.setattr(pipeline, "eval_condition", logged)
    cfg = PipelineConfig(mode=mode)
    run_pipeline(parse_construction(concyclic_text(k)), default_rules, cfg)
    failed = {cond for cond, held in log if not held}
    calls = Counter(cond for cond, _ in log)
    assert calls
    assert all(n == cfg.seeds for cond, n in calls.items() if cond not in failed)


@pytest.mark.parametrize("mode", ["fixpoint", "filtered"])
def test_side_condition_that_failed_fails_every_derivation(mode):
    """Three facts, two of them with the same side condition, which fails
    on every model: all three are discarded, the last one too although its
    condition already failed for the first."""
    c = parse_construction("point A B\nmidpoint M A B\n")
    rules = parse_rules("rule r1: midp(M,A,B), non_collinear(M,A,B) => cong(A,B,A,M)\n"
                        "rule r2: midp(M,A,B), non_collinear(M,A,B) => para(M,A,M,B)\n")
    rep = run_pipeline(c, rules, PipelineConfig(mode=mode))
    assert rep.discarded["conditional_failed"] == 3
    assert all(r.rule is None for r in rep.records)


# --- the JSON writer against json.dumps -------------------------------------

def _round9(x):
    return float(f"{x:.9g}")


def reference_dict(report):
    """The report as the object whose json.dumps(sort_keys=True, indent=2)
    the JSON writer must reproduce (docs/report-schema.md)."""
    facts = []
    for rec in report.records:
        facts.append({
            "fact": str(rec.fact),
            "round": rec.round,
            "rule": rec.rule,
            "premises": [str(p) for p in rec.premises],
            "verdict": "holds",  # failing facts never reach a report
            "interesting": rec.interesting,
            "raw": {k: _round9(v) for k, v in rec.score.raw.items()},
            "normalized": {k: _round9(v) for k, v in rec.score.normalized.items()},
            "aggregate": _round9(rec.score.aggregate),
        })
    return {
        "construction": report.construction,
        "rules_digest": report.rules_digest,
        "mode": report.mode,
        "rounds": report.rounds,
        "stop_reason": report.stop_reason,
        "seeds": report.seeds,
        "master_seed": report.master_seed,
        "discarded": dict(report.discarded),
        "facts": facts,
    }


def reference_json(report):
    return json.dumps(reference_dict(report), sort_keys=True, indent=2) + "\n"


_EDGE_NUMBERS = [0.0, -0.0, 0, float("nan"), float("inf"), -float("inf"),
                 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e16, -1.2345678912e17,
                 1.7976931348623157e308, 9.9999999995, 0.12345678950000001,
                 1.0000000005, 123456789.5, 1, 3]
# a 9-digit mantissa and a half: the 9th digit lies on a rounding edge
_ROUNDING_EDGES = st.builds(lambda m, e, sign: sign * (m + 0.5) * 10.0 ** e,
                            st.integers(10**8, 10**9 - 1), st.integers(-330, 300),
                            st.sampled_from([1, -1]))
_NUMBERS = st.one_of(st.sampled_from(_EDGE_NUMBERS), _ROUNDING_EDGES,
                     st.floats(), st.integers(0, 10**6))
_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\té€ \U0001f600'),
                          st.characters()), max_size=6)
_FACTS = st.builds(lambda p, a: Fact(p, tuple(a)), _TEXT, st.lists(_TEXT, max_size=3))


@st.composite
def _score_cards(draw):
    def metrics():
        names = draw(st.permutations(METRICS))  # any insertion order
        return {m: draw(_NUMBERS) for m in names}
    return ScoreCard(raw=metrics(), normalized=metrics(), aggregate=draw(_NUMBERS),
                     hypothesis=draw(st.booleans()))


_RECORDS = st.builds(FactRecord, fact=_FACTS, round=st.integers(0, 10**20),
                     rule=st.none() | _TEXT, premises=st.lists(_FACTS, max_size=3).map(tuple),
                     score=_score_cards(), interesting=st.booleans())
_DISCARDED = st.dictionaries(
    st.sampled_from(["tautologies", "empirically_false", "conditional_failed"]) | _TEXT,
    st.integers(0, 10**20), max_size=5)
_REPORTS = st.builds(Report, construction=_TEXT, rules_digest=_TEXT, mode=_TEXT,
                     rounds=st.integers(0, 10**20), stop_reason=_TEXT,
                     records=st.lists(_RECORDS, max_size=4), discarded=_DISCARDED,
                     seeds=st.integers(0, 10**20), master_seed=st.integers(0, 10**20))


@settings(max_examples=300, deadline=None)
@given(_REPORTS)
def test_json_writer_equals_reference_encoder(report):
    assert emit_report(report, "json") == reference_json(report)


@pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0), (0, -0.0, 0.0, -0.0)])
def test_json_writer_keeps_the_sign_of_zero(zeros):
    card = ScoreCard(raw={m: zeros[i % len(zeros)] for i, m in enumerate(METRICS)},
                     normalized={m: zeros[-1 - i % len(zeros)] for i, m in enumerate(METRICS)},
                     aggregate=zeros[1], hypothesis=False)
    records = [FactRecord(make_fact("coll", "A", "B", "C"), 1, "r", (), card, True)]
    report = Report("point A B C\n", "d", "fixpoint", 1, "fixpoint", records * 2,
                    {"tautologies": 0}, 5, 0)
    out = emit_report(report, "json")
    assert out == reference_json(report)
    assert '"aggregate": %s,' % repr(float(zeros[1])) in out


def _real_runs():
    runs = [(name, mode, strict) for name in BUNDLED for mode in MODES
            for strict in (False, True)]
    runs += [(f"circle{k}", mode, False) for k in range(4, 9) for mode in MODES]
    runs += [(f"feet{k}", mode, False) for k in (8, 12) for mode in MODES]
    # 20 fuzz figures: no model of seeds 3, 8, 9 and 14 can be sampled
    runs += [(f"fuzz{s}", mode, False) for s in range(24) if s not in (3, 8, 9, 14)
             for mode in MODES]
    return runs


@pytest.mark.parametrize("name, mode, strict_sides", _real_runs())
def test_json_writer_equals_reference_on_real_runs(name, mode, strict_sides,
                                                   default_rules):
    if name.startswith("circle"):
        c = parse_construction(concyclic_text(int(name[len("circle"):])))
    elif name.startswith("feet"):
        c = parse_construction(feet_text(int(name[len("feet"):])))
    else:
        c = _case(name)
    report = run_pipeline(c, default_rules,
                          PipelineConfig(mode=mode, strict_sides=strict_sides))
    out = emit_report(report, "json")
    assert out == reference_json(report)
    assert json.loads(out) == reference_dict(report)
