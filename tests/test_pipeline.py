"""End-to-end pipeline behaviour and report serialization."""

import json
import pathlib

import pytest

from geodeduce import make_fact, parse_rules
from geodeduce.pipeline import (PipelineConfig, SoundnessViolationError,
                                emit_report, run_pipeline)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_midline_fixpoint_report(midline, default_rules):
    rep = run_pipeline(midline, default_rules, PipelineConfig())
    para = next(r for r in rep.records if r.fact == make_fact("para", "M", "N", "B", "C"))
    assert para.interesting and para.verdict == "holds"
    assert para.rule == "midline" and para.round == 1
    assert rep.discarded["empirically_false"] == 0
    assert rep.stop_reason == "fixpoint"


def test_empty_rules(midline):
    rep = run_pipeline(midline, [], PipelineConfig())
    assert all(r.rule is None for r in rep.records)
    assert rep.rounds == 0 and rep.stop_reason == "fixpoint"


def test_pappus_all_verdicts_hold(pappus, default_rules):
    rep = run_pipeline(pappus, default_rules, PipelineConfig())
    assert all(r.verdict == "holds" for r in rep.records)


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


def test_filtered_subset_of_fixpoint(bundled, default_rules):
    cfg_fix = PipelineConfig(mode="fixpoint")
    cfg_fil = PipelineConfig(mode="filtered")
    fix = run_pipeline(bundled, default_rules, cfg_fix)
    fil = run_pipeline(bundled, default_rules, cfg_fil)
    assert {r.fact for r in fil.records} <= {r.fact for r in fix.records}


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
