"""The benchmark's tracer bindings, the report comparison tool and the
join row counter."""

import json
import runpy
import sys

import pytest

from conftest import ROOT

masked = runpy.run_path(str(ROOT / "tools" / "diff_reports.py"))["masked"]
join_rows = runpy.run_path(str(ROOT / "tools" / "join_rows.py"))


@pytest.fixture(scope="module")
def bench():
    """geobench's workloads and tracer modules, imported without writing
    bytecode under geobench/."""
    saved = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "geobench"))
    try:
        import tracer
        import workloads
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved
    return workloads, tracer


@pytest.mark.parametrize("name", ["circle4-fixpoint", "fuzz-filtered", "check100"])
def test_traced_seed0_inputs_call_exactly_the_live_bindings(bench, name):
    # the traced benchmark run fails on a binding the program no longer
    # calls, as when a refactor moves a call off the name the tracer wraps
    wk, tracer = bench
    wl = wk.WORKLOADS[name]
    rules, oracle = wk.load_rules(), wk.load_oracle(wl)
    tr = tracer.Tracer()
    tr.install()
    try:
        for inp in wk.select_inputs(wl, 0, oracle):
            out = wk.outcome(wl, inp, rules, tr)
            assert wk.check_outcome(inp, out, oracle[inp.key]) is None, inp.key
    finally:
        tr.uninstall()
    tr.check_bindings(wl.name, wl.live)


def _report(**fields):
    report = {"construction": "point A B\n", "discarded": {"tautologies": 0},
              "facts": [], "master_seed": 0, "mode": "fixpoint", "rounds": 1,
              "rules_digest": "0123456789abcdef", "seeds": 5, "stop_reason": "fixpoint"}
    return json.dumps({**report, **fields}, sort_keys=True, indent=2) + "\n"


def test_diff_reports_mask_removes_the_named_fields():
    old, new = _report(), _report(discarded={"tautologies": 3})
    assert masked(old, []) == old and masked(old, []) != masked(new, [])
    assert masked(old, ["discarded"]) == masked(new, ["discarded"])
    assert masked(old, ["rounds", "seeds"]) != masked(new, ["rounds", "seeds"])
    assert json.loads(masked(old, ["discarded", "rounds"])) == {
        k: v for k, v in json.loads(old).items() if k not in ("discarded", "rounds")}
    assert masked("error: ValueError: x", ["discarded"]) == "error: ValueError: x"


@pytest.mark.parametrize("figure", ["circle6", "feet8"])
def test_join_rows_counts_agree_with_the_saturation(default_rules, figure):
    # join_rows patches engine.JoinState and engine._judge and reads
    # engine.KNOWN, so an engine change can break its counts silently
    from geodeduce import engine, initial_facts, parse_construction
    hypotheses = initial_facts(parse_construction(join_rows["figure_text"](figure)))
    counts = join_rows["count"](engine, hypotheses, default_rules)
    sat = engine.saturate(hypotheses, default_rules)
    assert sum(c["tautologies"] for c in counts.values()) == sat.dropped_tautologies > 0
    assert all(c["known"] <= c["rows"] for c in counts.values())
    assert sum(c["judged"] for c in counts.values()) >= len(sat.dag) - len(hypotheses) > 0
