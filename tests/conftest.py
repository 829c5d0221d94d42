"""Fixtures, figures and references shared by the tests.

The join's one entry is ``engine.derive_round``, and ``reference_round``
below is its one reference: naive evaluation written out plainly, which
shares only ``orbit``, ``canonicalize`` and the ``PREDICATES`` verdicts
with the engine.  A test of what the join derives reads what the join
returns: the derivations and drop counters of ``derive_round``, and the
graph that ``saturate`` builds.  It reads no row a kernel draws and no
entry of a verdict store, which the engine may change without changing
one derivation.  The derivations, and under ``naive_plans`` the
tautology counter, are held to ``reference_round``.  The degenerate
counter is compared engine against engine only, a carried state against
a fresh one: it leaves out the bindings that the kernels' loop tests rule
out, the reference has no loop tests, and only the benchmark's tracer
reads it.  A cost contract counts calls of ``engine._judge`` or
``engine._shape``, which outlive a change of the kernels' internals.
"""

import contextlib
import functools
import pathlib
import runpy
from unittest import mock

import pytest

from geodeduce import engine, parse_construction, parse_rules
from geodeduce.engine import Derivation, DerivationDag
from geodeduce.facts import PREDICATES, Fact, canonicalize, orbit
from geodeduce.rules import is_variable

ROOT = pathlib.Path(__file__).resolve().parent.parent

# the ladder, Varignon and two-circle figures, kept in the tool that
# compares their reports
_LADDERS = runpy.run_path(str(ROOT / "tools" / "diff_reports.py"))
concyclic_text, feet_text = _LADDERS["concyclic_text"], _LADDERS["feet_text"]
VARIGNON, TWO_CIRCLES = _LADDERS["VARIGNON"], _LADDERS["TWO_CIRCLES"]
CONSTANT_RULES = _LADDERS["CONSTANT_RULES"]

_compile_rule = engine.compile_rule  # while naive_plans runs, engine's is the patch


@contextlib.contextmanager
def naive_plans():
    """Naive evaluation, the reference that the engine's semi-naive join
    must agree with (Bancilhon & Ramakrishnan 1986): while it runs, every
    rule that a JoinState, or saturate's, compiles has one plan, each slot
    over ALL, so each round joins every fact with every fact."""
    def naive(rule):
        compiled = _compile_rule(rule)
        return compiled._replace(plans=((engine.ALL,) * len(compiled.slots),))

    with mock.patch.object(engine, "compile_rule", naive):
        yield


def shaped(facts):
    """The facts with their shapes, as JoinState.take_in hands them to engine._index."""
    return [(f, engine._shape(f.args)) for f in facts]


def reference_join(rule, facts):
    """Every binding of the rule's premises over the facts, as (variable ->
    point, facts used), in the order of a backtracking walk: premise by
    premise, over the facts of its predicate in the order given, then over
    each fact's orbit variants that fit the premise, equal variants once.
    A variant fits if it has the premise's constants and repeats a point
    where the premise repeats a variable.  No side condition is read.  The
    fits are hashed on the variables bound by earlier premises, which finds
    the rows nested loops would find, in their order."""
    steps, bound = [], set()
    for pattern in rule.premises:
        shared = [a for a in dict.fromkeys(pattern.args) if is_variable(a) and a in bound]
        fits = {}
        for f in facts:
            if f.pred != pattern.pred:
                continue
            for v in dict.fromkeys(orbit(f)):
                b = {}
                if all(b.setdefault(p, x) == x if is_variable(p) else p == x
                       for p, x in zip(pattern.args, v)):
                    fits.setdefault(tuple(b[a] for a in shared), []).append((f, b))
        steps.append((shared, fits))
        bound.update(a for a in pattern.args if is_variable(a))

    def walk(i, binding, used):
        shared, fits = steps[i]
        for f, more in fits.get(tuple(binding[a] for a in shared), ()):
            if i + 1 < len(steps):
                yield from walk(i + 1, {**binding, **more}, used + (f,))
            else:
                yield {**binding, **more}, used + (f,)

    return walk(0, {}, ())


def reference_round(dag, rules, strict_sides=False):
    """The round that derive_round must find next over the graph, by naive
    evaluation with no symmetry breaking, verdict store or loop tests:
    (derivations sorted by fact, tautologies counted).  Every rule is joined
    over every usable graph fact; under strict_sides a conditional fact
    serves as no premise.  A binding gives nothing if a distinct side names
    one point twice or the graph holds its conclusion.  Each other
    conclusion is canonicalized and judged: a tautology is counted, a
    degenerate fact dropped, and every other fact keeps its least (rule
    name, facts used), the first drawn among equals, with the numeric side
    conditions of that binding and of its premises."""
    usable = [f for f in dag if not (strict_sides and dag.node(f).conditional)]
    best, n_taut = {}, 0
    for rule in rules:
        distinct = [s.args for s in rule.side_conditions if s.pred == "distinct"]
        head, canonical = rule.conclusion.args, {}  # conclusion arguments -> its fact
        for b, used in reference_join(rule, usable):
            # b.get(a, a): a variable's point, or the point constant a
            if distinct and any(b.get(x, x) == b.get(y, y) for x, y in distinct):
                continue
            args = tuple(map(b.get, head, head))
            f = canonical.get(args)
            if f is None:
                f = canonical[args] = canonicalize(Fact(rule.conclusion.pred, args))
            if f in dag:
                continue
            if PREDICATES[f.pred].tautology(f.args):
                n_taut += 1
            elif not PREDICATES[f.pred].degenerate(f.args) and (
                    f not in best or (rule.name, used) < best[f][0]):
                best[f] = ((rule.name, used), rule, b)
    out = []
    for f in sorted(best):
        (name, used), rule, b = best[f]
        conds = {Fact(s.pred, tuple(map(b.get, s.args, s.args))) for s in rule.numeric_sides}
        for p in used:
            conds.update(dag.node(p).conditions)
        out.append(Derivation(f, name, used, dag.rounds + 1, tuple(sorted(conds))))
    return out, n_taut


@functools.lru_cache(maxsize=None)
def reference_rounds(hypotheses, rules, strict_sides=False):
    """reference_round from the hypotheses, a tuple, under the rules, a
    tuple, each round's derivations added to the graph, until a round
    derives nothing or 10 rounds, saturate's default budget, have run: one
    (derivations, a tuple, n_tautologies) per round run."""
    dag = DerivationDag(hypotheses)
    out = []
    while len(out) < 10 and (not out or out[-1][0]):
        new, n_taut = reference_round(dag, rules, strict_sides)
        out.append((tuple(new), n_taut))
        dag.add(*new)
    return tuple(out)


EVALUATIONS = ("naive", "semi_naive")


def evaluating(name):
    """A context that runs the engine under the named evaluation."""
    return {"naive": naive_plans, "semi_naive": contextlib.nullcontext}[name]()


@pytest.fixture(scope="session")
def root():
    return ROOT


@pytest.fixture(scope="session")
def default_rules():
    return parse_rules((ROOT / "rules" / "gddm-default.gr").read_text())


def load_construction(name):
    return parse_construction((ROOT / "examples" / f"{name}.gc").read_text())


@pytest.fixture(scope="session")
def midline():
    return load_construction("midline")


@pytest.fixture(scope="session")
def pappus():
    return load_construction("pappus")


@pytest.fixture(scope="session")
def inscribed():
    return load_construction("inscribed")


BUNDLED = ("midline", "pappus", "inscribed")


@pytest.fixture(scope="session", params=BUNDLED)
def bundled(request):
    return load_construction(request.param)
