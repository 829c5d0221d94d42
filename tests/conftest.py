import contextlib
import pathlib
import runpy
from types import SimpleNamespace
from unittest import mock

import pytest

from geodeduce import engine, parse_construction, parse_rules
from geodeduce.facts import Fact, canonicalize, orbit
from geodeduce.rules import is_variable

ROOT = pathlib.Path(__file__).resolve().parent.parent

# the ladder and Varignon figures, kept in the tool that compares their reports
_LADDERS = runpy.run_path(str(ROOT / "tools" / "diff_reports.py"))
concyclic_text, feet_text = _LADDERS["concyclic_text"], _LADDERS["feet_text"]
VARIGNON = _LADDERS["VARIGNON"]

_compile_rule = engine.compile_rule  # while naive_plans runs, engine's is the patch


@contextlib.contextmanager
def naive_plans(compile=None):
    """Naive evaluation, the reference that the engine's semi-naive join
    must agree with (Bancilhon & Ramakrishnan 1986): while it runs, every
    rule that a JoinState, or saturate's, compiles has one plan, each slot
    over ALL, so each round joins every fact with every fact.  ``compile``
    (the engine's compile_rule by default) gives the rest of the rule's
    compiled form."""
    compile = compile or _compile_rule

    def naive(rule):
        compiled = compile(rule)
        return compiled._replace(plans=((engine.ALL,) * len(compiled.slots),))

    with mock.patch.object(engine, "compile_rule", naive):
        yield


def shaped(facts):
    """The facts with their shapes, as JoinState.take_in hands them to engine._index."""
    return [(f, engine._shape(f.args)) for f in facts]


def binding_names(rule):
    """The point at each position of the rule's compiled bindings: the
    rule's point constants, then its variables in premise order, the order
    the join's slots bind them."""
    atoms = rule.premises + (rule.conclusion,) + rule.side_conditions
    return (tuple(dict.fromkeys(a for p in atoms for a in p.args if not is_variable(a)))
            + tuple(dict.fromkeys(a for p in rule.premises for a in p.args if is_variable(a))))


def kernel_rows(compiled, indexes):
    """Every (binding, facts used, conclusion arguments) that the compiled
    rule's kernel, the one derive_round runs, draws over the slot indexes,
    in draw order.  No conclusion is known, and the memo records the
    arguments of each conclusion the kernel builds and gives each a fresh
    verdict, so every drawn row becomes its own ``best`` entry."""
    drawn = []

    def verdict(args):
        drawn.append(args)
        return object()

    best = {}
    assert compiled.kernel(indexes, SimpleNamespace(get=verdict), best, compiled) == (0, 0)
    return [(b, used, args) for ((_, used), _, b), args in zip(best.values(), drawn)]


def check_verdict_store(state):
    """The state's one verdict store per predicate: an entry is KNOWN iff
    the canonical form of its key is a graph fact, and every orbit variant
    of a graph fact is KNOWN; any other entry holds the verdict a fresh
    judgment gives."""
    graph = set(state.dag)
    for f in graph:
        assert all(state.memo[f.pred].get(v) is engine.KNOWN for v in orbit(f)), f
    for pred, store in state.memo.items():
        for args, verdict in store.items():
            if canonicalize(Fact(pred, args)) in graph:
                assert verdict is engine.KNOWN, (pred, args)
            else:
                assert verdict is not engine.KNOWN, (pred, args)
                assert verdict == engine._judge({}, pred, args), (pred, args)


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
