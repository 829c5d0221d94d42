"""The three benchmark workloads: input pools, per-seed input sets, execution.

Every workload draws its inputs from a fixed pool: the candidate inputs
that ``Workload.keeps`` accepts.  The oracle in ``oracle/<workload>.json``
(recorded once, see record_oracle.py) lists exactly that pool with the
expected output of each input, so it covers every input any seed can select.  A seed picks
``set_size`` inputs: the pool is sorted by the cost recorded with the oracle
and cut into ``set_size`` equal bins, and the seed draws one input from each
bin.  Different seeds therefore give different inputs with the same cost
profile, which keeps throughput and tail latency steady from seed to seed.

Each input goes through the library the way ``geodeduce.cli.cli_main``
does: parse the construction, then either ``run_pipeline`` plus
``emit_report(..., "json")`` or ``parse_fact`` plus ``verify``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from geodeduce import (DegenerateModelError, PipelineConfig, emit_report,
                       initial_facts, make_fact, parse_construction, parse_fact,
                       parse_rules, run_pipeline, verify)

from fuzzgen import random_construction_text

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RULES_PATH = ROOT / "rules" / "gddm-default.gr"
ORACLE_DIR = BENCH_DIR / "oracle"
ORACLE_FIELDS = ["input_sha256", "output_sha256", "cost_ms", "degenerate",
                 "reported_facts"]

# the outcome recorded for a construction on which no model can be sampled
DEGENERATE = "degenerate"

CHECK_MODELS = 100  # `geodeduce check --seeds 100`
CHECK_SEED_BASE = 500_000  # check100 draws constructions disjoint from fuzz-filtered


@dataclass(frozen=True)
class Input:
    key: str                    # pool key, stable across seeds and commits
    text: str                   # construction script (.gc)
    fact: Optional[str] = None  # check100 only: the fact to verify
    hypothesis: bool = False    # check100 only: fact is a hypothesis fact


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str           # fixpoint | filtered | check
    set_size: int       # inputs per pass
    cap_ms: float       # candidates recorded above this cost are left out
    min_facts: int      # ... and so are those reporting fewer facts
    live: frozenset     # traced bindings this workload must call (tracer.BINDINGS)
    candidate_keys: Callable[[], List[str]]
    make_input: Callable[[str], Input]

    def keeps(self, cost_ms: float, reported_facts: int) -> bool:
        """Whether a recorded candidate input belongs to the pool."""
        return cost_ms <= self.cap_ms and reported_facts >= self.min_facts


# --- circle4-fixpoint -------------------------------------------------------

_CHORDS = tuple(itertools.combinations("ABCD", 2))
_DECORATIONS = tuple((kind, p + q) for kind in ("mid", "foot", "line")
                     for p, q in _CHORDS)


def _circle4_keys() -> List[str]:
    keys = []
    for k in range(4):
        for decs in itertools.combinations(_DECORATIONS, k):
            # the foot from the centre onto chord pq is the midpoint of pq
            feet_and_mids = [c for kind, c in decs if kind != "line"]
            if len(set(feet_and_mids)) < len(feet_and_mids):
                continue
            keys.append("+".join(kind + c for kind, c in decs) or "base")
    return keys


def _circle4_input(key: str) -> Input:
    lines = ["point O A", "on_circle B O A", "on_circle C O A", "on_circle D O A"]
    decs = [] if key == "base" else key.split("+")
    for name, dec in zip("EFG", decs):
        kind, (p, q) = dec[:-2], dec[-2:]
        if kind == "mid":
            lines.append(f"midpoint {name} {p} {q}")
        elif kind == "foot":
            lines.append(f"foot {name} O {p} {q}")
        else:
            lines.append(f"on_line {name} {p} {q}")
    return Input(key, "\n".join(lines) + "\n")


# --- fuzz-filtered ----------------------------------------------------------

FUZZ_CANDIDATES = 6000
CHECK_CANDIDATES = 1000


def _fuzz_text(seed: int) -> str:
    return random_construction_text(seed, max_points=8 + seed % 5)


def _fuzz_keys() -> List[str]:
    return [str(s) for s in range(FUZZ_CANDIDATES)]


def _fuzz_input(key: str) -> Input:
    return Input(key, _fuzz_text(int(key)))


# --- check100 ---------------------------------------------------------------

def _check_keys() -> List[str]:
    return [str(CHECK_SEED_BASE + i) for i in range(CHECK_CANDIDATES)]


def _check_input(key: str) -> Input:
    """One fact per fuzz construction: a hypothesis fact for even keys, a
    hypothesis fact with one point swapped for another point otherwise.
    A construction with no hypothesis facts is checked for coll of its
    first three points."""
    seed = int(key)
    text = _fuzz_text(seed)
    construction = parse_construction(text)
    hyps = sorted(initial_facts(construction), key=str)
    points = construction.points()
    if not hyps:  # the generator fell back to free points only
        return Input(key, text, str(make_fact("coll", *points[:3])))
    rng = random.Random(f"check100:{seed}")
    fact = rng.choice(hyps)
    if seed % 2 == 0:
        return Input(key, text, str(fact), hypothesis=True)
    args = list(fact.args)
    i = rng.randrange(len(args))
    others = ([p for p in points if p not in args]
              or [p for p in points if p != args[i]])
    args[i] = rng.choice(others)
    return Input(key, text, str(make_fact(fact.pred, *args)))


_PIPELINE_LIVE = {
    "engine.derive_round", "pipeline.sample_models", "pipeline.score_all",
    "pipeline.eval_fact", "pipeline.eval_condition", "numeric.eval_fact",
    "numeric.instantiate", "numeric._sample_once", "engine.orbit",
    "engine.canonicalize", "DerivationDag.ancestors",
    "DerivationDag.leaf_ancestors",
}

# Why each workload exists, and which layer it stresses, is recorded in
# BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("circle4-fixpoint", "fixpoint", set_size=100,
             cap_ms=float("inf"), min_facts=0,
             live=frozenset(_PIPELINE_LIVE | {"pipeline.saturate"}),
             candidate_keys=_circle4_keys, make_input=_circle4_input),
    # figures deriving 30+ facts, where re-scoring every round dominates;
    # the few over cap_ms would make a pass depend on one input
    Workload("fuzz-filtered", "filtered", set_size=100,
             cap_ms=500.0, min_facts=30,
             live=frozenset((_PIPELINE_LIVE - {"engine.derive_round"})
                            | {"pipeline.derive_round"}),
             candidate_keys=_fuzz_keys, make_input=_fuzz_input),
    Workload("check100", "check", set_size=200,
             cap_ms=float("inf"), min_facts=0,
             live=frozenset({"numeric.sample_models", "numeric.instantiate",
                             "numeric._sample_once", "numeric.eval_fact"}),
             candidate_keys=_check_keys, make_input=_check_input),
)}


def load_rules():
    return parse_rules(RULES_PATH.read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_oracle(wl: Workload) -> Dict[str, list]:
    """key -> row of ORACLE_FIELDS."""
    return json.loads((ORACLE_DIR / f"{wl.name}.json").read_text())["entries"]


def select_inputs(wl: Workload, seed: int, oracle: Dict[str, list]) -> List[Input]:
    """The seed's input set: one input per cost bin, in a seeded order.

    Raises ValueError if an input no longer matches the one the oracle was
    recorded for, since its expected output would then be meaningless.
    """
    pool = sorted((entry[2], key) for key, entry in oracle.items())
    rng = random.Random(f"{wl.name}:{seed}")
    n = wl.set_size
    picks = [rng.choice(pool[i * len(pool) // n:(i + 1) * len(pool) // n])[1]
             for i in range(n)]
    inputs = [wl.make_input(key) for key in picks]
    for inp in inputs:
        if sha256(input_text(inp)) != oracle[inp.key][0]:
            raise ValueError(f"{wl.name} input {inp.key} differs from the "
                             "input the oracle was recorded for")
    rng.shuffle(inputs)
    return inputs


def input_text(inp: Input) -> str:
    return inp.text if inp.fact is None else f"{inp.text}check {inp.fact}\n"


def run_input(wl: Workload, inp: Input, rules, tr) -> str:
    """Process one input as the CLI would; returns the output text.

    Raises DegenerateModelError like ``geodeduce run`` does (exit code 3).
    """
    with tr.span("construction.parse"):
        construction = parse_construction(inp.text)
    if wl.mode == "check":
        fact = parse_fact(inp.fact)
        with tr.span("numeric.verify"):
            verdict = verify(fact, construction, n_models=CHECK_MODELS,
                             tol_rel=1e-8, master_seed=0)
        return f"{fact}: {verdict}"
    with tr.span("pipeline.run"):
        report = run_pipeline(construction, rules, PipelineConfig(mode=wl.mode))
    with tr.span("pipeline.emit"):
        out = emit_report(report, "json")
    tr.add("pipeline.report_bytes", len(out))
    tr.add("pipeline.reported_facts", len(report.records))
    return out


def outcome(wl: Workload, inp: Input, rules, tr) -> str:
    """run_input, with a degenerate construction mapped to DEGENERATE."""
    try:
        return run_input(wl, inp, rules, tr)
    except DegenerateModelError:
        return DEGENERATE


def is_degenerate(out: str) -> bool:
    """Whether an outcome says no model could be sampled."""
    return out == DEGENERATE or out.endswith(": degenerate")


def check_outcome(inp: Input, out: str, entry: list) -> Optional[str]:
    """Why this output is wrong, or None.  entry is the input's oracle row."""
    if sha256(out) != entry[1]:
        return "output differs from the recorded output"
    if is_degenerate(out) != entry[3]:
        return "degenerate outcome disagrees with the recorded one"
    if inp.hypothesis and not entry[3] and not out.endswith(": holds"):
        return "a hypothesis fact did not come back holds"
    return None
