"""End-to-end orchestration: saturate, run-time filter, score, report.

Two modes:

* ``fixpoint`` — saturate to the full fixpoint, then numerically filter
  every derived fact in (round, canonical form) order and rank the
  survivors.  Premises are judged before the facts derived from them, so a
  fact derived from a discarded fact is discarded too.
* ``filtered`` — per round, only facts that pass the run-time filter and
  are judged interesting re-enter the fact list; everything else is
  discarded for the rest of the run.  One graph grows across the rounds;
  each round judges only its survivors, on one trial copy of it.

Both modes send derivations through the same admission routine,
``_admit``.  A fact it blocks never comes back within the run, and a fact
the graph holds keeps its one derivation, so a fact's derivation closure
is fixed when it enters the graph, which stores it then.  One
``ScoreMemo.of(dag)`` per run therefore keeps the hypotheses' point
pairs and each fact's raw row, its seven fixed raw metrics, computed
once; each round (and the final scoring) makes one pass per metric
column over the derived facts and recounts usefulness from the stored
closures.

A ``fails`` verdict on an unconditional derived fact aborts the run: the
engine promises to generate logical consequences only, so an empirical
counterexample means a bad rule or a bug, never a valid outcome.

``emit_report`` writes JSON bytes equal to ``json.dumps``'s (docs/report-schema.md).
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as q  # json.dumps's, in C
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .construction import Construction, initial_facts
from .engine import Derivation, DerivationDag, JoinState, derive_round, saturate
from .facts import Fact
from .numeric import (DEFAULT_TOL, check_tol, eval_condition, eval_fact,
                      sample_models)
from .rules import Rule
from .scoring import (METRICS, MetricConfig, ScoreCard, ScoreMemo,
                      filter_interesting, interesting_among, score_all)


class SoundnessViolationError(RuntimeError):
    """An unconditional derived fact failed numeric verification."""

    def __init__(self, fact: Fact, seed: int, rule: str):
        super().__init__(
            f"soundness violation: {fact} (rule {rule}) fails on seed {seed}")
        self.fact = fact
        self.seed = seed
        self.rule = rule


MODES = ("fixpoint", "filtered")


@dataclass(frozen=True)
class PipelineConfig:
    mode: str = "fixpoint"  # fixpoint | filtered
    max_rounds: int = 10
    max_facts: int = 100000
    seeds: int = 5
    tol: float = DEFAULT_TOL
    master_seed: int = 0
    metrics: MetricConfig = field(default_factory=MetricConfig)
    strict_sides: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        for name in ("max_rounds", "max_facts", "seeds", "master_seed"):
            value = getattr(self, name)
            try:  # np.int64(3) is stored as 3, so the JSON report can hold it
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        # zero rounds, facts or models would report a run that never ran
        for name in ("max_rounds", "max_facts", "seeds"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        check_tol(self.tol)
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if not isinstance(self.strict_sides, bool):  # "no" would run strict
            raise ValueError(f"strict_sides must be a bool, got {self.strict_sides!r}")


@dataclass
class FactRecord:
    fact: Fact
    round: int
    rule: Optional[str]          # None for hypotheses
    premises: Tuple[Fact, ...]
    score: ScoreCard
    interesting: bool


@dataclass
class Report:
    construction: str
    rules_digest: str
    mode: str
    rounds: int
    stop_reason: str
    records: List[FactRecord]
    discarded: Dict[str, int]    # tautologies / empirically_false / conditional_failed
    seeds: int
    master_seed: int


def rules_digest(rules: List[Rule]) -> str:
    text = "\n".join(str(r) for r in sorted(rules, key=lambda r: r.name))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _filter_derived(d: Derivation, models, tol: float, held: Set[Fact]):
    """Run-time filter one derived fact.

    Returns "ok", "conditional_failed" or "empirically_false"; raises
    SoundnessViolationError when an unconditional fact is false.  held
    holds the side conditions already found to hold on every model; the
    models and tol are fixed for the run, so none of them is evaluated
    again, and each condition found to hold joins it.
    """
    for cond in d.conditions:
        if cond in held:
            continue
        kind, args = cond
        if not all(eval_condition(m, kind, args, tol) for m in models):
            return "conditional_failed"
        held.add(cond)
    for m in models:
        if not eval_fact(m, d.fact, tol):
            if d.conditional:
                return "empirically_false"
            raise SoundnessViolationError(d.fact, m.seed, d.rule)
    return "ok"


def _admit(derivations: Iterable[Derivation], models, tol: float, held: Set[Fact],
           blocked: Set[Fact], discarded: Dict[str, int]) -> List[Derivation]:
    """The run-time filter shared by both modes; returns the derivations
    that pass, in order.

    A blocked fact is skipped.  A fact with a blocked premise counts as
    conditional_failed: it must not outlive the fact it was derived from.
    Every discarded fact is counted and joins blocked.
    """
    passed = []
    for d in derivations:
        if d.fact in blocked:
            continue
        if any(p in blocked for p in d.premises):
            status = "conditional_failed"
        else:
            status = _filter_derived(d, models, tol, held)
        if status == "ok":
            passed.append(d)
        else:
            blocked.add(d.fact)
            discarded[status] += 1
    return passed


def _build_records(dag: DerivationDag, cfg: PipelineConfig,
                   memo: ScoreMemo) -> List[FactRecord]:
    scores = score_all(dag, cfg.metrics, memo)
    interesting = {f for f, _ in filter_interesting(scores, cfg.metrics)}
    records = []
    for f in sorted(dag):
        d = dag.node(f)
        records.append(FactRecord(
            fact=f,
            round=d.round,
            rule=d.rule,
            premises=d.premises,
            score=scores[f],
            interesting=f in interesting,
        ))
    return records


def run_pipeline(construction: Construction, rules: List[Rule],
                 cfg: PipelineConfig) -> Report:
    points = set(construction.points())
    for rule in rules:  # a constant that a premise names too only stops the rule firing
        bound = {a for p in rule.premises for a in p.args}
        for atom in (rule.conclusion,) + rule.numeric_sides:
            for a in sorted(set(atom.args) - bound - points):
                raise ValueError(f"rule {rule.name}: point {a} is not in the construction")
    hypotheses = initial_facts(construction)
    models = sample_models(construction, cfg.seeds, cfg.master_seed)
    discarded = {"tautologies": 0, "empirically_false": 0, "conditional_failed": 0}
    blocked: Set[Fact] = set()  # discarded facts never come back within a run
    held: Set[Fact] = set()  # side conditions true on every model of the run
    dag = DerivationDag(hypotheses)  # the hypotheses plus every kept fact
    memo = ScoreMemo.of(dag)  # fixed scoring work, this run only

    if cfg.mode == "fixpoint":
        sat = saturate(hypotheses, rules, cfg.max_rounds, cfg.max_facts,
                       strict_sides=cfg.strict_sides)
        discarded["tautologies"] = sat.dropped_tautologies
        # in round order: every premise is judged before the facts it yields
        dag.add(*_admit(sat.dag.derivations(), models, cfg.tol, held, blocked,
                        discarded))
        rounds, stop = sat.dag.rounds, sat.stop_reason
    else:  # filtered: only interesting survivors re-enter the fact list
        rounds = 0  # the rounds in which some candidate passed the run-time filter
        state = JoinState(dag, rules, strict_sides=cfg.strict_sides)  # for this run only
        for _ in range(cfg.max_rounds):
            candidates, n_taut, _ = derive_round(state)
            discarded["tautologies"] += n_taut
            new = _admit(candidates, models, cfg.tol, held, blocked, discarded)
            if not new:
                break
            rounds += 1
            # score the survivors against the current fact list
            trial = dag.copy()
            trial.add(*new)
            interesting = interesting_among(trial, [d.fact for d in new], cfg.metrics, memo)
            blocked.update(d.fact for d in new if d.fact not in interesting)
            new = [d for d in new if d.fact in interesting]
            dag.add(*new)
            if not new or len(dag) >= cfg.max_facts:
                break
        stop = "budget" if new else "fixpoint"  # fixpoint: the last round added nothing
    records = _build_records(dag, cfg, memo)
    return Report(construction.source(), rules_digest(rules), cfg.mode,
                  rounds, stop, records, discarded, cfg.seeds, cfg.master_seed)


def _block(items: List[str], indent: str, ends: str) -> str:
    """Encoded items between ends ("[]" or "{}"), as json.dumps(indent=2) lays them out."""
    if not items:
        return ends
    return f"{ends[0]}\n{indent}  " + f",\n{indent}  ".join(items) + f"\n{indent}{ends[1]}"


def _object(members: Dict[str, object], indent: str) -> str:
    """A JSON object of encoded values, laid out with its keys sorted."""
    return _block([f"{q(k)}: {v}" for k, v in sorted(members.items())], indent, "{}")


# a fact's %-template: it takes the values in sorted key order, each metric object's in place
_SCORES = _object(dict.fromkeys(METRICS, "%s"), "      ")
_FACT = _object({"verdict": '"holds"', "normalized": _SCORES, "raw": _SCORES, **dict.fromkeys(
    ["aggregate", "fact", "interesting", "premises", "round", "rule"], "%s")}, "    ")
_metric_values = operator.itemgetter(*sorted(METRICS))


def _json_report(report: Report) -> str:
    memo: Dict[float, str] = {}  # each nonzero number of this report, as written

    def num(x: float) -> str:
        if not x:  # 0.0 == -0.0 as keys, so a zero is told apart by its sign
            return "-0.0" if math.copysign(1.0, x) < 0 else "0.0"
        s = memo.get(x)
        if s is None:
            v = float(f"{x:.9g}")  # 9 significant digits
            s = memo[x] = (repr(v) if math.isfinite(v) else "NaN" if v != v
                           else "Infinity" if v > 0 else "-Infinity")
        return s

    facts = [_FACT % (
        num(rec.score.aggregate), q(str(rec.fact)), "true" if rec.interesting else "false",
        *map(num, _metric_values(rec.score.normalized)),
        _block([q(str(p)) for p in rec.premises], "      ", "[]"),
        *map(num, _metric_values(rec.score.raw)),
        rec.round, "null" if rec.rule is None else q(rec.rule))
        for rec in report.records]
    return _object({
        "construction": q(report.construction), "discarded": _object(report.discarded, "  "),
        "facts": _block(facts, "  ", "[]"), "master_seed": report.master_seed,
        "mode": q(report.mode), "rounds": report.rounds,
        "rules_digest": q(report.rules_digest), "seeds": report.seeds,
        "stop_reason": q(report.stop_reason)}, "") + "\n"


def emit_report(report: Report, fmt: str = "json") -> str:
    """Serialize the report; identical inputs yield identical bytes, for JSON those of
    json.dumps(obj, sort_keys=True, indent=2) + "\\n" (docs/report-schema.md)."""
    if fmt == "json":
        return _json_report(report)
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")

    lines = []
    lines.append(f"mode: {report.mode}  rounds: {report.rounds}  "
                 f"stop: {report.stop_reason}")
    lines.append(f"rules: {report.rules_digest}  seeds: {report.seeds}  "
                 f"master_seed: {report.master_seed}")
    d = report.discarded
    lines.append(f"discarded: tautologies={d['tautologies']} "
                 f"empirically_false={d['empirically_false']} "
                 f"conditional_failed={d['conditional_failed']}")
    lines.append("")
    lines.append("rank  aggregate  fact")
    ranked = sorted((r for r in report.records if not r.score.hypothesis),
                    key=lambda r: (-r.score.aggregate, r.fact))
    for i, rec in enumerate(ranked, 1):
        star = "*" if rec.interesting else " "
        lines.append(f"{i:4d} {star} {rec.score.aggregate:8.6f}  {rec.fact}")
    lines.append("")
    lines.append("derivations:")
    for rec in ranked:
        prem = ", ".join(str(p) for p in rec.premises)
        lines.append(f"  {rec.fact} <= {rec.rule}[{prem}]  (round {rec.round})")
    return "\n".join(lines) + "\n"
