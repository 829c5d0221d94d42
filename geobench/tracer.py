"""Spans and counters for the traced run, installed from outside the program.

The tracer rebinds library functions at the name the caller looks up, not
where they are defined: ``engine`` does ``from .facts import orbit``, so
patching ``facts.orbit`` would miss every call the matcher makes.  Cold
calls open a span; hot calls are only counted.  Spans are kept in memory
and written out when the run ends.

A binding that no longer exists fails at install time.  After a traced
pass, ``check_bindings`` fails when a binding the workload must call was
never called (a dead binding) or one it cannot call was.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Dict, List

from geodeduce import engine, numeric, pipeline
from geodeduce.engine import DerivationDag

_OWNERS = {"engine": engine, "numeric": numeric, "pipeline": pipeline,
           "DerivationDag": DerivationDag}

# binding -> span it opens (None: counted only)
BINDINGS: Dict[str, str] = {
    "pipeline.saturate": "engine.saturate",
    "pipeline.derive_round": "engine.derive_round",
    "engine.derive_round": "engine.derive_round",
    "pipeline.sample_models": "numeric.sample_models",
    "numeric.sample_models": "numeric.sample_models",
    "pipeline.score_all": "scoring.score_all",
    "pipeline.eval_fact": None,
    "pipeline.eval_condition": None,
    "numeric.eval_fact": None,
    "numeric.instantiate": None,
    "numeric._sample_once": None,
    "engine.orbit": None,
    "engine.canonicalize": None,
    "DerivationDag.ancestors": None,
    "DerivationDag.leaf_ancestors": None,
}


class TracerError(RuntimeError):
    """A binding is missing, dead, or fired where it cannot."""


class NullTracer:
    """The untraced path: spans and counters cost one no-op call."""

    _null = nullcontext()

    def span(self, name):
        return self._null

    def add(self, key, n=1):
        pass


class Tracer:
    def __init__(self) -> None:
        # [name, input id, parent index, start, end]
        self.spans: List[list] = []
        self.hits: Counter = Counter()    # calls per binding
        self.counts: Counter = Counter()  # values the wrappers read off results
        self.input_id = None
        self._stack: List[int] = []
        self._saved: list = []

    @contextmanager
    def span(self, name):
        rec = [name, self.input_id, self._stack[-1] if self._stack else None,
               perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[4] = perf_counter()
            self._stack.pop()

    def add(self, key, n=1):
        self.counts[key] += n

    # -- bindings ------------------------------------------------------------

    def install(self) -> None:
        originals = []
        for binding, span in BINDINGS.items():
            owner_name, attr = binding.split(".")
            owner = _OWNERS[owner_name]
            orig = vars(owner).get(attr)
            if not callable(orig):
                raise TracerError(f"{binding} is not a function any more; "
                                  "the tracer must follow the code")
            originals.append((binding, span, owner, attr, orig))
        for binding, span, owner, attr, orig in originals:
            setattr(owner, attr, self._wrap(binding, span, orig))
            self._saved.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _wrap(self, binding, span, orig):
        hits = self.hits
        counts = self.counts
        if binding == "numeric.instantiate":
            def instantiate(*args, **kwargs):
                hits[binding] += 1
                model = orig(*args, **kwargs)
                counts["numeric.models"] += 1  # a call that raises made no model
                return model
            return instantiate
        if span is None:
            def counted(*args, **kwargs):
                hits[binding] += 1
                return orig(*args, **kwargs)
            return counted

        def spanned(*args, **kwargs):
            hits[binding] += 1
            with self.span(span):
                out = orig(*args, **kwargs)
            if span == "engine.derive_round":
                derivations, n_taut, n_degen = out
                counts["engine.new_facts"] += len(derivations)
                counts["engine.tautologies"] += n_taut
                counts["engine.degenerate"] += n_degen
            elif span == "scoring.score_all":
                counts["scoring.facts_scored"] += len(args[0])
            return out
        return spanned

    def check_bindings(self, workload: str, live) -> None:
        for binding in BINDINGS:
            if binding in live and not self.hits[binding]:
                raise TracerError(f"{binding} was never called on {workload}: "
                                  "the wrapper patches a dead binding")
            if binding not in live and self.hits[binding]:
                raise TracerError(f"{binding} fired {self.hits[binding]} times "
                                  f"on {workload}, where it cannot")

    # -- results -------------------------------------------------------------

    def totals(self) -> Dict[str, float]:
        """Per-layer totals over everything traced so far."""
        dur = Counter()
        self_time = Counter()
        for name, _, parent, start, end in self.spans:
            dur[name] += end - start
            self_time[name] += end - start
            if parent is not None:
                self_time[self.spans[parent][0]] -= end - start
        h = self.hits
        c = self.counts
        rounds = h["pipeline.derive_round"] + h["engine.derive_round"]
        return {
            "inputs": sum(1 for s in self.spans if s[0] == "input"),
            "input_s": dur["input"],
            "engine.self_s": self_time["engine.saturate"] + self_time["engine.derive_round"],
            "engine.rounds": rounds,
            "engine.new_facts": c["engine.new_facts"],
            "engine.candidates": h["engine.canonicalize"],
            "engine.orbit_calls": h["engine.orbit"],
            "engine.tautologies": c["engine.tautologies"],
            "engine.degenerate": c["engine.degenerate"],
            "scoring.self_s": self_time["scoring.score_all"],
            "scoring.score_all_calls": h["pipeline.score_all"],
            "scoring.facts_scored": c["scoring.facts_scored"],
            "scoring.ancestor_walks": (h["DerivationDag.ancestors"]
                                       + h["DerivationDag.leaf_ancestors"]),
            "numeric.sample_s": dur["numeric.sample_models"],
            "numeric.verify_s": self_time["numeric.verify"],
            "numeric.models": c["numeric.models"],
            "numeric.sample_attempts": h["numeric._sample_once"],
            "numeric.eval_fact_calls": h["pipeline.eval_fact"] + h["numeric.eval_fact"],
            "numeric.eval_condition_calls": h["pipeline.eval_condition"],
            "pipeline.self_s": self_time["pipeline.run"],
            "pipeline.emit_s": dur["pipeline.emit"],
            "pipeline.report_bytes": c["pipeline.report_bytes"],
            "pipeline.reported_facts": c["pipeline.reported_facts"],
            "construction.parse_s": dur["construction.parse"],
            "construction.hypothesis_facts": c["construction.hypothesis_facts"],
        }

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, input_id, parent, start, end in self.spans:
                fh.write(json.dumps({"name": name, "input": input_id,
                                     "parent": parent, "start": start,
                                     "end": end}) + "\n")
