"""Count the join's rows, rule by rule, over whole saturations.

    python3 tools/join_rows.py [--tree DIR] FIGURE ...

A figure is ``circle<k>`` or ``feet<k>``, the ladders of
``tools/diff_reports.py``.  Each is saturated with the tree's default
rules and budgets, as fixpoint mode saturates it, by the tree's ``src/``
(this checkout's by default).  For each rule that ran, one markdown table
row gives its rows, the bindings that reach the verdict-store lookup; the
rows whose lookup finds KNOWN, a conclusion the graph holds; its calls of
``engine._judge``, the conclusions judged for the first time in the run;
and the tautology and degenerate counters its kernel returned.  A total
row follows each figure.  The lookups are counted by verdict stores whose
``get`` counts, as the kernels call it once per row; nothing else in the
join changes, and nothing is written.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
from ladder_times import figure_text  # noqa: E402

COLUMNS = ("rows", "known", "judged", "tautologies", "degenerate")


def count(engine, hypotheses, rules) -> dict:
    """rule name -> Counter of COLUMNS, over one saturation."""
    counts: dict = {}
    current = [Counter()]  # the counters of the rule whose kernel runs

    class Store(dict):
        """A verdict store that counts the kernels' lookups."""

        def get(self, key, default=None):
            verdict = dict.get(self, key, default)
            current[0]["rows"] += 1
            current[0]["known"] += verdict is engine.KNOWN
            return verdict

    def counted(rule):
        def kernel(indexes, memo, best, compiled):
            current[0] = counts.setdefault(rule.name, Counter())
            t, g = rule.kernel(indexes, memo, best, compiled)
            current[0]["tautologies"] += t
            current[0]["degenerate"] += g
            return t, g
        return rule._replace(kernel=kernel)

    class State(engine.JoinState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.memo = {pred: Store() for pred in self.memo}
            self.rules = [counted(rule) for rule in self.rules]

    judge = engine._judge

    def judged(*args):
        current[0]["judged"] += 1
        return judge(*args)

    # the kernels read _judge from the engine's globals at call time
    with mock.patch.object(engine, "JoinState", State), \
            mock.patch.object(engine, "_judge", judged):
        engine.saturate(hypotheses, rules)
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("figures", nargs="+")
    parser.add_argument("--tree", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    texts = [(name, figure_text(name)) for name in args.figures]
    sys.path.insert(0, str(tree / "src"))
    from geodeduce import engine, initial_facts, parse_construction, parse_rules

    rules = parse_rules((tree / "rules" / "gddm-default.gr").read_text())
    print("| input | rule | " + " | ".join(COLUMNS) + " |")
    print("|---" * (len(COLUMNS) + 2) + "|")
    for name, text in texts:
        counts = count(engine, initial_facts(parse_construction(text)), rules)
        for rule, c in sorted(counts.items(), key=lambda item: -item[1]["rows"]):
            print(f"| {name} | `{rule}` | " + " | ".join(f"{c[k]:,}" for k in COLUMNS) + " |")
        total = sum(counts.values(), Counter())
        print(f"| {name} | total | " + " | ".join(f"{total[k]:,}" for k in COLUMNS) + " |",
              flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
