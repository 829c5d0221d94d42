"""Compare the JSON reports of two source trees, byte for byte.

    python3 tools/diff_reports.py OLD_TREE NEW_TREE [--mask FIELD ...]

Runs the bundled examples, the circle ladder (k = 4..10 and 12 concyclic
points), the feet ladder (k = 8..20 and 26 feet on one line) and the
Varignon figure in fixpoint and filtered mode through each tree's ``src/``
with that tree's default rules, the bundled examples once more in both
modes with ``strict_sides``, and the bundled examples, circle 8 and feet
12 in filtered mode under three ranking metric configs (``top_k`` = 2;
threshold 0.3 and ``top_k`` = 3; usefulness weight 5 and ``top_k`` = 1).
Then it runs, in both modes, a figure with lowercase point names under
the small rule set below, which reaches what the default rules never do:
a point constant in a premise, and a ``distinct`` side whose two points
a graph fact repeats.  Last come the oracle pool inputs of the benchmark
workloads that emit reports, 886 of ``circle4-fixpoint`` and 297 of
``fuzz-filtered``, each in its workload's mode with the default config
(``check100`` rows are verdicts, checked by ``check_oracle.py``).  That
makes 1258 reports per tree.  Each tree runs in
its own subprocess, under its own fixed PYTHONHASHSEED, and NEW_TREE runs
the cases in reverse order, so ``diff_reports.py . .`` checks that no
report depends on the hash seed or on what earlier runs left in a
process-level memo (compiled rules, slot tables, draw prefixes).
The inputs are this checkout's examples, the figures below, which the
tests import, and the pools that ``geobench/workloads.py`` builds; nothing
under ``geobench/`` is written.  Prints each case whose report differs and exits 1
on any difference.  Nothing is written.  ``--mask FIELD``, repeatable,
compares the reports with the named top-level JSON fields removed, for a
change meant to move those fields only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HASH_SEEDS = ("1", "2")  # OLD_TREE's, NEW_TREE's
MODES = ("fixpoint", "filtered")

# reads [[name, construction text, rules text or None for the tree's default
# rules, mode, strict_sides, MetricConfig keywords], ...] on stdin and prints
# {name: JSON report, or "error: ..."}; runs with the tree as its cwd
WORKER = """
import json, sys
from geodeduce import parse_construction, parse_rules
from geodeduce.pipeline import PipelineConfig, emit_report, run_pipeline
from geodeduce.scoring import MetricConfig
default = open("rules/gddm-default.gr").read()
out = {}
for name, text, rules, mode, strict, metrics in json.load(sys.stdin):
    try:
        cfg = PipelineConfig(mode=mode, strict_sides=strict, metrics=MetricConfig(**metrics))
        report = run_pipeline(parse_construction(text), parse_rules(rules or default), cfg)
        out[name] = emit_report(report, "json")
    except Exception as e:
        out[name] = f"error: {type(e).__name__}: {e}"
json.dump(out, sys.stdout)
"""


# filtered-mode metric configs whose rounds rank by top_k: name -> MetricConfig keywords
RANKED = {
    "top2": {"top_k": 2},
    "t0.3-top3": {"threshold": 0.3, "top_k": 3},
    "useful5-top1": {"weights": {"obviousness": 1.0, "weight": 1.0, "complexity": 1.0,
                                 "surprisingness": 1.0, "intensity": 1.0, "adaptivity": 1.0,
                                 "focus": 1.0, "usefulness": 5.0}, "top_k": 1},
}


# the circle points' names: the letters after A, O left out
ON_CIRCLE = "BCDEFGHIJKLMNPQRSTUVWXYZ"


def concyclic_text(k: int) -> str:
    """`point O A`, then k - 1 points on the circle centred at O through A."""
    if k - 1 > len(ON_CIRCLE):
        raise ValueError(f"at most {len(ON_CIRCLE) + 1} concyclic points, got {k}")
    return "point O A\n" + "".join(f"on_circle {p} O A\n" for p in ON_CIRCLE[:k - 1])


def feet_text(k: int) -> str:
    """`point A B`, then k free points Xi, each with its foot Fi on line AB."""
    return "point A B\n" + "".join(f"point X{i}\nfoot F{i} X{i} A B\n"
                                    for i in range(1, k + 1))


# the midpoints of a quadrilateral's sides form a parallelogram (Varignon):
# midline gives each side's parallel to a diagonal, para_trans the opposite sides
VARIGNON = ("point A B C D\nmidpoint P A B\nmidpoint Q B C\nmidpoint R C D\n"
            "midpoint S D A\n")

# rules for TWO_CIRCLES: the point constant o in every premise of on_o, and
# in apex_trans a distinct side whose two points the radii facts repeat:
# cong(o,a,o,b) binds both X and Z to o
CONSTANT_RULES = (
    "rule apex_trans: cong(X,Y,Z,W), cong(Z,W,U,V), distinct(X,Z) => cong(X,Y,U,V)\n"
    "rule on_o: cong(o,A,o,B), cong(o,B,o,C), cong(o,C,o,D), non_collinear(A,B,C)"
    " => cyclic(A,B,C,D)\n")

# four points on the circle centred at o, and a radius of a second circle,
# centred at p, that on_o must not read as one of o's
TWO_CIRCLES = ("point o a\non_circle b o a\non_circle c o a\non_circle d o a\n"
               "point p\non_circle e p a\n")


# the benchmark workloads whose outputs are reports
POOLS = ("circle4-fixpoint", "fuzz-filtered")


def cases() -> list:
    # the pools come from geobench/workloads.py, imported here and not at
    # import time, so that importing this file for its figures needs no geobench
    sys.path.insert(0, str(ROOT / "geobench"))
    from run import import_program  # geobench/run.py
    wk = import_program()
    pools = [wk.WORKLOADS[name] for name in POOLS]
    examples = [(path.stem, path.read_text())
                for path in sorted((ROOT / "examples").glob("*.gc"))]
    # the two ladders, and each at its milestone size
    figures = examples + [(f"circle{k}", concyclic_text(k)) for k in [*range(4, 11), 12]]
    figures += [(f"feet{k}", feet_text(k)) for k in [*range(8, 21), 26]]
    figures.append(("varignon", VARIGNON))
    ranked = examples + [("circle8", concyclic_text(8)), ("feet12", feet_text(12))]
    return ([[f"{name} {mode}", text, None, mode, False, {}]
             for name, text in figures for mode in MODES]
            + [[f"{name} {mode} strict", text, None, mode, True, {}]
               for name, text in examples for mode in MODES]
            + [[f"{name} filtered {key}", text, None, "filtered", False, metrics]
               for name, text in ranked for key, metrics in RANKED.items()]
            + [[f"two-circles {mode}", TWO_CIRCLES, CONSTANT_RULES, mode, False, {}]
               for mode in MODES]
            + [[f"{wl.name} {key}", wl.make_input(key).text, None, wl.mode, False, {}]
               for wl in pools for key in wk.load_oracle(wl)])


def start(tree: Path, hash_seed: str, todo: list) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED=hash_seed,
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen([sys.executable, "-c", WORKER], cwd=tree, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    proc.stdin.write(json.dumps(todo))
    proc.stdin.close()
    return proc


def masked(report: str, fields) -> str:
    """The report without the named top-level JSON fields, laid out as
    emit_report lays it out; an error text, or any report when no field is
    named, as it is."""
    if not fields or report.startswith("error: "):
        return report
    obj = json.loads(report)
    for name in fields:
        obj.pop(name, None)
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def first_difference(a: str, b: str) -> str:
    for i, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), start=1):
        if x != y:
            return f"line {i}: {x.strip()!r} -> {y.strip()!r}"
    return f"{len(a.splitlines())} -> {len(b.splitlines())} lines"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_tree", type=Path)
    parser.add_argument("new_tree", type=Path)
    parser.add_argument("--mask", action="append", default=[], metavar="FIELD",
                        help="compare without this top-level report field; repeatable")
    args = parser.parse_args(argv)
    todo = cases()
    trees = (args.old_tree.resolve(), args.new_tree.resolve())
    procs = [start(tree, seed, order) for tree, seed, order
             in zip(trees, HASH_SEEDS, (todo, todo[::-1]))]
    reports = []
    for tree, proc in zip(trees, procs):
        out = proc.stdout.read()
        if proc.wait():
            print(f"{tree}: the worker failed (exit {proc.returncode})")
            return 1
        reports.append({name: masked(text, args.mask)
                        for name, text in json.loads(out).items()})
    old, new = reports
    differ = [name for name, *_ in todo if old[name] != new[name]]
    for name in differ:
        print(f"DIFF {name}: {first_difference(old[name], new[name])}")
    print(f"{len(todo)} reports, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
