"""Compare the JSON reports of two source trees, byte for byte.

    python3 tools/diff_reports.py OLD_TREE NEW_TREE

Runs the bundled examples, the circle ladder (k = 4..10 and 12 concyclic
points) and the feet ladder (k = 8..20 and 26 feet on one line) in
fixpoint and filtered mode through each tree's ``src/`` with that tree's
default rules, the bundled examples once more in both modes with
``strict_sides``, and the bundled examples, circle 8 and feet 12 in
filtered mode under three ranking metric configs (``top_k`` = 2;
threshold 0.3 and ``top_k`` = 3; usefulness weight 5 and ``top_k`` = 1):
71 reports per tree.  Each tree runs in its own
subprocess, under its own fixed PYTHONHASHSEED, and NEW_TREE runs the cases
in reverse order, so ``diff_reports.py . .`` checks that no report depends
on the hash seed or on what earlier runs left in a process-level memo
(compiled rules, slot tables, draw prefixes).
The inputs are this checkout's examples and the ladder figures below,
which the tests import.  Prints each case whose report differs and exits 1
on any difference.  Nothing is written.
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

# reads [[name, construction text, mode, strict_sides, MetricConfig keywords], ...]
# on stdin and prints {name: JSON report, or "error: ..."}; runs with the tree as its cwd
WORKER = """
import json, sys
from geodeduce import parse_construction, parse_rules
from geodeduce.pipeline import PipelineConfig, emit_report, run_pipeline
from geodeduce.scoring import MetricConfig
rules = parse_rules(open("rules/gddm-default.gr").read())
out = {}
for name, text, mode, strict, metrics in json.load(sys.stdin):
    try:
        cfg = PipelineConfig(mode=mode, strict_sides=strict, metrics=MetricConfig(**metrics))
        report = run_pipeline(parse_construction(text), rules, cfg)
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


def cases() -> list:
    examples = [(path.stem, path.read_text())
                for path in sorted((ROOT / "examples").glob("*.gc"))]
    # the two ladders, and each at its milestone size
    figures = examples + [(f"circle{k}", concyclic_text(k)) for k in [*range(4, 11), 12]]
    figures += [(f"feet{k}", feet_text(k)) for k in [*range(8, 21), 26]]
    ranked = examples + [("circle8", concyclic_text(8)), ("feet12", feet_text(12))]
    return ([[f"{name} {mode}", text, mode, False, {}] for name, text in figures for mode in MODES]
            + [[f"{name} {mode} strict", text, mode, True, {}]
               for name, text in examples for mode in MODES]
            + [[f"{name} filtered {key}", text, "filtered", False, metrics]
               for name, text in ranked for key, metrics in RANKED.items()])


def start(tree: Path, hash_seed: str, todo: list) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED=hash_seed,
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen([sys.executable, "-c", WORKER], cwd=tree, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    proc.stdin.write(json.dumps(todo))
    proc.stdin.close()
    return proc


def first_difference(a: str, b: str) -> str:
    for i, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), start=1):
        if x != y:
            return f"line {i}: {x.strip()!r} -> {y.strip()!r}"
    return f"{len(a.splitlines())} -> {len(b.splitlines())} lines"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_tree", type=Path)
    parser.add_argument("new_tree", type=Path)
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
        reports.append(json.loads(out))
    old, new = reports
    differ = [name for name, *_ in todo if old[name] != new[name]]
    for name in differ:
        print(f"DIFF {name}: {first_difference(old[name], new[name])}")
    print(f"{len(todo)} reports, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
