"""Time the milestone ladder figures stage by stage, each in a fresh interpreter.

    python3 tools/ladder_times.py [--tree DIR] [--repeat N] [--mode MODE] [FIGURE ...]

Runs each figure (default: circle10, circle12, feet20 and feet26; a name
is ``circle<k>`` or ``feet<k>``, the ladders of ``tools/diff_reports.py``)
through ``run_pipeline`` in MODE (fixpoint by default, or filtered) with
the default rules and emits its JSON report.  Each run is a new
interpreter over the tree's ``src/`` (this checkout by default), and the
run with the least total of N (3 by default) is kept.  Prints one
markdown table row per figure: total, saturate, filter, score, emit and
sample seconds, the report's facts (hypotheses included) and bytes, and
the process's peak RSS.  Sample is the time in
``pipeline.sample_models``, the coordinate models of the run-time filter.
In filtered mode, saturate is the rounds' joins and score also covers
each round's ``interesting_among``.  Total covers
parsing the construction, the pipeline and emit, not the imports or the
rule file.  Nothing is written.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
from diff_reports import concyclic_text, feet_text  # noqa: E402

LADDER = ("circle10", "circle12", "feet20", "feet26")
STAGES = ("total", "saturate", "filter", "score", "emit", "sample")

# reads the construction text on stdin and the mode as its argument and prints the
# timings as one JSON object; runs with the tree as its cwd
WORKER = """
import json, resource, sys, time
from geodeduce import parse_construction, parse_rules, pipeline
spent = dict.fromkeys(("saturate", "filter", "score", "sample"), 0.0)

def timed(stage, fn):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[stage] += time.perf_counter() - start
    return wrapper

pipeline.saturate = timed("saturate", pipeline.saturate)
pipeline.derive_round = timed("saturate", pipeline.derive_round)
pipeline._admit = timed("filter", pipeline._admit)
pipeline.score_all = timed("score", pipeline.score_all)
pipeline.interesting_among = timed("score", pipeline.interesting_among)
pipeline.sample_models = timed("sample", pipeline.sample_models)
rules = parse_rules(open("rules/gddm-default.gr").read())
text = sys.stdin.read()
start = time.perf_counter()
report = pipeline.run_pipeline(parse_construction(text), rules,
                               pipeline.PipelineConfig(mode=sys.argv[1]))
emitted = time.perf_counter()
out = pipeline.emit_report(report, "json")
end = time.perf_counter()
print(json.dumps({**spent, "emit": end - emitted, "total": end - start,
                  "facts": len(report.records), "report_bytes": len(out.encode()),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def figure_text(name: str) -> str:
    m = re.fullmatch(r"(circle|feet)(\d+)", name)
    if not m:
        raise ValueError(f"unknown figure {name!r}: expected circle<k> or feet<k>")
    return (concyclic_text if m.group(1) == "circle" else feet_text)(int(m.group(2)))


def run_once(tree: Path, text: str, mode: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", WORKER, mode], cwd=tree, env=env,
                          input=text, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def row(name: str, t: dict) -> str:
    cells = [name] + [f"{t[s]:.3f} s" if s == "total" else f"{t[s]:.4f}" for s in STAGES]
    cells += [str(t["facts"]), f"{t['report_bytes'] / 1e6:.1f} MB", f"{t['peak_rss_mb']:.0f} MB"]
    return "| " + " | ".join(cells) + " |"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("figures", nargs="*", default=list(LADDER))
    parser.add_argument("--tree", type=Path, default=ROOT)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--mode", choices=("fixpoint", "filtered"), default="fixpoint")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    texts = [(name, figure_text(name)) for name in args.figures]
    print("| input | " + " | ".join(STAGES) + " | facts | report | peak RSS |")
    print("|---" * (len(STAGES) + 4) + "|")
    for name, text in texts:
        runs = [run_once(args.tree.resolve(), text, args.mode) for _ in range(args.repeat)]
        print(row(name, min(runs, key=lambda t: t["total"])), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
