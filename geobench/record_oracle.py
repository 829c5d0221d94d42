"""Record the oracle: the pool of a workload, with expected outputs and costs.

    python3 geobench/record_oracle.py --workload fuzz-filtered

Runs every candidate input and writes ``geobench/oracle/<workload>.json``
with one row per input the workload keeps: [input sha256, output sha256,
cost in ms, degenerate, reported facts].  The cost is the median wall time
of ORACLE_REPEATS runs on the recording machine; it orders the pool into the
cost bins a seed samples from, and with the fact count it decides which
candidates the workload keeps (``cap_ms``, ``min_facts``).  Recording must
happen at a commit whose outputs are trusted: later commits are checked
against it.
"""

import argparse
import json
import statistics
import time

from run import import_program

ORACLE_REPEATS = 3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()

    wk = import_program()
    from tracer import NullTracer
    wl = wk.WORKLOADS[args.workload]
    rules = wk.load_rules()
    tr = NullTracer()
    rows = {}
    candidates = wl.candidate_keys()
    for key in candidates:
        inp = wl.make_input(key)
        outs, times = set(), []

        def run_once():
            t0 = time.perf_counter()
            outs.add(wk.outcome(wl, inp, rules, tr))
            times.append(time.perf_counter() - t0)

        run_once()
        out = next(iter(outs))
        degenerate = wk.is_degenerate(out)
        reported = 0 if degenerate or wl.mode == "check" else len(json.loads(out)["facts"])
        if reported < wl.min_facts:
            continue
        for _ in range(ORACLE_REPEATS - 1):
            run_once()
        if len(outs) != 1:
            raise SystemExit(f"{key}: output differs between repeats")
        cost_ms = round(1000 * statistics.median(times), 3)
        if wl.keeps(cost_ms, reported):
            rows[key] = [wk.sha256(wk.input_text(inp)), wk.sha256(out),
                         cost_ms, degenerate, reported]
    wk.ORACLE_DIR.mkdir(exist_ok=True)
    lines = [f"  {json.dumps(key)}: {json.dumps(row)}"
             for key, row in rows.items()]
    (wk.ORACLE_DIR / f"{wl.name}.json").write_text(
        '{\n "workload": %s,\n "fields": %s,\n "entries": {\n%s\n }\n}\n'
        % (json.dumps(wl.name), json.dumps(wk.ORACLE_FIELDS),
           ",\n".join(lines)))
    print(f"{wl.name}: {len(rows)} of {len(candidates)} candidate inputs kept")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
