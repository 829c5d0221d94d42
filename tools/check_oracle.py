"""Check every oracle pool row of the benchmark workloads against src/.

    python3 tools/check_oracle.py [--workload NAME ...]

Run from the root of a checkout.  Every input of each workload's pool
(``geobench/oracle/<workload>.json``) goes through the library in
``src/`` the way ``geobench/run.py`` sends it, and its output is checked
against the recorded row with ``workloads.check_outcome``.  All workloads
are checked unless ``--workload`` names some.  Prints the number of rows
checked and the key of each row that does not match; exits 1 if any row
does not match.  Nothing under ``geobench/`` is written.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "geobench"))
from run import import_program  # noqa: E402  (geobench/run.py)


def check_row(wk, wl, key, row, rules, tr):
    """Why the pool row's output no longer matches, or None."""
    inp = wl.make_input(key)
    if wk.sha256(wk.input_text(inp)) != row[0]:
        return "input differs from the recorded input"
    try:
        out = wk.outcome(wl, inp, rules, tr)
    except Exception:  # a crash is a mismatch; the check goes on
        return "raised\n" + traceback.format_exc()
    return wk.check_outcome(inp, out, row)


def main(argv=None) -> int:
    wk = import_program()
    from tracer import NullTracer
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(wk.WORKLOADS),
                        help="check only this workload (repeatable)")
    args = parser.parse_args(argv)
    rules, tr = wk.load_rules(), NullTracer()
    rows = mismatches = 0
    for name in args.workload or wk.WORKLOADS:
        wl = wk.WORKLOADS[name]
        oracle = wk.load_oracle(wl)
        bad = 0
        for key, row in oracle.items():
            why = check_row(wk, wl, key, row, rules, tr)
            if why:
                print(f"MISMATCH {name} {key}: {why}")
                bad += 1
        print(f"{name}: {len(oracle)} rows, {bad} mismatches")
        rows += len(oracle)
        mismatches += bad
    print(f"total: {rows} rows, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
