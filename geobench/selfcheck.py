"""Determinism self-check of the benchmark, run from outside the program.

    python3 geobench/selfcheck.py

For each workload, two traced runs of seed 0 under different
PYTHONHASHSEED values must print identical output digests and identical
per-layer counts (the reports are promised to be byte-reproducible), and
seed 1 must give a different input set.  Exits 1 on any mismatch.
"""

import json
import os
import subprocess
import sys

from run import import_program

TIMED_UNITS = {"s", "s/input", "1/s", "%"}


def traced_run(wk, workload: str, seed: int, hash_seed: str):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(wk.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=wk.ROOT, env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    digests = dict(line.split() for line in lines
                   if line.startswith(("inputs_sha256", "outputs_sha256")))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs do not match the oracle")
    counts = {k: m["value"] for k, m in result["metrics"].items()
              if m["unit"] not in TIMED_UNITS}
    return digests, counts


def main() -> int:
    wk = import_program()
    ok = True
    for wl in wk.WORKLOADS:
        d1, c1 = traced_run(wk, wl, 0, "1")
        d2, c2 = traced_run(wk, wl, 0, "2")
        d3, _ = traced_run(wk, wl, 1, "1")
        same = d1 == d2 and c1 == c2
        differs = d3["inputs_sha256"] != d1["inputs_sha256"]
        print(f"{wl}: PYTHONHASHSEED 1 vs 2: digests and counts "
              f"{'identical' if same else 'DIFFER'}; seed 0 vs 1: inputs "
              f"{'differ' if differs else 'IDENTICAL'}; "
              f"outputs_sha256 {d1['outputs_sha256'][:16]}")
        if not same:
            for k in sorted(set(c1) | set(c2)):
                if c1.get(k) != c2.get(k):
                    print(f"  {k}: {c1.get(k)} vs {c2.get(k)}")
        ok = ok and same and differs
    print("determinism self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
