"""geodeduce benchmark: one workload, one seed, one closed-loop client.

    python3 geobench/run.py --workload circle4-fixpoint --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's ``src/``; nothing needs to be installed.  One process, one
thread: the next input starts when the previous one returns.  The run
makes whole passes over the seed's input set, at least one, until
``--seconds`` have passed.  Every set has at least MIN_INPUTS inputs, so
p90 has ten inputs beyond it.  Each output is checked against the oracle
after its input's timed call returns, outside the timed region.

The host's CPU speed drifts in spells of seconds to minutes, so every
timing is scaled to the reference host's full speed by a calibration loop
timed right before and right after it (see ``_timed``).  An input's
latency is the median of its scaled passes.  ``setup_s`` is the median
scaled time of SETUP_REPEATS fresh interpreters started between inputs
of the first pass.  The process and its set-up probes run on one CPU.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced pass with a traced pass and prints the per-layer metrics instead
(see tracer.py); the spans of the first traced pass go to ``geobench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple, Optional

SRC = Path(__file__).resolve().parents[1] / "src"

MIN_INPUTS = 100     # ten inputs beyond p90
SETUP_REPEATS = 9    # timed fresh interpreters, after one untimed warm-up
PROBE_TIMEOUT_S = 60
CAL_LOOP = 10_000    # iterations of the calibration loop
CAL_REF_S = 0.0006   # the calibration loop's time at full speed on the
                     # reference host (2.1 GHz Xeon vCPU, Python 3.11)


def _die(message: str) -> None:
    print(f"geobench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_program():
    if not (SRC / "geodeduce" / "__init__.py").is_file():
        _die(f"no geodeduce package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import geodeduce
    if Path(geodeduce.__file__).resolve().parent != SRC / "geodeduce":
        _die(f"imported geodeduce from {geodeduce.__file__}, not from {SRC}")
    import workloads
    if not workloads.RULES_PATH.is_file():
        _die(f"{workloads.RULES_PATH} is missing; run from a full checkout")
    return workloads


def _setup(wk, wl, seed):
    """Parse the rules, generate the seed's inputs and run one warm-up input."""
    rules = wk.load_rules()
    oracle = wk.load_oracle(wl)
    inputs = wk.select_inputs(wl, seed, oracle)
    from tracer import NullTracer
    warm = min(inputs, key=lambda inp: oracle[inp.key][2])
    wk.outcome(wl, warm, rules, NullTracer())
    return rules, oracle, inputs


class Execution(NamedTuple):
    key: str                # the input's pool key
    digest: str             # sha256 of its output
    wall_s: float           # wall time of the call into the library
    scaled_s: float         # wall_s at the reference host's full speed
    why: Optional[str]      # why the output is wrong, or None


def _calibrate() -> float:
    """Best of three timings of a fixed pure-Python loop.

    The host's CPU speed drifts in spells that last seconds to tens of
    seconds, and this loop slows down with it.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CAL_LOOP):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def _timed(fn):
    """Call fn(); return its result, its wall time, and that time scaled to
    the reference host's full speed by the calibration loop timed right
    before and right after the call."""
    before = _calibrate()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    slowdown = (before + _calibrate()) / (2 * CAL_REF_S)
    return result, wall, wall / slowdown


def _setup_probe(wk, args) -> float:
    """Scaled time of one fresh interpreter doing the whole set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    proc, _, scaled = _timed(lambda: subprocess.run(
        cmd, cwd=wk.ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=PROBE_TIMEOUT_S))
    if proc.returncode != 0:
        _die(f"set-up probe failed:\n{proc.stderr}")
    return scaled


def _run_pass(wk, wl, inputs, rules, oracle, tr, executions,
              after_input=lambda: None):
    """One pass over the input set.

    Appends one Execution per input; only the call into the library is
    timed, the output check is not.
    """
    def call(inp):
        try:
            with tr.span("input"):
                return wk.outcome(wl, inp, rules, tr)
        except Exception as e:  # a failure is counted, and the run goes on
            return f"error: {type(e).__name__}: {e}"

    for inp in inputs:
        tr.input_id = inp.key
        out, wall, scaled = _timed(lambda: call(inp))
        why = wk.check_outcome(inp, out, oracle[inp.key])
        if why:
            print(f"FAIL {inp.key}: {why}: {out[:200]!r}")
        executions.append(Execution(inp.key, wk.sha256(out), wall, scaled, why))
        after_input()


def _digests(wk, inputs, executions):
    first = executions[:len(inputs)]
    print("inputs_sha256", wk.sha256("".join(wk.sha256(wk.input_text(i))
                                             for i in inputs)))
    print("outputs_sha256", wk.sha256("".join(e.digest for e in first)))


def _failed(executions):
    return sum(1 for e in executions if e.why)


def _untraced(args, wk, wl, rules, oracle, inputs):
    from tracer import NullTracer
    tr = NullTracer()
    executions = []
    setup_times = []
    _setup_probe(wk, args)  # untimed: fills the bytecode and page caches
    # spread the timed probes over the first pass, not back to back
    probe_every = len(inputs) // SETUP_REPEATS

    def probe_between_inputs():
        if (len(setup_times) < SETUP_REPEATS
                and len(executions) % probe_every == 0):
            setup_times.append(_setup_probe(wk, args))

    start = time.perf_counter()
    passes = 0
    while not passes or time.perf_counter() - start < args.seconds:
        _run_pass(wk, wl, inputs, rules, oracle, tr, executions,
                  probe_between_inputs)
        passes += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    by_input = {}
    for e in executions:
        by_input.setdefault(e.key, []).append(e.scaled_s)
    lat = sorted(statistics.median(v) for v in by_input.values())
    failed = _failed(executions)
    _digests(wk, inputs, executions)
    wall = sum(e.wall_s for e in executions)
    print(f"workload {wl.name} seed {args.seed}: {len(inputs)} inputs x "
          f"{passes} passes")
    print(f"wall-clock inputs_per_s {len(executions) / wall:.4g}; host "
          f"slowdown {wall / sum(e.scaled_s for e in executions):.3f}")
    metrics = {
        "inputs_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_p90_s": (statistics.quantiles(lat, n=10)[-1], "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    return len(executions), failed, metrics


COUNT_KEYS = (
    "engine.rounds", "engine.new_facts", "engine.candidates",
    "engine.orbit_calls", "engine.tautologies", "engine.degenerate",
    "scoring.score_all_calls", "scoring.facts_scored", "scoring.ancestor_walks",
    "numeric.models", "numeric.sample_attempts", "numeric.eval_fact_calls",
    "numeric.eval_condition_calls", "pipeline.report_bytes",
    "pipeline.reported_facts", "construction.hypothesis_facts",
)
TIME_KEYS = (
    "engine.self_s", "scoring.self_s", "numeric.sample_s", "numeric.verify_s",
    "pipeline.self_s", "pipeline.emit_s", "construction.parse_s",
)


def _traced(args, wk, wl, rules, oracle, inputs):
    from geodeduce import initial_facts, parse_construction
    from tracer import NullTracer, Tracer, TracerError

    rules_parse = []
    for _ in range(5):
        t0 = time.perf_counter()
        wk.load_rules()
        rules_parse.append(time.perf_counter() - t0)
    hyp_facts = {inp.key: len(initial_facts(parse_construction(inp.text)))
                 for inp in inputs}

    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while not tracers or time.perf_counter() - start < args.seconds:
        _run_pass(wk, wl, inputs, rules, oracle, NullTracer(), untraced)
        tr = Tracer()
        for inp in inputs:
            tr.add("construction.hypothesis_facts", hyp_facts[inp.key])
        try:
            tr.install()
        except TracerError as e:
            _die(f"tracer self-check failed: {e}")
        try:
            _run_pass(wk, wl, inputs, rules, oracle, tr, traced)
        finally:
            tr.uninstall()
        tracers.append(tr)

    failed = _failed(untraced + traced)
    _digests(wk, inputs, traced)
    per_pass = [tr.totals() for tr in tracers]
    try:
        for tr in tracers:
            tr.check_bindings(wl.name, wl.live)
        first = per_pass[0]
        for totals in per_pass[1:]:
            for key in COUNT_KEYS:
                if totals[key] != first[key]:
                    raise TracerError(f"{key} differs between traced passes: "
                                      f"{first[key]} vs {totals[key]}")
        if wl.mode == "check":
            busy = [k for k in COUNT_KEYS if k.split(".")[0] in ("engine", "scoring")
                    and first[k]]
            if busy:
                raise TracerError(f"check100 must not reach engine or scoring: {busy}")
            nondegenerate = sum(1 for inp in inputs if not oracle[inp.key][3])
            if first["numeric.models"] != wk.CHECK_MODELS * nondegenerate:
                raise TracerError(
                    f"numeric.models is {first['numeric.models']}, expected "
                    f"{wk.CHECK_MODELS} x {nondegenerate} non-degenerate inputs")
    except TracerError as e:
        _die(f"tracer self-check failed: {e}")
    tracers[0].write_spans(wk.BENCH_DIR / "out" / f"trace-{wl.name}-seed{args.seed}.jsonl")

    n = first["inputs"]
    passes = len(tracers)
    input_s = sum(t["input_s"] for t in per_pass) / (n * passes)
    # throughput with and without tracing is scaled like inputs_per_s, so
    # that host drift between the passes does not read as tracing overhead
    traced_s = sum(e.scaled_s for e in traced) / len(traced)
    untraced_s = sum(e.scaled_s for e in untraced) / len(untraced)
    metrics = {k: (first[k] / n, "bytes/input" if k == "pipeline.report_bytes"
                   else "count/input") for k in COUNT_KEYS}
    metrics.update({k: (sum(t[k] for t in per_pass) / (n * passes), "s/input")
                    for k in TIME_KEYS})
    metrics["engine.yield"] = (
        first["engine.new_facts"] / first["engine.candidates"]
        if first["engine.candidates"] else 0.0, "ratio")
    metrics["numeric.model_yield"] = (
        first["numeric.models"] / first["numeric.sample_attempts"]
        if first["numeric.sample_attempts"] else 0.0, "ratio")
    metrics["rules.parse_s"] = (statistics.median(rules_parse), "s")
    metrics["trace.input_s"] = (input_s, "s/input")
    metrics["trace.inputs_per_s"] = (1 / traced_s, "1/s")
    metrics["trace.untraced_inputs_per_s"] = (1 / untraced_s, "1/s")
    metrics["trace.overhead_pct"] = (100 * (traced_s / untraced_s - 1), "%")
    for layer, parts in (("engine", ["engine.self_s"]),
                         ("scoring", ["scoring.self_s"]),
                         ("numeric", ["numeric.sample_s", "numeric.verify_s"]),
                         ("pipeline", ["pipeline.self_s", "pipeline.emit_s"])):
        share = sum(metrics[p][0] for p in parts) / input_s
        print(f"share {layer} {share:.3f}")
    print(f"workload {wl.name} seed {args.seed}: {len(inputs)} inputs x "
          f"{passes} traced passes")
    return len(untraced) + len(traced), failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # one CPU for the timed calls, the calibration loop and the set-up
    # probes, which inherit it: the host's vCPUs do not drift together
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    wk = import_program()
    wl = wk.WORKLOADS.get(args.workload)
    if wl is None:
        _die(f"unknown workload {args.workload!r}; one of {sorted(wk.WORKLOADS)}")
    rules, oracle, inputs = _setup(wk, wl, args.seed)
    if len(inputs) < MIN_INPUTS:
        _die(f"{wl.name} has {len(inputs)} inputs per pass, fewer than {MIN_INPUTS}")
    if args.setup_probe:
        return 0

    run = _traced if args.trace else _untraced
    attempted, failed, metrics = run(args, wk, wl, rules, oracle, inputs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
