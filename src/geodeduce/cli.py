"""Command-line front end.

Subcommands: run, saturate, rank, check, rules.  Exit codes: 0 success,
1 usage error, 2 input parse error, 3 degenerate construction,
4 soundness violation, 5 the fact given to ``check`` fails, 141 (128 +
SIGPIPE) stdout was closed before the output was written.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from importlib import resources

from .construction import parse_construction
from .facts import parse_fact
from .numeric import DEFAULT_TOL, DegenerateModelError, verify
from .pipeline import (MODES, PipelineConfig, SoundnessViolationError,
                       emit_report, run_pipeline)
from .rules import parse_rules
from .scoring import parse_metric_config

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_UNSOUND = 4
EXIT_FAILS = 5
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process killed by it

# the package's copy of rules/gddm-default.gr, read when --rules is not given
DEFAULT_RULES = "gddm-default.gr"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        print(f"error: cannot read {path}: {e.strerror}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _checked(convert, ok, expected: str):
    """An argparse type for a value that converts and passes ok, so a bad
    value is a usage error that names its flag (bounds: README)."""
    def parse(text: str):
        try:
            x = convert(text)
        except ValueError:
            x = None
        if x is None or not ok(x):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return x
    return parse


def _int_at_least(low: int):
    return _checked(int, lambda n: n >= low, f"an integer >= {low}")


_TOL = _checked(float, lambda x: 0 < x < 1, "a number > 0 and < 1")
_THRESHOLD = _checked(float, lambda x: not math.isnan(x), "a number")
_DEFAULTS = PipelineConfig()  # the flags' defaults; .metrics is MetricConfig()


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rules", help="rule file (.gr); default: the bundled gddm-default.gr")
    p.add_argument("--mode", choices=MODES, default=_DEFAULTS.mode)
    p.add_argument("--max-rounds", type=_int_at_least(1), default=_DEFAULTS.max_rounds)
    p.add_argument("--max-facts", type=_int_at_least(1), default=_DEFAULTS.max_facts)
    p.add_argument("--seeds", type=_int_at_least(1), default=_DEFAULTS.seeds)
    p.add_argument("--tol", type=_TOL, default=DEFAULT_TOL)
    p.add_argument("--master-seed", type=_int_at_least(0), default=_DEFAULTS.master_seed)
    p.add_argument("--threshold", type=_THRESHOLD, default=_DEFAULTS.metrics.threshold)
    p.add_argument("--top", type=_int_at_least(0), default=_DEFAULTS.metrics.top_k)
    p.add_argument("--weights", default=None, help="metric config file")
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--strict-sides", action="store_true")


def _config(args) -> PipelineConfig:
    metrics = parse_metric_config(_read(args.weights) if args.weights else "",
                                  threshold=args.threshold, top_k=args.top)
    return PipelineConfig(mode=args.mode, max_rounds=args.max_rounds,
                          max_facts=args.max_facts, seeds=args.seeds,
                          tol=args.tol, master_seed=args.master_seed,
                          metrics=metrics, strict_sides=args.strict_sides)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="geodeduce",
                     description="saturate geometric constructions and rank "
                                 "the interesting consequences")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (("run", "full pipeline"),
                            ("saturate", "fact list with derivations"),
                            ("rank", "ranking table only")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("construction")
        _add_common(p)

    p_check = sub.add_parser("check", help="numerically verify one fact")
    p_check.add_argument("construction")
    p_check.add_argument("fact", help="e.g. 'coll(G,H,I)'")
    p_check.add_argument("--seeds", type=_int_at_least(1), default=_DEFAULTS.seeds)
    p_check.add_argument("--tol", type=_TOL, default=DEFAULT_TOL)
    p_check.add_argument("--master-seed", type=_int_at_least(0),
                         default=_DEFAULTS.master_seed)

    p_rules = sub.add_parser("rules", help="rule file utilities")
    p_rules.add_argument("--validate", metavar="FILE", required=True)
    return parser


def cli_main(argv=None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull, as the signal module's
        # docs advise, so that the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    return code


def _main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else EXIT_OK

    try:
        if args.command == "rules":
            rules = parse_rules(_read(args.validate))
            print(f"{len(rules)} rules ok")
            return EXIT_OK

        construction = parse_construction(_read(args.construction))

        if args.command == "check":
            fact = parse_fact(args.fact)
            verdict = verify(fact, construction, n_models=args.seeds,
                             tol_rel=args.tol, master_seed=args.master_seed)
            print(f"{fact}: {verdict}")
            if verdict.kind == "degenerate":
                return EXIT_DEGENERATE
            return EXIT_OK if verdict.kind == "holds" else EXIT_FAILS

        rules = parse_rules(_read(args.rules) if args.rules else
                            resources.files(__package__).joinpath(DEFAULT_RULES).read_text("utf-8"))
        report = run_pipeline(construction, rules, _config(args))
        if args.format == "json":
            sys.stdout.write(emit_report(report, "json"))
        elif args.command == "saturate":
            for rec in report.records:
                src = f"  <= {rec.rule}" if rec.rule else "  (hypothesis)"
                print(f"round {rec.round}  {rec.fact}{src}")
            print(f"{len(report.records)} facts, stop: {report.stop_reason}")
        elif args.command == "rank":
            text = emit_report(report, "text")
            print(text.split("\nderivations:\n")[0], end="")
        else:
            sys.stdout.write(emit_report(report, "text"))
        return EXIT_OK
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    except ValueError as e:  # parse errors of every input are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except DegenerateModelError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except SoundnessViolationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNSOUND


def main() -> None:  # console entry point
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
