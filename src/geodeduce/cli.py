"""Command-line front end.

Subcommands: run, saturate, rank, check, rules.  Exit codes: 0 success,
1 usage error, 2 input parse error, 3 degenerate construction,
4 soundness violation, 5 the fact given to ``check`` fails.
"""

from __future__ import annotations

import argparse
import sys

from .construction import ConstructionError, parse_construction
from .facts import MalformedFactError, parse_fact
from .numeric import DegenerateModelError, verify
from .pipeline import (MODES, PipelineConfig, SoundnessViolationError,
                       emit_report, run_pipeline)
from .rules import RuleParseError, parse_rules
from .scoring import MetricConfig, parse_metric_config

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_UNSOUND = 4
EXIT_FAILS = 5

DEFAULT_RULES = "rules/gddm-default.gr"


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


def _int_at_least(low: int):
    """An argparse type for an integer >= low: zero seeds, rounds or facts
    would do nothing, and a negative --top would drop a ranked fact."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = low - 1
        if n < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}")
        return n
    return parse


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rules", default=DEFAULT_RULES, help="rule file (.gr)")
    p.add_argument("--mode", choices=MODES, default="fixpoint")
    p.add_argument("--max-rounds", type=_int_at_least(1), default=10)
    p.add_argument("--max-facts", type=_int_at_least(1), default=100000)
    p.add_argument("--seeds", type=_int_at_least(1), default=5)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--top", type=_int_at_least(0), default=0)
    p.add_argument("--weights", default=None, help="metric config file")
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--strict-sides", action="store_true")


def _config(args) -> PipelineConfig:
    if args.weights:
        metrics = parse_metric_config(_read(args.weights),
                                      threshold=args.threshold, top_k=args.top)
    else:
        metrics = MetricConfig(threshold=args.threshold, top_k=args.top)
    return PipelineConfig(mode=args.mode, max_rounds=args.max_rounds,
                          max_facts=args.max_facts, seeds=args.seeds,
                          tol=args.tol, master_seed=args.master_seed,
                          metrics=metrics, strict_sides=args.strict_sides)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="geodeduce",
                     description="saturate geometric constructions and rank "
                                 "the interesting consequences")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full pipeline", add_help=True)
    p_run.add_argument("construction")
    _add_common(p_run)

    p_sat = sub.add_parser("saturate", help="saturation only")
    p_sat.add_argument("construction")
    _add_common(p_sat)

    p_rank = sub.add_parser("rank", help="ranking table only")
    p_rank.add_argument("construction")
    _add_common(p_rank)

    p_check = sub.add_parser("check", help="numerically verify one fact")
    p_check.add_argument("construction")
    p_check.add_argument("fact", help="e.g. 'coll(G,H,I)'")
    p_check.add_argument("--seeds", type=_int_at_least(1), default=5)
    p_check.add_argument("--tol", type=float, default=1e-8)
    p_check.add_argument("--master-seed", type=int, default=0)

    p_rules = sub.add_parser("rules", help="rule file utilities")
    p_rules.add_argument("--validate", metavar="FILE", required=True)
    return parser


def cli_main(argv=None) -> int:
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

        rules = parse_rules(_read(args.rules))
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
    except (ConstructionError, RuleParseError, MalformedFactError, ValueError) as e:
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
